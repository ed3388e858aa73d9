//! Per-frame latency attribution.
//!
//! A served frame passes through six stages: wire **decode**, event
//! **apply** (posting + dispatch), **settle** (flushing change records
//! and notifications to quiescence, paper §2), **paint** (the update
//! pass), **diff** (damage banding / frame assembly), and **ship**
//! (encode + socket write). A [`FrameTrace`] rides along with one
//! input batch and stamps each stage on the owning collector's clock;
//! [`FrameTrace::finish`] folds the stamps into per-stage histograms
//! (`serve.stage_us.*`) and returns the frame's [`FrameRecord`].
//!
//! Because the manual [`Clock`](crate::Clock) auto-steps on every
//! read, stage durations are fully deterministic under it — which is
//! what makes the SLO watchdog's slow-frame dumps golden-testable.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::collector::Collector;

/// Number of attributed pipeline stages.
pub const STAGE_COUNT: usize = 6;

/// One stage of the served-frame pipeline, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Wire-frame decode of the input batch.
    Decode,
    /// Event posting and dispatch through the interaction manager.
    Apply,
    /// Change-record and notification flush to quiescence (paper §2's
    /// notify/update queues draining).
    Settle,
    /// The update pass: damage → draw.
    Paint,
    /// Frame assembly: the changed-bounds scan and the one-pass XOR
    /// update encode, or the keyframe pixel copy.
    Diff,
    /// Encode and socket write of the outgoing frame.
    Ship,
}

impl Stage {
    /// All stages, in pipeline order (also the index order used by
    /// [`FrameRecord::stages`]).
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Decode,
        Stage::Apply,
        Stage::Settle,
        Stage::Paint,
        Stage::Diff,
        Stage::Ship,
    ];

    /// Short lower-case stage name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Apply => "apply",
            Stage::Settle => "settle",
            Stage::Paint => "paint",
            Stage::Diff => "diff",
            Stage::Ship => "ship",
        }
    }

    /// Histogram key this stage aggregates under.
    pub fn key(self) -> &'static str {
        match self {
            Stage::Decode => "serve.stage_us.decode",
            Stage::Apply => "serve.stage_us.apply",
            Stage::Settle => "serve.stage_us.settle",
            Stage::Paint => "serve.stage_us.paint",
            Stage::Diff => "serve.stage_us.diff",
            Stage::Ship => "serve.stage_us.ship",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Decode => 0,
            Stage::Apply => 1,
            Stage::Settle => 2,
            Stage::Paint => 3,
            Stage::Diff => 4,
            Stage::Ship => 5,
        }
    }
}

/// Histogram key for the whole-frame duration recorded by
/// [`FrameTrace::finish`] (sum of the six stage durations, so it
/// composes with `serve.stage_us.*` and stays deterministic under the
/// manual clock, unlike the wall-clock `serve.frame_us`).
pub const STAGE_TOTAL_KEY: &str = "serve.stage_us.total";

/// One finished frame's attribution: per-stage microseconds plus the
/// frame's sequence number and start timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRecord {
    /// Server frame sequence number the trace belongs to.
    pub seq: u64,
    /// Collector-clock timestamp when tracing of this frame began.
    pub start_us: u64,
    /// Sum of the six stage durations.
    pub total_us: u64,
    /// Stage durations indexed in [`Stage::ALL`] order.
    pub stages: [u64; STAGE_COUNT],
}

impl FrameRecord {
    /// Duration attributed to `stage`.
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.stages[stage.index()]
    }

    /// One-line human-readable breakdown, pipeline order:
    /// `decode 1us | apply 12us | ...`.
    pub fn breakdown(&self) -> String {
        let mut out = String::with_capacity(96);
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            out.push_str(stage.name());
            out.push(' ');
            out.push_str(&self.stages[i].to_string());
            out.push_str("us");
        }
        out
    }
}

/// Stage stopwatch for one in-flight frame. Created per input batch,
/// threaded through decode → apply → … → ship, finished once the frame
/// is on the wire. A disabled trace ([`FrameTrace::disabled`], or
/// [`FrameTrace::begin`] on a disabled collector) is inert: every call
/// is a branch on a `None`.
#[derive(Debug)]
pub struct FrameTrace {
    collector: Option<Arc<Collector>>,
    start_us: u64,
    stages: [u64; STAGE_COUNT],
    pending: Option<(Stage, u64)>,
}

impl FrameTrace {
    /// An inert trace that records nothing.
    pub fn disabled() -> FrameTrace {
        FrameTrace {
            collector: None,
            start_us: 0,
            stages: [0; STAGE_COUNT],
            pending: None,
        }
    }

    /// Starts a trace on `collector`'s clock; inert if the collector
    /// is disabled.
    pub fn begin(collector: &Arc<Collector>) -> FrameTrace {
        if !collector.is_enabled() {
            return FrameTrace::disabled();
        }
        FrameTrace {
            start_us: collector.now_us(),
            collector: Some(Arc::clone(collector)),
            stages: [0; STAGE_COUNT],
            pending: None,
        }
    }

    /// True when this trace is actually recording.
    pub fn is_enabled(&self) -> bool {
        self.collector.is_some()
    }

    /// Opens a stage interval; pair with [`FrameTrace::exit`]. If a
    /// stage was already open it is closed first (stages never nest —
    /// the pipeline is sequential).
    pub fn enter(&mut self, stage: Stage) {
        if let Some(c) = &self.collector {
            let now = c.now_us();
            self.close_pending(now);
            self.pending = Some((stage, now));
        }
    }

    /// Closes the currently open stage interval, adding its duration
    /// to that stage's accumulator. No-op when nothing is open.
    pub fn exit(&mut self) {
        if let Some(c) = &self.collector {
            let now = c.now_us();
            self.close_pending(now);
        }
    }

    fn close_pending(&mut self, now: u64) {
        if let Some((stage, t0)) = self.pending.take() {
            self.stages[stage.index()] += now.saturating_sub(t0);
        }
    }

    /// Runs `f` attributed to `stage` (enter/exit around the call).
    pub fn measure<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        self.enter(stage);
        let out = f();
        self.exit();
        out
    }

    /// Adds `us` directly to `stage` (for durations measured
    /// externally).
    pub fn add_us(&mut self, stage: Stage, us: u64) {
        if self.collector.is_some() {
            self.stages[stage.index()] += us;
        }
    }

    /// Finishes the frame: records each stage duration into its
    /// `serve.stage_us.*` histogram plus the total under
    /// [`STAGE_TOTAL_KEY`], and returns the [`FrameRecord`]. Returns
    /// `None` for an inert trace.
    pub fn finish(mut self, seq: u64) -> Option<FrameRecord> {
        let c = self.collector.take()?;
        if let Some((stage, t0)) = self.pending.take() {
            let now = c.now_us();
            self.stages[stage.index()] += now.saturating_sub(t0);
        }
        let total: u64 = self.stages.iter().sum();
        for stage in Stage::ALL {
            c.observe(stage.key(), self.stages[stage.index()]);
        }
        c.observe(STAGE_TOTAL_KEY, total);
        Some(FrameRecord {
            seq,
            start_us: self.start_us,
            total_us: total,
            stages: self.stages,
        })
    }
}

/// Shared sink for SLO-violation dumps. Sessions push formatted
/// slow-frame entries; the server (or a test) reads them back. Keeps
/// the most recent `cap` entries and counts the rest; optionally
/// echoes each entry to stderr for `served` console use.
#[derive(Debug)]
pub struct SlowFrameLog {
    inner: Mutex<SlowInner>,
    echo: AtomicBool,
}

#[derive(Debug)]
struct SlowInner {
    entries: VecDeque<String>,
    cap: usize,
    total: u64,
}

impl SlowFrameLog {
    /// A log retaining the most recent `cap` entries (min 1).
    pub fn new(cap: usize) -> SlowFrameLog {
        SlowFrameLog {
            inner: Mutex::new(SlowInner {
                entries: VecDeque::with_capacity(cap.max(1)),
                cap: cap.max(1),
                total: 0,
            }),
            echo: AtomicBool::new(false),
        }
    }

    /// When on, every pushed entry is also written to stderr.
    pub fn set_echo(&self, on: bool) {
        self.echo.store(on, Ordering::Relaxed);
    }

    /// Appends one formatted slow-frame entry.
    pub fn push(&self, entry: String) {
        if self.echo.load(Ordering::Relaxed) {
            eprintln!("{entry}");
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.entries.len() == inner.cap {
            inner.entries.pop_front();
        }
        inner.entries.push_back(entry);
        inner.total += 1;
    }

    /// Retained entries, oldest first.
    pub fn entries(&self) -> Vec<String> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .iter()
            .cloned()
            .collect()
    }

    /// Entries ever pushed, including evicted ones.
    pub fn total_pushed(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual() -> Arc<Collector> {
        let c = Arc::new(Collector::new());
        c.enable();
        c.set_manual_clock(0, 1);
        c
    }

    #[test]
    fn disabled_trace_is_inert() {
        let mut ft = FrameTrace::disabled();
        assert!(!ft.is_enabled());
        ft.enter(Stage::Apply);
        ft.exit();
        ft.add_us(Stage::Paint, 99);
        assert!(ft.finish(0).is_none());

        let off = Arc::new(Collector::new());
        let ft = FrameTrace::begin(&off);
        assert!(!ft.is_enabled());
    }

    #[test]
    fn stages_accumulate_deterministically_under_manual_clock() {
        let c = manual();
        let run = |c: &Arc<Collector>| {
            let mut ft = FrameTrace::begin(c);
            ft.measure(Stage::Decode, || {});
            ft.enter(Stage::Apply);
            c.advance_clock_us(10);
            ft.exit();
            ft.measure(Stage::Paint, || c.advance_clock_us(5));
            ft.add_us(Stage::Ship, 3);
            ft.finish(7).unwrap()
        };
        let a = run(&c);
        let b = run(&c);
        // Identical stage durations on both runs: the manual clock
        // auto-step makes attribution reproducible.
        assert_eq!(a.stages, b.stages);
        assert_eq!(a.seq, 7);
        // enter/exit bracket one auto-step: decode takes exactly the
        // step (1us); apply adds the explicit 10us advance.
        assert_eq!(a.stage_us(Stage::Decode), 1);
        assert_eq!(a.stage_us(Stage::Apply), 11);
        assert_eq!(a.stage_us(Stage::Paint), 6);
        assert_eq!(a.stage_us(Stage::Ship), 3);
        assert_eq!(a.stage_us(Stage::Settle), 0);
        assert_eq!(a.total_us, a.stages.iter().sum::<u64>());
        // finish() fed the per-stage histograms.
        let snap = c.snapshot();
        assert_eq!(snap.histogram("serve.stage_us.decode").unwrap().count, 2);
        assert_eq!(snap.histogram(STAGE_TOTAL_KEY).unwrap().count, 2);
        assert_eq!(snap.histogram("serve.stage_us.apply").unwrap().min, 11);
    }

    #[test]
    fn entering_a_stage_closes_the_previous_one() {
        let c = manual();
        let mut ft = FrameTrace::begin(&c);
        ft.enter(Stage::Apply);
        c.advance_clock_us(4);
        ft.enter(Stage::Settle); // implicit exit of Apply
        c.advance_clock_us(2);
        let rec = ft.finish(0).unwrap(); // implicit exit of Settle
        assert!(rec.stage_us(Stage::Apply) >= 4);
        assert!(rec.stage_us(Stage::Settle) >= 2);
    }

    #[test]
    fn breakdown_lists_all_stages_in_order() {
        let rec = FrameRecord {
            seq: 1,
            start_us: 0,
            total_us: 21,
            stages: [1, 2, 3, 4, 5, 6],
        };
        assert_eq!(
            rec.breakdown(),
            "decode 1us | apply 2us | settle 3us | paint 4us | diff 5us | ship 6us"
        );
    }

    #[test]
    fn slow_frame_log_retains_most_recent() {
        let log = SlowFrameLog::new(2);
        log.push("a".into());
        log.push("b".into());
        log.push("c".into());
        assert_eq!(log.entries(), vec!["b".to_string(), "c".to_string()]);
        assert_eq!(log.total_pushed(), 3);
    }
}
