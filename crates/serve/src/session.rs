//! One hosted session: a `World` + `InteractionManager` pair living in
//! its connection's thread, fed batches of script steps and producing
//! one shipped frame per batch.
//!
//! The batch path is the serving analogue of the toolkit's own update
//! discipline: events are *posted* first and the tree `settle`s once per
//! batch (the IM's `pump` already dequeues everything before its single
//! settle), so a burst of mouse movement costs one relayout and one
//! damage pass, not one per event. On top of that the coalescer drops
//! all but the last of a run of consecutive pointer movements — the
//! cursor only ends up in one place. Clock ticks are **never** merged:
//! a timer that fires at +10 and reschedules itself +10 fires twice
//! under `tick 10, tick 10` but once under `tick 20`, and the
//! served-vs-in-process oracle insists on byte identity.

use std::sync::Arc;
use std::time::Instant;

use atk_apps::scenes::build_scene;
use atk_collab::{Attachment, Doc, Op};
use atk_core::{InteractionManager, ScriptStep, StepDriver, World};
use atk_graphics::Framebuffer;
use atk_trace::{Collector, FrameLog, FrameTrace, SlowFrameLog, Stage};
use atk_wm::{MouseAction, WindowEvent};

use crate::wire::{Encoding, PatchRect, ServerFrame};

/// Frames of attribution history each session retains (ring).
pub const FRAME_LOG_CAPACITY: usize = 128;

/// Per-session tuning; the server clones one of these per connection.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Most steps consumed per batch; a drained burst beyond this drops
    /// the oldest steps (`serve.backpressure_drops`).
    pub queue_cap: usize,
    /// Diff payloads above this many bytes degrade to a keyframe.
    pub dirty_budget_bytes: usize,
    /// A full keyframe is forced every this many shipped frames;
    /// 0 = every frame is a keyframe (the always-keyframe baseline).
    pub keyframe_every: u32,
    /// Evict the session once the *virtual* clock has advanced this far
    /// beyond the last non-tick input. `None` disables eviction.
    pub idle_ms: Option<u64>,
    /// Per-frame stage attribution (decode/apply/settle/paint/diff/
    /// ship stamps into `serve.stage_us.*`). On by default; e13 turns
    /// it off for its traced-vs-untraced baseline.
    pub frame_trace: bool,
    /// SLO watchdog: any frame whose attributed total exceeds this
    /// budget dumps its stage breakdown and triggering step to the
    /// slow-frame log. `None` disables the watchdog.
    pub slo_us: Option<u64>,
    /// Bands the backend rasterizes in parallel per paint flush
    /// (1 = the serial reference path).
    pub paint_threads: usize,
    /// Pick the smaller of raw and RLE wire bodies per frame; off pins
    /// raw (the e14 and `encode_oracle_*` baseline).
    pub encode: bool,
    /// Window-system backend the session's scene is built on:
    /// `x11sim` (pixel framebuffer) or `awmsim` (display list, replayed
    /// to pixels per snapshot).
    pub backend: String,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            queue_cap: 256,
            dirty_budget_bytes: 256 * 1024,
            keyframe_every: 64,
            idle_ms: None,
            frame_trace: true,
            slo_us: None,
            paint_threads: 1,
            encode: true,
            backend: "x11sim".to_string(),
        }
    }
}

/// Why the session stopped accepting input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// Virtual clock ran past the idle horizon with no real input.
    Idle,
    /// The application closed its window (`close` step).
    Closed,
}

/// A live session hosted by the server.
pub struct HostedSession {
    world: World,
    im: InteractionManager,
    cfg: SessionConfig,
    collector: Arc<Collector>,
    /// Last framebuffer shipped to the client, diff baseline.
    shipped: Option<Framebuffer>,
    seq: u64,
    frames_since_key: u32,
    last_input_ms: u64,
    /// Server-assigned id, stamped into slow-frame dumps.
    session_id: u64,
    /// Ring of recent per-frame stage attributions.
    frame_log: FrameLog,
    /// Shared sink for SLO-violation dumps, if the server set one.
    slow_log: Option<Arc<SlowFrameLog>>,
    /// Script line of the last step in the current batch (captured
    /// only while the SLO watchdog is armed).
    last_trigger: Option<String>,
    /// Step semantics shared with the in-process reference
    /// (`atk_check::Session::apply`).
    driver: StepDriver,
    /// The replica side of a shared-document attachment, when this
    /// session opened via `Attach` instead of `Hello`.
    collab: Option<Replica>,
}

/// Replica bookkeeping for an attached session: the live subscription
/// (dropping it unsubscribes, on every exit path) plus how far into
/// the log this replica has applied.
struct Replica {
    attachment: Attachment,
    /// Seq of the newest op applied to this replica's world.
    applied: u64,
}

impl HostedSession {
    /// Builds the named scene cold on the configured backend. Runs on
    /// the connection's own thread — the world never crosses it.
    pub fn open(
        scene: &str,
        cfg: SessionConfig,
        collector: Arc<Collector>,
    ) -> Result<HostedSession, String> {
        HostedSession::open_with(scene, cfg, collector, None)
    }

    /// Opens a session, forking it from a pre-warmed template when a
    /// [`TemplateRegistry`] is supplied (the fast path), building the
    /// scene from scratch otherwise (the cold path, and the `--no-fork`
    /// ablation). Either way the session gets its *own* collector after
    /// the scene exists, so a forked session's counters are identical
    /// to a cold session's — template builds and fork costs count on
    /// the registry's collector instead.
    ///
    /// [`TemplateRegistry`]: atk_apps::TemplateRegistry
    pub fn open_with(
        scene: &str,
        cfg: SessionConfig,
        collector: Arc<Collector>,
        templates: Option<&mut atk_apps::TemplateRegistry>,
    ) -> Result<HostedSession, String> {
        let scene = match templates {
            Some(reg) => reg.fork_session(scene, &cfg.backend)?,
            None => build_scene(scene, &cfg.backend)?,
        };
        let mut world = scene.world;
        world.set_collector(collector.clone());
        let last_input_ms = world.now_ms();
        let mut im = scene.im;
        im.window_mut().set_paint_threads(cfg.paint_threads.max(1));
        Ok(HostedSession {
            world,
            im,
            cfg,
            collector,
            shipped: None,
            seq: 0,
            frames_since_key: 0,
            last_input_ms,
            session_id: 0,
            frame_log: FrameLog::new(FRAME_LOG_CAPACITY),
            slow_log: None,
            last_trigger: None,
            driver: StepDriver::default(),
            collab: None,
        })
    }

    /// Builds a *replica* of a shared document: opens the document's
    /// scene, then replays the attach-time backlog so the replica
    /// stands at the log head it subscribed from. The backlog size is
    /// observed into `serve.collab.replay_lag` — a fresh replica of a
    /// long-lived document starts that far behind.
    pub fn open_replica(
        mut attachment: Attachment,
        cfg: SessionConfig,
        collector: Arc<Collector>,
        templates: Option<&mut atk_apps::TemplateRegistry>,
    ) -> Result<HostedSession, String> {
        let scene = attachment.doc().scene().to_string();
        let mut session = HostedSession::open_with(&scene, cfg, collector, templates)?;
        let backlog = attachment.take_backlog();
        session
            .collector
            .observe("serve.collab.replay_lag", backlog.len() as u64);
        session.collab = Some(Replica {
            attachment,
            applied: 0,
        });
        for op in &backlog {
            session.apply_one_op(&op.step);
        }
        if let Some(r) = session.collab.as_mut() {
            r.applied = backlog.last().map_or(0, |op| op.seq);
        }
        // A replayed backlog may tick the clock well past the idle
        // horizon; a replica is not idle at birth.
        session.last_input_ms = session.world.now_ms();
        Ok(session)
    }

    /// True when this session is a replica of a shared document.
    pub fn is_attached(&self) -> bool {
        self.collab.is_some()
    }

    /// The attached document, for replicas.
    pub fn doc(&self) -> Option<&Arc<Doc>> {
        self.collab.as_ref().map(|r| r.attachment.doc())
    }

    /// Serializes a batch of this replica's own edits through the
    /// document's log. Nothing is applied here — every edit comes back
    /// through the subscription in log order, so all replicas (the
    /// author included) apply the one total order. `dropped` steps
    /// never reached the log, but they still advance `seq` so the
    /// client's accounting stays truthful. Counts `serve.collab.ops`
    /// and observes per-op fanout latency into
    /// `serve.collab.fanout_us`.
    pub fn submit_batch(&mut self, batch: &[ScriptStep], dropped: u64) {
        self.seq += dropped;
        let Some(r) = self.collab.as_ref() else {
            return;
        };
        let doc = Arc::clone(r.attachment.doc());
        for step in batch {
            let started = Instant::now();
            doc.submit(self.session_id, step.clone());
            self.collector.observe(
                "serve.collab.fanout_us",
                started.elapsed().as_micros() as u64,
            );
        }
        self.collector.count("serve.collab.ops", batch.len() as u64);
    }

    /// Drains every op currently buffered on the replica's channel.
    pub fn drain_ops(&mut self) -> Vec<Op> {
        self.collab
            .as_mut()
            .map_or_else(Vec::new, |r| r.attachment.drain())
    }

    /// [`HostedSession::apply_ops_traced`] owning its own attribution.
    pub fn apply_ops(&mut self, ops: &[Op]) -> (ServerFrame, Option<SessionEnd>) {
        let mut ft = self.begin_frame();
        let out = self.apply_ops_traced(ops, &mut ft);
        self.finish_frame(ft);
        out
    }

    /// Applies a drained run of shared-document ops and returns the
    /// frame to ship. Ops apply **one at a time** with the recorded
    /// per-step semantics — each op settles and repaints before the
    /// next applies — so a replica's world, counters, and pixels are a
    /// pure function of the log prefix, independent of how transport
    /// drains or shard scheduling chunked the ops. (Per-op settle and
    /// paint are attributed to the `apply` stage; the one shipped
    /// frame still diffs the cumulative change as usual.)
    ///
    /// `seq` advances only by ops *authored by this session*: the
    /// shipped sequence number keeps counting the client's own steps,
    /// so pipelined-ack accounting is untouched by remote edits.
    ///
    /// Any non-tick op — whoever wrote it — refreshes the idle
    /// horizon: idleness is keyed on doc-level activity, so a silent
    /// watcher is not evicted while its peer is typing into the
    /// shared document.
    pub fn apply_ops_traced(
        &mut self,
        ops: &[Op],
        ft: &mut FrameTrace,
    ) -> (ServerFrame, Option<SessionEnd>) {
        let started = Instant::now();
        if self.cfg.slo_us.is_some() && ft.is_enabled() {
            self.last_trigger = ops.last().map(|op| {
                op.step
                    .to_line()
                    .unwrap_or_else(|| format!("{:?}", op.step))
            });
        }
        ft.enter(Stage::Apply);
        let mut saw_real_input = false;
        let mut own = 0u64;
        for op in ops {
            if !matches!(op.step, ScriptStep::Event(WindowEvent::Tick(_))) {
                saw_real_input = true;
            }
            if op.author == self.session_id {
                own += 1;
            }
            self.apply_one_op(&op.step);
            if let Some(r) = self.collab.as_mut() {
                r.applied = op.seq;
            }
        }
        ft.exit();

        self.seq += own;
        if saw_real_input {
            self.last_input_ms = self.world.now_ms();
        }
        if let Some(r) = self.collab.as_ref() {
            let lag = r.attachment.doc().head().saturating_sub(r.applied);
            self.collector.observe("serve.collab.replay_lag", lag);
        }

        let frame = self.ship_frame(ft);
        self.collector
            .observe("serve.frame_us", started.elapsed().as_micros() as u64);

        (frame, self.session_end())
    }

    /// One op, with the exact semantics the in-process reference uses
    /// for one script step (`atk_check::Session::apply`), followed by
    /// a settle and a damage repaint so the next op sees a fully
    /// repaired world.
    fn apply_one_op(&mut self, step: &ScriptStep) {
        self.driver.apply(&mut self.im, &mut self.world, step);
        self.im.flush_quiescent(&mut self.world);
        self.im.repaint_damage(&mut self.world);
    }

    /// Applies plain steps with replica semantics (one settle + paint
    /// per step, no frame assembly). This is how the collab oracle's
    /// in-process reference replays the merged interleaving: the same
    /// per-op funnel the replicas run, minus the wire.
    pub fn replay_steps(&mut self, steps: &[ScriptStep]) {
        for step in steps {
            self.apply_one_op(step);
        }
    }

    /// A snapshot of the current backend framebuffer (the oracle's
    /// ground truth for comparisons).
    pub fn framebuffer(&self) -> Framebuffer {
        self.current_fb()
    }

    /// Stamps the server-assigned id into slow-frame dumps.
    pub fn set_session_id(&mut self, id: u64) {
        self.session_id = id;
    }

    /// The server-assigned id (0 until [`HostedSession::set_session_id`]).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Points SLO-violation dumps at a shared sink.
    pub fn set_slow_log(&mut self, log: Arc<SlowFrameLog>) {
        self.slow_log = Some(log);
    }

    /// The session's collector (per-session under the server).
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// Ring of recent per-frame stage attributions.
    pub fn frame_log(&self) -> &FrameLog {
        &self.frame_log
    }

    /// Window size right now (the `Welcome` dimensions).
    pub fn size(&mut self) -> (u32, u32) {
        let s = self.im.window_mut().size();
        (s.width.max(0) as u32, s.height.max(0) as u32)
    }

    /// Steps consumed so far (shipped `seq` numbers count these).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Starts stage attribution for the next frame: a live
    /// [`FrameTrace`] when the config and collector allow it, an inert
    /// one otherwise. The server begins the trace before decoding so
    /// the decode stage is attributed too.
    pub fn begin_frame(&self) -> FrameTrace {
        if self.cfg.frame_trace {
            FrameTrace::begin(&self.collector)
        } else {
            FrameTrace::disabled()
        }
    }

    /// Finishes a frame's attribution: folds the stage stamps into the
    /// `serve.stage_us.*` histograms, appends the record to the
    /// session's frame ring, and — when the SLO watchdog is armed and
    /// the frame blew its budget — dumps the full breakdown plus the
    /// triggering step line to the slow-frame log.
    pub fn finish_frame(&mut self, ft: FrameTrace) {
        let Some(rec) = ft.finish(self.seq) else {
            return;
        };
        if let Some(slo) = self.cfg.slo_us {
            if rec.total_us > slo {
                self.collector.count("serve.slo_violations", 1);
                let trigger = self.last_trigger.as_deref().unwrap_or("none");
                let entry = format!(
                    "SLO session={} seq={} total={}us budget={}us trigger={} :: {}",
                    self.session_id,
                    rec.seq,
                    rec.total_us,
                    slo,
                    trigger,
                    rec.breakdown()
                );
                if let Some(log) = &self.slow_log {
                    log.push(entry);
                }
            }
        }
        self.frame_log.push(rec);
    }

    /// Applies one batch of steps (single settle for event runs) and
    /// returns the frame to ship plus whether the session must end.
    /// `dropped` is how many older steps backpressure discarded before
    /// this batch; they still advance `seq` so the client's accounting
    /// stays truthful. Convenience wrapper that owns the whole
    /// attribution lifecycle (the server threads its own trace through
    /// [`HostedSession::apply_batch_traced`] so decode and ship are
    /// attributed too).
    pub fn apply_batch(
        &mut self,
        batch: &[ScriptStep],
        dropped: u64,
    ) -> (ServerFrame, Option<SessionEnd>) {
        let mut ft = self.begin_frame();
        let out = self.apply_batch_traced(batch, dropped, &mut ft);
        self.finish_frame(ft);
        out
    }

    /// [`HostedSession::apply_batch`] with caller-owned stage
    /// attribution: apply/settle/paint/diff land on `ft`; the caller
    /// stamps decode before and ship after.
    pub fn apply_batch_traced(
        &mut self,
        batch: &[ScriptStep],
        dropped: u64,
        ft: &mut FrameTrace,
    ) -> (ServerFrame, Option<SessionEnd>) {
        let started = Instant::now();
        if self.cfg.slo_us.is_some() && ft.is_enabled() {
            self.last_trigger = batch
                .last()
                .map(|s| s.to_line().unwrap_or_else(|| format!("{s:?}")));
        }
        let coalesced = coalesce(batch);
        self.collector
            .count("serve.coalesced", (batch.len() - coalesced.len()) as u64);

        // Post runs of plain events and pump once per run; menu
        // selections need the request/select/pump sequence in order.
        // The final pump is spelled out as dispatch / flush / repaint
        // so the trace can attribute apply, settle, and paint apart —
        // the sequence is exactly what `pump` runs.
        ft.enter(Stage::Apply);
        let mut pending = false;
        let mut saw_real_input = false;
        for step in &coalesced {
            if !matches!(step, ScriptStep::Event(WindowEvent::Tick(_))) {
                saw_real_input = true;
            }
            match step {
                ScriptStep::Event(ev) => {
                    self.driver.observe(ev);
                    self.im.window_mut().post_event(ev.clone());
                    pending = true;
                }
                ScriptStep::MenuSelect(label) => {
                    if pending {
                        self.im.pump(&mut self.world);
                        pending = false;
                    }
                    self.driver.select(&mut self.im, &mut self.world, label);
                }
            }
        }
        if pending {
            while let Some(ev) = self.im.window_mut().next_event() {
                self.im.dispatch(&mut self.world, ev);
            }
        }
        ft.exit();
        ft.measure(Stage::Settle, || {
            self.im.flush_quiescent(&mut self.world);
        });
        ft.measure(Stage::Paint, || {
            self.im.repaint_damage(&mut self.world);
        });

        self.seq += batch.len() as u64 + dropped;
        if saw_real_input {
            self.last_input_ms = self.world.now_ms();
        }

        let frame = self.ship_frame(ft);
        self.collector
            .observe("serve.frame_us", started.elapsed().as_micros() as u64);

        (frame, self.session_end())
    }

    /// Whether the session must end right now, judged only on *this*
    /// session's state: its run flag, and its own virtual clock against
    /// its own last-input stamp. A shard hosting many sessions calls
    /// this per session — each world carries its own clock, so one
    /// session ticking far into its future never ages its neighbors
    /// (the cross-session clock-bleed regression pins this).
    pub fn session_end(&self) -> Option<SessionEnd> {
        if !self.im.is_running() {
            return Some(SessionEnd::Closed);
        }
        let idle = self.cfg.idle_ms?;
        (self.world.now_ms().saturating_sub(self.last_input_ms) >= idle).then_some(SessionEnd::Idle)
    }

    /// The initial keyframe sent right after `Welcome`.
    pub fn initial_keyframe(&mut self) -> ServerFrame {
        self.keyframe()
    }

    fn current_fb(&self) -> Framebuffer {
        self.im
            .snapshot()
            .expect("serving needs a pixel-backed backend")
    }

    fn keyframe(&mut self) -> ServerFrame {
        let fb = self.current_fb();
        let frame = ServerFrame::Keyframe {
            seq: self.seq,
            width: fb.width().max(0) as u32,
            height: fb.height().max(0) as u32,
            pixels: fb.pixels().to_vec(),
        };
        self.shipped = Some(fb);
        self.frames_since_key = 0;
        self.collector.count("serve.frames", 1);
        self.collector
            .count("serve.full_bytes", frame.wire_len() as u64);
        frame
    }

    /// Frame assembly under the `diff` stage stamp: everything between
    /// paint and encode (band diffing, patch extraction, or the
    /// keyframe pixel copy) is attributed to `serve.stage_us.diff`.
    fn ship_frame(&mut self, ft: &mut FrameTrace) -> ServerFrame {
        ft.enter(Stage::Diff);
        let frame = self.assemble_frame();
        ft.exit();
        frame
    }

    /// Diffs the current framebuffer against the last shipped one and
    /// picks the cheaper shipping shape: an empty-rect acknowledgement
    /// when nothing changed (no snapshot clone, no pixel payload),
    /// changed bands, or a keyframe when the diff blows the dirty-byte
    /// budget, the keyframe cadence is due (always, at
    /// `keyframe_every: 0`), or the window resized.
    fn assemble_frame(&mut self) -> ServerFrame {
        if self.frames_since_key >= self.cfg.keyframe_every {
            return self.keyframe();
        }
        // Diff against a *borrow* of the backend framebuffer when the
        // window offers one — a no-change batch then costs one compare
        // and zero clones. Backends without `with_frame` fall back to
        // the snapshot clone.
        let shipped = &self.shipped;
        let budget = self.cfg.dirty_budget_bytes;
        let mut plan = None;
        let borrowed = self.im.window_mut().with_frame(&mut |cur| {
            plan = Some(plan_update(shipped.as_ref(), cur, budget));
        });
        let plan = if borrowed {
            plan.expect("with_frame ran the closure")
        } else {
            let cur = self.current_fb();
            plan_update(self.shipped.as_ref(), &cur, budget)
        };
        match plan {
            Plan::Keyframe => self.keyframe(),
            Plan::Unchanged => {
                // Nothing changed on screen: ship a 13-byte empty
                // update so pipelined clients still see one frame per
                // batch, but leave the diff baseline and keyframe
                // cadence alone.
                self.collector.count("serve.frames", 1);
                self.collector.count("serve.frames_unchanged", 1);
                ServerFrame::Update {
                    seq: self.seq,
                    rects: Vec::new(),
                }
            }
            Plan::Update(cur, rects) => {
                let frame = ServerFrame::Update {
                    seq: self.seq,
                    rects,
                };
                self.shipped = Some(cur);
                self.frames_since_key += 1;
                self.collector.count("serve.frames", 1);
                self.collector
                    .count("serve.diff_bytes", frame.wire_len() as u64);
                frame
            }
        }
    }

    /// Encodes a frame for the wire, letting pixel frames pick the
    /// smaller of their raw and RLE bodies (unless
    /// [`SessionConfig::encode`] pinned raw), and counts the choice plus the bytes that
    /// actually ship.
    pub fn encode_frame(&self, frame: &ServerFrame) -> Vec<u8> {
        let (bytes, encoding) = if self.cfg.encode {
            frame.encode_packed()
        } else {
            (frame.encode(), Encoding::Raw)
        };
        if matches!(
            frame,
            ServerFrame::Update { .. } | ServerFrame::Keyframe { .. }
        ) {
            self.collector.count(
                match encoding {
                    Encoding::Raw => "serve.encode.raw",
                    Encoding::Rle => "serve.encode.rle",
                },
                1,
            );
            self.collector
                .count("serve.encoded_bytes", bytes.len() as u64);
        }
        bytes
    }
}

/// What [`HostedSession::assemble_frame`] decided while holding the
/// backend framebuffer borrow.
enum Plan {
    /// Byte-identical to the shipped baseline — nothing to send.
    Unchanged,
    /// Resize or blown budget — send everything.
    Keyframe,
    /// Changed bands: the new baseline clone plus its patch rects.
    Update(Framebuffer, Vec<PatchRect>),
}

/// Diff-or-degrade decision against the shipped baseline. `budget` is
/// the dirty-byte ceiling; the estimate below is exactly the update
/// frame's wire length (13-byte header, 16 bytes per rect header,
/// 4 bytes per pixel), so the stats plane and the budget agree.
fn plan_update(shipped: Option<&Framebuffer>, cur: &Framebuffer, budget: usize) -> Plan {
    let diff = match shipped.and_then(|prev| prev.diff_region(cur)) {
        Some(region) => region,
        // Size changed (resize) — no diff across that. Same when no
        // baseline exists yet.
        None => return Plan::Keyframe,
    };
    if diff.is_empty() {
        return Plan::Unchanged;
    }
    let payload = 13 + diff.area() as usize * 4 + diff.rects().len() * 16;
    let key_payload = 17 + cur.pixels().len() * 4;
    if payload > budget.min(key_payload) {
        return Plan::Keyframe;
    }
    let rects = diff
        .rects()
        .iter()
        .map(|&r| {
            let mut pixels = Vec::with_capacity((r.width * r.height) as usize);
            for y in r.y..r.bottom() {
                let row = y as usize * cur.width() as usize;
                pixels
                    .extend_from_slice(&cur.pixels()[row + r.x as usize..row + r.right() as usize]);
            }
            PatchRect { rect: r, pixels }
        })
        .collect();
    Plan::Update(cur.clone(), rects)
}

/// Collapses runs of consecutive pointer movements down to the last
/// one. Everything else — clicks, keys, ticks, resizes — passes through
/// untouched and in order.
fn coalesce(batch: &[ScriptStep]) -> Vec<&ScriptStep> {
    let mut out: Vec<&ScriptStep> = Vec::with_capacity(batch.len());
    for step in batch {
        let is_move = matches!(
            step,
            ScriptStep::Event(WindowEvent::Mouse {
                action: MouseAction::Movement,
                ..
            })
        );
        if is_move {
            if let Some(last) = out.last() {
                if matches!(
                    last,
                    ScriptStep::Event(WindowEvent::Mouse {
                        action: MouseAction::Movement,
                        ..
                    })
                ) {
                    *out.last_mut().unwrap() = step;
                    continue;
                }
            }
        }
        out.push(step);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atk_graphics::Point;
    use atk_wm::WindowEvent;

    fn mv(x: i32, y: i32) -> ScriptStep {
        ScriptStep::Event(WindowEvent::Mouse {
            action: MouseAction::Movement,
            pos: Point::new(x, y),
        })
    }

    #[test]
    fn coalescer_keeps_last_of_a_movement_run() {
        let batch = vec![
            mv(1, 1),
            mv(2, 2),
            mv(3, 3),
            ScriptStep::Event(WindowEvent::ch('a')),
            mv(4, 4),
            ScriptStep::Event(WindowEvent::Tick(5)),
            ScriptStep::Event(WindowEvent::Tick(5)),
            mv(5, 5),
            mv(6, 6),
        ];
        let kept = coalesce(&batch);
        assert_eq!(kept.len(), 6);
        assert_eq!(kept[0], &mv(3, 3));
        assert_eq!(kept[2], &mv(4, 4));
        // Ticks are never merged (timer reschedule semantics).
        assert_eq!(kept[3], &ScriptStep::Event(WindowEvent::Tick(5)));
        assert_eq!(kept[4], &ScriptStep::Event(WindowEvent::Tick(5)));
        assert_eq!(kept[5], &mv(6, 6));
    }

    #[test]
    fn typing_ships_diffs_and_budget_degrades_to_keyframe() {
        let collector = Arc::new(Collector::new());
        collector.enable();
        let mut s =
            HostedSession::open("fig5", SessionConfig::default(), collector.clone()).unwrap();
        let _ = s.initial_keyframe();
        // Focus a text view first — keys land nowhere without it.
        let _ = s.apply_batch(
            &[
                ScriptStep::Event(WindowEvent::left_down(70, 70)),
                ScriptStep::Event(WindowEvent::left_up(70, 70)),
            ],
            0,
        );
        let (frame, end) = s.apply_batch(&[ScriptStep::Event(WindowEvent::ch('x'))], 0);
        match &frame {
            ServerFrame::Update { rects, .. } => assert!(!rects.is_empty()),
            other => panic!("typing shipped {other:?}"),
        }
        assert_eq!(end, None);
        // A scripted resize relayouts the view tree but the backend
        // framebuffer keeps its size (matching the in-process
        // reference); the session still ships a frame and counts it.
        let (frame, _) = s.apply_batch(
            &[ScriptStep::Event(WindowEvent::Resize(
                atk_graphics::Size::new(400, 300),
            ))],
            0,
        );
        assert!(matches!(
            frame,
            ServerFrame::Update { seq: 4, .. } | ServerFrame::Keyframe { seq: 4, .. }
        ));
        assert_eq!(s.seq(), 4);

        // A one-byte dirty budget degrades every nonempty diff to a
        // keyframe.
        let cfg = SessionConfig {
            dirty_budget_bytes: 1,
            ..SessionConfig::default()
        };
        let collector = Arc::new(Collector::new());
        let mut s = HostedSession::open("fig5", cfg, collector).unwrap();
        let _ = s.initial_keyframe();
        let _ = s.apply_batch(
            &[
                ScriptStep::Event(WindowEvent::left_down(70, 70)),
                ScriptStep::Event(WindowEvent::left_up(70, 70)),
            ],
            0,
        );
        let (frame, _) = s.apply_batch(&[ScriptStep::Event(WindowEvent::ch('x'))], 0);
        assert!(matches!(frame, ServerFrame::Keyframe { .. }), "{frame:?}");
    }

    #[test]
    fn keyframe_cadence_and_ablation_force_full_frames() {
        let collector = Arc::new(Collector::new());
        let cfg = SessionConfig {
            keyframe_every: 2,
            ..SessionConfig::default()
        };
        let mut s = HostedSession::open("fig5", cfg, collector.clone()).unwrap();
        let _ = s.initial_keyframe();
        // Focus a text view so every typed character really changes
        // pixels — only *shipped pixel* frames advance the cadence.
        let _ = s.apply_batch(
            &[
                ScriptStep::Event(WindowEvent::left_down(70, 70)),
                ScriptStep::Event(WindowEvent::left_up(70, 70)),
            ],
            0,
        );
        let mut kinds = Vec::new();
        for c in ['a', 'b', 'c', 'd', 'e'] {
            let (frame, _) = s.apply_batch(&[ScriptStep::Event(WindowEvent::ch(c))], 0);
            kinds.push(matches!(frame, ServerFrame::Keyframe { .. }));
        }
        // The click shipped one update, so the second typed character
        // hits `keyframe_every: 2`; the cadence then restarts.
        assert!(
            kinds.iter().any(|&k| k),
            "cadence keyframe never fired: {kinds:?}"
        );

        // `keyframe_every: 0` is the always-keyframe baseline: every
        // batch ships a keyframe, even one that changed no pixel.
        let cfg = SessionConfig {
            keyframe_every: 0,
            ..SessionConfig::default()
        };
        let mut s = HostedSession::open("fig1", cfg, collector).unwrap();
        let _ = s.initial_keyframe();
        for _ in 0..2 {
            let (frame, _) = s.apply_batch(&[ScriptStep::Event(WindowEvent::Tick(1))], 0);
            assert!(matches!(frame, ServerFrame::Keyframe { .. }), "{frame:?}");
        }
    }

    #[test]
    fn tick_only_batch_ships_no_pixel_payload() {
        let collector = Arc::new(Collector::new());
        collector.enable();
        let mut s =
            HostedSession::open("fig1", SessionConfig::default(), collector.clone()).unwrap();
        let _ = s.initial_keyframe();
        // fig1 has no animation: a pure clock tick leaves the screen
        // byte-identical, so the session must ship an *empty* update
        // (13-byte ack), not re-clone and re-ship anything.
        let (frame, end) = s.apply_batch(&[ScriptStep::Event(WindowEvent::Tick(5))], 0);
        match &frame {
            ServerFrame::Update { rects, .. } => assert!(rects.is_empty(), "{rects:?}"),
            other => panic!("no-change batch shipped {other:?}"),
        }
        assert_eq!(frame.wire_len(), 13);
        assert_eq!(end, None);
        let snap = collector.snapshot();
        assert_eq!(snap.counter("serve.frames_unchanged"), 1);
        // The ack never becomes the diff baseline, so real input later
        // still diffs against the last *pixel* frame.
        let (frame, _) = s.apply_batch(&[ScriptStep::Event(WindowEvent::Tick(5))], 0);
        assert!(matches!(frame, ServerFrame::Update { ref rects, .. } if rects.is_empty()));
    }

    #[test]
    fn dirty_budget_estimate_matches_wire_len() {
        let collector = Arc::new(Collector::new());
        let mut s = HostedSession::open("fig5", SessionConfig::default(), collector).unwrap();
        let _ = s.initial_keyframe();
        let _ = s.apply_batch(
            &[
                ScriptStep::Event(WindowEvent::left_down(70, 70)),
                ScriptStep::Event(WindowEvent::left_up(70, 70)),
            ],
            0,
        );
        let (frame, _) = s.apply_batch(&[ScriptStep::Event(WindowEvent::ch('x'))], 0);
        let ServerFrame::Update { rects, .. } = &frame else {
            panic!("typing shipped {frame:?}");
        };
        assert!(!rects.is_empty());
        // The budget estimate must be the actual wire length: 13-byte
        // header + 16 bytes per rect header + 4 bytes per pixel.
        let estimate: usize = 13 + rects.iter().map(|p| p.pixels.len() * 4 + 16).sum::<usize>();
        assert_eq!(estimate, frame.wire_len());
    }

    #[test]
    fn menu_select_replays_at_recorded_position() {
        // Two sessions replay the same recorded menu selection, but the
        // preceding `menu request` carried different positions. The
        // select replay re-pops the menu, and it must land where the
        // request was recorded — before the fix both popped at the
        // origin and the replays were pixel-identical.
        let run = |pos: atk_graphics::Point| -> Vec<u32> {
            let collector = Arc::new(Collector::new());
            let mut s =
                HostedSession::open("fig3_messages_reading", SessionConfig::default(), collector)
                    .unwrap();
            let _ = s.initial_keyframe();
            let _ = s.apply_batch(&[ScriptStep::Event(WindowEvent::MenuRequest { pos })], 0);
            let label =
                s.im.offered_menus()
                    .first()
                    .map(|m| format!("{}/{}", m.card, m.label))
                    .expect("fig3 offers menus");
            let _ = s.apply_batch(&[ScriptStep::MenuSelect(label)], 0);
            s.current_fb().pixels().to_vec()
        };
        let origin = run(atk_graphics::Point::ORIGIN);
        let offset = run(atk_graphics::Point::new(300, 220));
        assert_ne!(
            origin, offset,
            "menu select replay ignored the recorded request position"
        );
    }

    #[test]
    fn idle_eviction_runs_on_the_virtual_clock() {
        let collector = Arc::new(Collector::new());
        let cfg = SessionConfig {
            idle_ms: Some(1000),
            ..SessionConfig::default()
        };
        let mut s = HostedSession::open("fig1", cfg, collector).unwrap();
        let _ = s.initial_keyframe();
        let (_, end) = s.apply_batch(&[ScriptStep::Event(WindowEvent::Tick(400))], 0);
        assert_eq!(end, None);
        // Real input resets the horizon.
        let (_, end) = s.apply_batch(&[ScriptStep::Event(WindowEvent::ch('a'))], 0);
        assert_eq!(end, None);
        let (_, end) = s.apply_batch(&[ScriptStep::Event(WindowEvent::Tick(999))], 0);
        assert_eq!(end, None);
        let (_, end) = s.apply_batch(&[ScriptStep::Event(WindowEvent::Tick(1))], 0);
        assert_eq!(end, Some(SessionEnd::Idle));
    }
}
