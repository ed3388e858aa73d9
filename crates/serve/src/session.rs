//! One hosted session: a `World` + `InteractionManager` pair living in
//! its connection's thread, fed batches of script steps and producing
//! one shipped frame per batch.
//!
//! Every step, private or replicated, goes through [`StepDriver::apply`],
//! the one definition of a step the in-process reference
//! (`atk_check::Session`) uses too: dispatch, settle, paint. A drained
//! burst applies its steps one by one and ships **one** frame: one diff
//! against the shipped baseline, one encode, one send. So a session's
//! world and pixels are a function of its steps alone, never of how the
//! transport chunked them.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use atk_apps::scenes::build_scene;
use atk_collab::{Attachment, LogFull, Op};
use atk_core::{InteractionManager, ScriptStep, StepDriver, World};
use atk_graphics::{band_copies, Framebuffer, Move};
use atk_trace::{Collector, FrameRecord, FrameTrace, SlowFrameLog, Stage};
use atk_wm::{WindowEvent, Written};

use crate::wire::{Encoding, ServerFrame, XorRect, MOVE_BYTES};

/// An update whose encoded body passes this many bytes is weighed
/// against the packed keyframe of the same screen, and ships as that
/// keyframe when it is no smaller. Typing updates stay far below it, so
/// they never pay for the keyframe encode.
const KEYFRAME_PROBE_BYTES: usize = 16 * 1024;

/// Per-session tuning; the server clones one of these per connection.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Most steps consumed per batch; a drained burst beyond this drops
    /// the oldest steps (`serve.backpressure_drops`).
    pub queue_cap: usize,
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
    /// Window-system backend the session's scene is built on:
    /// `x11sim` (pixel framebuffer) or `awmsim` (display list, replayed
    /// to pixels as each frame is lent).
    pub backend: String,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            queue_cap: 256,
            idle_ms: None,
            frame_trace: true,
            slo_us: None,
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
    /// The frame the client holds: the last one shipped, the diff
    /// baseline. It shares its bands with the screen it was snapshotted
    /// from (and, for a session that adopted a template's cached first
    /// keyframe, with that cache entry); updates bring it along in
    /// place as they encode, copying a shared band once.
    shipped: Option<Arc<Framebuffer>>,
    seq: u64,
    last_input_ms: u64,
    /// Server-assigned id, stamped into slow-frame dumps.
    session_id: u64,
    /// Shared sink for SLO-violation dumps, if the server set one.
    slow_log: Option<Arc<SlowFrameLog>>,
    /// Script line of the last step in the current batch (captured
    /// only while the SLO watchdog is armed).
    last_trigger: Option<String>,
    /// Step semantics shared with the in-process reference
    /// (`atk_check::Session::apply`).
    driver: StepDriver,
    /// The shared-document attachment (its read offset into the log is
    /// the seq of the newest op this replica applied), when this
    /// session opened via `Attach` instead of `Hello`. Dropping it
    /// unsubscribes, on every exit path.
    collab: Option<Attachment>,
    /// The keyframe packed ahead of its send — a probe's win, a
    /// template-cache hit the shard put here, or the last keyframe
    /// encoded — whose bytes [`HostedSession::encode_frame`] ships
    /// rather than packing the frame again. Each frame's assembly
    /// empties it.
    pub(crate) packed: Option<SharedKeyframe>,
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
    /// [`TemplateRegistry`] is supplied (as every served session is),
    /// building the scene from scratch otherwise (the in-process cold
    /// reference). Either way the session gets its *own* collector
    /// after the scene exists, so a forked session's counters are
    /// identical to a cold session's — template builds and fork costs
    /// count on the registry's collector instead.
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
        Ok(HostedSession {
            world,
            im: scene.im,
            cfg,
            collector,
            shipped: None,
            seq: 0,
            last_input_ms,
            session_id: 0,
            slow_log: None,
            last_trigger: None,
            driver: StepDriver::default(),
            collab: None,
            packed: None,
        })
    }

    /// Builds a *replica* of a shared document: opens the document's
    /// scene, then replays the attachment's first drain (the whole log
    /// so far) so the replica stands at the log head. The backlog size
    /// is observed into `serve.collab.replay_lag` — a fresh replica of
    /// a long-lived document starts that far behind.
    pub fn open_replica(
        mut attachment: Attachment,
        cfg: SessionConfig,
        collector: Arc<Collector>,
        templates: Option<&mut atk_apps::TemplateRegistry>,
    ) -> Result<HostedSession, String> {
        let scene = attachment.doc().scene().to_string();
        let mut session = HostedSession::open_with(&scene, cfg, collector, templates)?;
        let backlog = attachment.drain();
        session
            .collector
            .observe("serve.collab.replay_lag", backlog.len() as u64);
        session.collab = Some(attachment);
        let steps: Vec<ScriptStep> = backlog.into_iter().map(|op| op.step).collect();
        session.replay_steps(&steps);
        // A replayed backlog may tick the clock well past the idle
        // horizon; a replica is not idle at birth.
        session.last_input_ms = session.world.now_ms();
        Ok(session)
    }

    /// True when this session is a replica of a shared document.
    pub fn is_attached(&self) -> bool {
        self.collab.is_some()
    }

    /// Serializes a batch of this replica's own edits through the
    /// document's log. Nothing is applied here — every edit comes back
    /// through [`HostedSession::drain_ops`] in log order, so all
    /// replicas (the author included) apply the one total order.
    /// `dropped` steps never reached the log, but they still advance
    /// `seq` so the client's accounting stays truthful. Counts
    /// `serve.collab.ops` and observes each op's append plus doorbell
    /// rings into `serve.collab.fanout_us`.
    ///
    /// # Errors
    ///
    /// [`LogFull`] once the document's log holds
    /// [`atk_collab::MAX_LOG_OPS`] ops; the steps from the refused one
    /// on are not submitted.
    pub fn submit_batch(&mut self, batch: &[ScriptStep], dropped: u64) -> Result<(), LogFull> {
        self.seq += dropped;
        let Some(attachment) = self.collab.as_ref() else {
            return Ok(());
        };
        let doc = attachment.doc();
        for (n, step) in batch.iter().enumerate() {
            let started = Instant::now();
            if let Err(full) = doc.submit(self.session_id, step.clone()) {
                self.collector.count("serve.collab.ops", n as u64);
                return Err(full);
            }
            self.collector.observe(
                "serve.collab.fanout_us",
                started.elapsed().as_micros() as u64,
            );
        }
        self.collector.count("serve.collab.ops", batch.len() as u64);
        Ok(())
    }

    /// Every op appended to the document's log since this replica's
    /// last drain.
    pub fn drain_ops(&mut self) -> Vec<Op> {
        self.collab
            .as_mut()
            .map_or_else(Vec::new, Attachment::drain)
    }

    /// [`HostedSession::apply_ops_traced`] owning its own attribution.
    pub fn apply_ops(&mut self, ops: &[Op]) -> (ServerFrame, Option<SessionEnd>) {
        let mut ft = self.begin_frame();
        let out = self.apply_ops_traced(ops, &mut ft);
        let _ = self.finish_frame(ft);
        out
    }

    /// Applies a drained run of shared-document ops and returns the
    /// frame to ship. Ops apply one at a time through the step driver,
    /// so a replica's world, counters, and pixels are a pure function
    /// of the log prefix, independent of how transport drains or shard
    /// scheduling chunked the ops. Each op's apply, settle and paint
    /// land in their own stages; the one shipped frame diffs the
    /// cumulative change.
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
        self.seq += ops.iter().filter(|op| op.author == self.session_id).count() as u64;
        if let Some(attachment) = &self.collab {
            let lag = attachment.doc().head().saturating_sub(attachment.offset());
            self.collector.observe("serve.collab.replay_lag", lag);
        }
        self.run_steps(ops.iter().map(|op| &op.step), ft)
    }

    /// Applies plain steps through the step driver with no frame
    /// assembly. This is how the collab oracle's in-process reference
    /// replays the merged interleaving: the same per-op funnel the
    /// replicas run, minus the wire.
    pub fn replay_steps(&mut self, steps: &[ScriptStep]) {
        let ft = &mut FrameTrace::disabled();
        for step in steps {
            self.driver.apply(&mut self.im, &mut self.world, step, ft);
        }
    }

    /// The one step loop of a shipped frame: each step through the step
    /// driver, the script line of the last one kept for slow-frame dumps
    /// (while the SLO watchdog is armed and the frame traced), the idle
    /// horizon refreshed by any real input, and the frame shipped.
    fn run_steps<'a>(
        &mut self,
        steps: impl Iterator<Item = &'a ScriptStep>,
        ft: &mut FrameTrace,
    ) -> (ServerFrame, Option<SessionEnd>) {
        let (started, copies) = (Instant::now(), band_copies());
        let (mut last, mut real_input) = (None, false);
        for step in steps {
            self.driver.apply(&mut self.im, &mut self.world, step, ft);
            real_input |= is_real_input(step);
            last = Some(step);
        }
        if self.cfg.slo_us.is_some() && ft.is_enabled() {
            self.last_trigger = last.map(|s| s.to_line().unwrap_or_else(|| format!("{s:?}")));
        }
        if real_input {
            self.last_input_ms = self.world.now_ms();
        }
        self.close_frame(ft, started, copies)
    }

    /// A snapshot of the current backend framebuffer (the oracle's
    /// ground truth for comparisons).
    pub fn framebuffer(&self) -> Framebuffer {
        self.im.window().snapshot()
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
    /// `serve.stage_us.*` histograms and — when the SLO watchdog is
    /// armed and the frame blew its budget — dumps the full breakdown
    /// plus the triggering step line to the slow-frame log. Returns the
    /// frame's record (`None` for an untraced frame).
    pub fn finish_frame(&mut self, ft: FrameTrace) -> Option<FrameRecord> {
        let rec = ft.finish(self.seq)?;
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
        Some(rec)
    }

    /// Applies one batch of steps, each through the step driver, and
    /// returns the one frame to ship plus whether the session must end.
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
        let _ = self.finish_frame(ft);
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
        self.seq += batch.len() as u64 + dropped;
        self.run_steps(batch.iter(), ft)
    }

    /// Ships the frame of a run of input that began at `started`, when
    /// this thread had copied `copies` bands, and counts the frame's
    /// time and the bands its drawing and diff copied
    /// (`serve.band_copies`: the screen's and the baseline's bands
    /// that another frame still shared).
    fn close_frame(
        &mut self,
        ft: &mut FrameTrace,
        started: Instant,
        copies: u64,
    ) -> (ServerFrame, Option<SessionEnd>) {
        let frame = self.ship_frame(ft);
        self.collector
            .observe("serve.frame_us", started.elapsed().as_micros() as u64);
        self.collector
            .count("serve.band_copies", band_copies() - copies);
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

    /// A keyframe of the current screen: a snapshot sharing the backend
    /// framebuffer's bands, which the shipped frame and the new diff
    /// baseline share in turn, or — for a session's first keyframe,
    /// when a template-cache hit filled the packed slot — the slot's
    /// frame, which the forked screen equals. No pixel is copied here;
    /// a band is copied when the screen or the baseline next writes it.
    fn keyframe(&mut self) -> ServerFrame {
        let fb = match &self.packed {
            Some(key) if self.shipped.is_none() => Arc::clone(&key.frame),
            _ => Arc::new(self.framebuffer()),
        };
        self.ship_keyframe(fb)
    }

    /// Makes `fb` — equal to the screen — the diff baseline and wraps
    /// it as the keyframe to ship. The window's written record restarts
    /// empty: nothing differs from the new baseline yet.
    fn ship_keyframe(&mut self, fb: Arc<Framebuffer>) -> ServerFrame {
        let _ = self.im.window_mut().take_written();
        self.shipped = Some(Arc::clone(&fb));
        let frame = ServerFrame::Keyframe {
            seq: self.seq,
            frame: fb,
        };
        self.collector.count("serve.frames", 1);
        self.collector
            .count("serve.full_bytes", frame.wire_len() as u64);
        frame
    }

    /// Frame assembly under the `diff` stage stamp: everything between
    /// paint and the wire (the bounds scan and the update's one-pass
    /// encode, or the keyframe snapshot) is attributed to
    /// `serve.stage_us.diff`.
    fn ship_frame(&mut self, ft: &mut FrameTrace) -> ServerFrame {
        ft.enter(Stage::Diff);
        let frame = self.assemble_frame();
        ft.exit();
        frame
    }

    /// Diffs the current framebuffer against the last shipped one and
    /// picks the shipping shape: an empty ack when nothing changed (no
    /// snapshot clone, no pixel payload), the window's move and the
    /// changed blocks XORed against the moved baseline, or a keyframe
    /// when there is no baseline, the window resized, or the update
    /// would outweigh a keyframe: its encoded body passes a raw
    /// keyframe, or (past [`KEYFRAME_PROBE_BYTES`]) the packed one. The
    /// client holds the baseline over an ordered, lossless transport,
    /// so no other frame needs a keyframe.
    fn assemble_frame(&mut self) -> ServerFrame {
        self.packed = None;
        // The baseline, moved as the screen was, differs from the
        // screen only inside the written band boxes. Taking them clears
        // it, and every plan below leaves the baseline equal to the
        // screen again.
        let written = self.im.window_mut().take_written();
        // Diff against a *borrow* of the backend framebuffer — a
        // no-change batch then costs one compare and zero clones.
        let shipped = &mut self.shipped;
        let collector = &self.collector;
        let mut plan = None;
        self.im.window().with_frame(&mut |cur| {
            plan = plan_update(shipped, cur, &written, collector);
        });
        let Some((moved, rects)) = plan else {
            return self.keyframe();
        };
        let changed = moved.is_some() || !rects.is_empty();
        let frame = ServerFrame::Update {
            seq: self.seq,
            moved,
            rects,
        };
        if frame.wire_len() > KEYFRAME_PROBE_BYTES {
            self.collector.count("serve.keyframe_probes", 1);
            let fb = Arc::new(self.framebuffer());
            let key = SharedKeyframe::pack(self.seq, Arc::clone(&fb));
            if key.bytes.len() <= frame.wire_len() {
                self.collector.count("serve.keyframe_probe_wins", 1);
                self.packed = Some(key);
                return self.ship_keyframe(fb);
            }
        }
        self.collector.count("serve.frames", 1);
        if let Some(m) = moved {
            self.collector.count("serve.moves", 1);
            self.collector.count("serve.moved_px", m.src.area() as u64);
        }
        if changed {
            self.collector
                .count("serve.diff_bytes", frame.wire_len() as u64);
        } else {
            // Nothing changed on screen: a 13-byte empty update, so
            // pipelined clients still see one frame per batch.
            self.collector.count("serve.frames_unchanged", 1);
        }
        frame
    }

    /// Encodes a frame for the wire, letting a keyframe ship the
    /// smaller of its raw and RLE bodies, and counts the choice plus
    /// the bytes that actually ship.
    pub fn encode_frame(&mut self, frame: &ServerFrame) -> Vec<u8> {
        self.wire_bytes(frame).into_owned()
    }

    /// [`HostedSession::encode_frame`], borrowing a keyframe's bytes
    /// from the packed slot: the slot's own frame ships the bytes packed
    /// ahead, and any other keyframe is packed into the slot first (a
    /// template's first keyframe reaches the cache from there).
    pub(crate) fn wire_bytes(&mut self, frame: &ServerFrame) -> Cow<'_, [u8]> {
        let (bytes, encoding) = match frame {
            ServerFrame::Keyframe { seq, frame: fb } => {
                let key = match self.packed.take() {
                    Some(key) if Arc::ptr_eq(&key.frame, fb) => key,
                    _ => SharedKeyframe::pack(*seq, Arc::clone(fb)),
                };
                let key = self.packed.insert(key);
                (Cow::Borrowed(&*key.bytes), key.encoding)
            }
            _ => {
                let (bytes, encoding) = frame.encode_packed();
                (Cow::Owned(bytes), encoding)
            }
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

/// A keyframe packed once: the frame and the wire bytes it ships as.
/// A session keeps the one it packed ahead of its send in its packed
/// slot; a shard's template cache keeps each template's first keyframe
/// this way, its bytes shipped to every session forked from the
/// template, which share the frame as their diff baseline until their
/// first update.
#[derive(Clone)]
pub(crate) struct SharedKeyframe {
    /// The frame the bytes carry.
    frame: Arc<Framebuffer>,
    /// The encoded body, exactly as it ships.
    bytes: Arc<[u8]>,
    /// The body encoding the bytes use.
    encoding: Encoding,
}

impl SharedKeyframe {
    /// Packs `frame` as the keyframe of sequence number `seq`.
    fn pack(seq: u64, frame: Arc<Framebuffer>) -> SharedKeyframe {
        let (bytes, encoding) = ServerFrame::Keyframe {
            seq,
            frame: Arc::clone(&frame),
        }
        .encode_packed();
        SharedKeyframe {
            frame,
            bytes: bytes.into(),
            encoding,
        }
    }
}

/// Diff-or-degrade decision against the shipped baseline: makes the
/// window's move on the baseline, then compares only the written band
/// boxes, counting the pixels compared in `serve.diff_px`. Returns the
/// move and the rects of an update, one per block of changed bands,
/// which have brought the baseline up to `cur` (`None` and none when
/// nothing changed), or `None` for a keyframe — after a resize, with
/// no baseline yet, or when the update frame would pass a raw
/// keyframe.
fn plan_update(
    shipped: &mut Option<Arc<Framebuffer>>,
    cur: &Framebuffer,
    written: &Written,
    collector: &Collector,
) -> Option<(Option<Move>, Vec<XorRect>)> {
    let base = shipped.as_mut()?;
    // No diff across a size change (resize).
    if base.bounds() != cur.bounds() || written.moved.is_some_and(|m| !m.fits(cur.bounds())) {
        return None;
    }
    // A baseline still shared with the keyframe cache or the screen
    // shares its bands: the move and the encode copy only those they
    // write.
    if let Some(m) = written.moved {
        Arc::make_mut(base).apply_move(m);
    }
    let changed = base.changed_boxes(cur, written)?;
    collector.count("serve.diff_px", written.area());
    if changed.is_empty() {
        return Some((written.moved, Vec::new()));
    }
    let base = Arc::make_mut(base);
    let key_payload = 17 + cur.width() as usize * cur.height() as usize * 4;
    // The move ships in the same frame, so it counts against the limit.
    let limit = key_payload.saturating_sub(written.moved.map_or(0, |_| MOVE_BYTES));
    let rects = XorRect::encode_boxes(base, cur, changed, limit)?;
    Some((written.moved, rects))
}

/// Whether `step` is input that resets the idle horizon: anything but
/// a clock tick.
fn is_real_input(step: &ScriptStep) -> bool {
    !matches!(step, ScriptStep::Event(WindowEvent::Tick(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atk_graphics::Size;
    use atk_wm::WindowEvent;

    /// Applies `step` and returns the frame it ships.
    fn ship(s: &mut HostedSession, step: &ScriptStep) -> ServerFrame {
        s.apply_batch(std::slice::from_ref(step), 0).0
    }

    /// fig3 resized smaller, then back: the first resize ships as an
    /// update, the second as the keyframe its probe packed.
    fn shrink_then_restore() -> [ScriptStep; 2] {
        [Size::new(400, 300), Size::new(560, 560)]
            .map(|s| ScriptStep::Event(WindowEvent::Resize(s)))
    }

    #[test]
    fn typing_ships_diffs_and_a_restored_size_ships_a_keyframe() {
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

        // An update that outweighs the packed keyframe of its screen
        // ships as that keyframe, which becomes the baseline.
        let collector = Arc::new(Collector::new());
        collector.enable();
        let mut s =
            HostedSession::open("fig3", SessionConfig::default(), collector.clone()).unwrap();
        let _ = s.initial_keyframe();
        let [shrink, restore] = shrink_then_restore();
        assert!(matches!(ship(&mut s, &shrink), ServerFrame::Update { .. }));
        let frame = ship(&mut s, &restore);
        let ServerFrame::Keyframe { frame: key, .. } = &frame else {
            panic!("the restore shipped {frame:?}");
        };
        assert!(key.same_pixels(&s.framebuffer()));
        let baseline = s.shipped.as_deref().expect("a baseline");
        assert!(baseline.same_pixels(&s.framebuffer()));
        // The bytes the probe packed are the ones that ship.
        let packed = s.packed.as_ref().map(|k| Arc::clone(&k.bytes));
        assert_eq!(s.encode_frame(&frame), *packed.expect("a packed keyframe"));
        assert_eq!(collector.snapshot().counter("serve.keyframe_probe_wins"), 1);
    }

    /// The focus click a typing session opens with repaints the lines
    /// of the old and the new caret, so the diff compares a strip, not
    /// the window: it compared 298 116 of fig5's 313 600 px while a
    /// text view damaged itself whole on every caret or focus change.
    #[test]
    fn a_focus_click_diffs_the_caret_lines_only() {
        let collector = Arc::new(Collector::new());
        collector.enable();
        let mut s =
            HostedSession::open("fig5", SessionConfig::default(), collector.clone()).unwrap();
        let _ = s.initial_keyframe();
        let (w, h) = s.size();
        let click = WindowEvent::left_down(w as i32 / 8, h as i32 / 8);
        let (frame, _) = s.apply_batch(&[ScriptStep::Event(click)], 0);
        assert!(matches!(&frame, ServerFrame::Update { rects, .. } if !rects.is_empty()));
        let px = collector.snapshot().counter("serve.diff_px");
        assert!(px > 0 && px <= 33_000, "the click compared {px} px");
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
        assert!(matches!(&frame, ServerFrame::Update { rects, .. } if rects.is_empty()));
    }

    /// What one backend shipped for a run of steps.
    struct Shipped {
        /// Updates that changed pixels.
        updates: usize,
        /// Keyframes after the initial one.
        keyframes: usize,
        /// Updates that carried a move.
        moves: usize,
    }

    /// Ships `steps` one frame each on a fresh `scene` session on each
    /// backend and checks, after every shipped frame, that the diff
    /// baseline brought along in place equals the screen, that a client
    /// applying the frames holds the screen too, that both backends
    /// show the same screen, and that no update is longer than the
    /// packed keyframe of its screen. Returns what each backend
    /// shipped, x11sim first.
    fn baseline_tracks_screen(scene: &str, steps: &[ScriptStep]) -> [Shipped; 2] {
        let open = |backend: &str| {
            let cfg = SessionConfig {
                backend: backend.to_string(),
                ..SessionConfig::default()
            };
            let mut s = HostedSession::open(scene, cfg, Arc::new(Collector::new())).unwrap();
            let ServerFrame::Keyframe { frame, .. } = s.initial_keyframe() else {
                unreachable!("the initial frame is a keyframe");
            };
            (s, (*frame).clone())
        };
        let mut runs = [open("x11sim"), open("awmsim")];
        let mut shipped = [0, 1].map(|_| Shipped {
            updates: 0,
            keyframes: 0,
            moves: 0,
        });
        for (i, step) in steps.iter().enumerate() {
            for ((s, client), out) in runs.iter_mut().zip(&mut shipped) {
                let frame = ship(s, step);
                let screen = s.framebuffer();
                let backend = s.cfg.backend.clone();
                match &frame {
                    ServerFrame::Update { moved, rects, .. } => {
                        let key = ServerFrame::Keyframe {
                            seq: 0,
                            frame: Arc::new(screen.clone()),
                        };
                        let (len, key_len) = (frame.wire_len(), key.encode_packed().0.len());
                        assert!(
                            len <= key_len,
                            "{backend} step {i} ({step:?}): a {len}-byte update \
                             outgrew the {key_len}-byte keyframe"
                        );
                        crate::wire::apply_update(client, *moved, rects).unwrap();
                        out.updates += usize::from(!rects.is_empty() || moved.is_some());
                        out.moves += usize::from(moved.is_some());
                    }
                    ServerFrame::Keyframe { frame, .. } => {
                        *client = (**frame).clone();
                        out.keyframes += 1;
                    }
                    other => panic!("{backend} shipped {other:?}"),
                }
                let baseline = s.shipped.as_deref().expect("a baseline after every frame");
                assert!(
                    baseline.same_pixels(&screen),
                    "{backend} step {i} ({step:?}): baseline differs from the screen"
                );
                assert!(
                    client.same_pixels(&screen),
                    "{backend} step {i} ({step:?}): the client's frame differs"
                );
            }
            let [(x11, _), (awm, _)] = &runs;
            assert!(
                x11.framebuffer().same_pixels(&awm.framebuffer()),
                "step {i} ({step:?}): the backends show different screens"
            );
        }
        shipped
    }

    fn focus_then_type(text: &str) -> Vec<ScriptStep> {
        let mut steps = vec![
            ScriptStep::Event(WindowEvent::left_down(70, 70)),
            ScriptStep::Event(WindowEvent::left_up(70, 70)),
        ];
        steps.extend(text.chars().map(|c| {
            ScriptStep::Event(match c {
                '\n' => WindowEvent::Key(atk_wm::Key::Return),
                c => WindowEvent::ch(c),
            })
        }));
        steps
    }

    #[test]
    fn patched_baseline_equals_the_screen_while_typing() {
        let [x11, awm] = baseline_tracks_screen("fig5", &focus_then_type("Hello, baseline"));
        assert!(x11.updates >= 10, "typing shipped {} updates", x11.updates);
        assert!(awm.updates >= 10, "typing shipped {} updates", awm.updates);
    }

    /// Every update is checked against the packed keyframe of its
    /// screen: a newline XORing every line below it once shipped about
    /// 38.6 KB where that keyframe took 38.4 KB.
    #[test]
    fn patched_baseline_equals_the_screen_through_a_scroll() {
        // Forty short lines typed mid-text run well past the bottom of
        // fig5's text view, so its tail shifts down a line a newline
        // and, once the caret reaches the bottom, the view scrolls.
        let text: String = (0..40).map(|i| format!("line {i}\n")).collect();
        let steps = focus_then_type(&text);
        // Each newline and scroll ships as a move, on either backend,
        // so the whole session is one chain of updates on the initial
        // keyframe.
        for run in baseline_tracks_screen("fig5", &steps) {
            assert!(run.updates > 100, "typing shipped {} updates", run.updates);
            assert_eq!(run.keyframes, 0, "typing shipped keyframes");
            assert!(run.moves >= 30, "{} updates carried a move", run.moves);
        }
    }

    /// awmsim keeps no wire it has replayed. A forked window opens on
    /// its template's frame with no op recorded, and after every frame
    /// of a long typing session (Returns and scrolls included) the
    /// display list is empty again, so it does not grow with the
    /// session's age.
    #[test]
    fn an_awmsim_display_list_is_empty_after_every_frame() {
        let cfg = SessionConfig {
            backend: "awmsim".to_string(),
            ..SessionConfig::default()
        };
        let mut templates = atk_apps::TemplateRegistry::new(Arc::new(Collector::new()));
        let collector = Arc::new(Collector::new());
        let mut s = HostedSession::open_with("fig5", cfg, collector, Some(&mut templates)).unwrap();
        let pending = |s: &HostedSession| {
            let window: &dyn std::any::Any = s.im.window();
            let window = window.downcast_ref::<atk_wm::awmsim::AwmWindow>();
            window.expect("an awmsim window").display_list()
        };
        assert!(pending(&s).is_empty(), "the fork recorded ops");
        let _ = s.initial_keyframe();
        let text: String = (0..250).map(|i| format!("line {i}\n")).collect();
        let steps = focus_then_type(&text);
        assert!(steps.len() >= 2000, "{} steps", steps.len());
        for (i, step) in steps.iter().enumerate() {
            ship(&mut s, step);
            let left = pending(&s).len();
            assert_eq!(left, 0, "step {i} ({step:?}) left {left} ops");
        }
    }

    #[test]
    fn patched_baseline_equals_the_screen_across_resize_and_keyframes() {
        // A scripted resize relayouts and redraws the whole tree (the
        // backend framebuffer keeps its size), which still ships as
        // one update in the chain.
        let mut steps = focus_then_type("before");
        steps.push(ScriptStep::Event(WindowEvent::Resize(
            atk_graphics::Size::new(400, 300),
        )));
        steps.extend(focus_then_type("after").into_iter().skip(2));
        for run in baseline_tracks_screen("fig5", &steps) {
            assert_eq!(run.keyframes, 0, "the resize shipped a keyframe");
            assert!(run.updates >= 12, "typing shipped {} updates", run.updates);
        }
        // fig3's restored size ships as the keyframe its probe packed,
        // and clicks go on in place on top of it.
        let mut steps = shrink_then_restore().to_vec();
        steps.extend(focus_then_type("").into_iter().cycle().take(12));
        for run in baseline_tracks_screen("fig3", &steps) {
            assert_eq!(run.keyframes, 1, "the restore shipped as an update");
            assert!(run.updates >= 1, "fig3 shipped {} updates", run.updates);
        }
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
            s.framebuffer().pixels().to_vec()
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

    /// A replica whose document's log is full gets the refusal back
    /// from `submit_batch`, and only the ops that reached the log count.
    #[test]
    fn submit_batch_returns_the_refusal_of_a_full_log() {
        let docs = atk_collab::DocRegistry::new();
        let attachment = docs.attach("doc", Some("fig1")).unwrap();
        let doc = Arc::clone(attachment.doc());
        let collector = Arc::new(Collector::new());
        collector.enable();
        let mut s =
            HostedSession::open_replica(attachment, SessionConfig::default(), collector, None)
                .unwrap();
        let close = ScriptStep::Event(WindowEvent::Close);
        for _ in 1..atk_collab::MAX_LOG_OPS {
            doc.submit(2, close.clone()).unwrap();
        }
        let key = ScriptStep::Event(WindowEvent::ch('a'));
        assert_eq!(s.submit_batch(&[key.clone(), key], 0), Err(LogFull));
        assert_eq!(doc.head(), atk_collab::MAX_LOG_OPS as u64);
        assert_eq!(s.collector().snapshot().counter("serve.collab.ops"), 1);
    }
}
