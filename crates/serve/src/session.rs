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
use atk_graphics::{band_copies, Framebuffer, Rect};
use atk_trace::{Collector, FrameLog, FrameTrace, SlowFrameLog, Stage};
use atk_wm::{MouseAction, WindowEvent};

use crate::wire::{Encoding, ServerFrame, XorRect};

/// Frames of attribution history each session retains (ring).
pub const FRAME_LOG_CAPACITY: usize = 128;

/// An update whose encoded body would pass this many bytes ships as a
/// keyframe instead.
const UPDATE_BUDGET_BYTES: usize = 256 * 1024;

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
        Ok(HostedSession {
            world,
            im: scene.im,
            cfg,
            collector,
            shipped: None,
            seq: 0,
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
        let (started, copies) = (Instant::now(), band_copies());
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
        self.close_frame(ft, started, copies)
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
        let (started, copies) = (Instant::now(), band_copies());
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
        self.close_frame(ft, started, copies)
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
    /// baseline share in turn. No pixel is copied here; a band is
    /// copied when the screen or the baseline next writes it.
    fn keyframe(&mut self) -> ServerFrame {
        let fb = Arc::new(self.framebuffer());
        self.ship_keyframe(fb)
    }

    /// Makes `fb` — equal to the screen — the diff baseline and wraps
    /// it as the keyframe to ship. The window's written bounds restart
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

    /// Encodes the initial keyframe once, for a cache that ships the
    /// same bytes to every later session forked from this one's
    /// template (see [`HostedSession::adopt_initial_keyframe`]).
    pub(crate) fn share_initial_keyframe(&mut self) -> SharedKeyframe {
        let frame = self.initial_keyframe();
        let (bytes, encoding) = self.encode_counted(&frame);
        let ServerFrame::Keyframe { frame, .. } = frame else {
            unreachable!("initial_keyframe builds a keyframe");
        };
        SharedKeyframe {
            bytes: bytes.into(),
            encoding,
            frame,
        }
    }

    /// Takes `key` — the encoded first keyframe of the template this
    /// session was forked from — as this session's initial keyframe:
    /// no copy, no encode, the same counters as
    /// [`HostedSession::initial_keyframe`] plus
    /// [`HostedSession::encode_frame`]. The baseline shares the cached
    /// frame's bands; updates copy only the bands they bring along.
    pub(crate) fn adopt_initial_keyframe(&mut self, key: &SharedKeyframe) {
        debug_assert_eq!(self.seq, 0, "only a fresh session adopts a keyframe");
        let frame = self.ship_keyframe(Arc::clone(&key.frame));
        self.count_encoded(&frame, key.encoding, key.bytes.len());
    }

    /// Frame assembly under the `diff` stage stamp: everything between
    /// paint and the wire (the bounds scan and the update's one-pass
    /// encode, or the keyframe snapshot) is attributed to
    /// `serve.stage_us.diff`.
    fn ship_frame(&mut self, ft: &mut FrameTrace) -> ServerFrame {
        ft.enter(Stage::Diff);
        let frame = self.assemble_frame(UPDATE_BUDGET_BYTES);
        ft.exit();
        frame
    }

    /// Diffs the current framebuffer against the last shipped one and
    /// picks the shipping shape: an empty ack when nothing changed (no
    /// snapshot clone, no pixel payload), the changed rect XORed
    /// against the baseline, or a keyframe when there is no baseline,
    /// the window resized, or the update's encoded body would pass
    /// `budget` bytes or a raw keyframe. The client holds the baseline
    /// over an ordered, lossless transport, so no other frame needs a
    /// keyframe.
    fn assemble_frame(&mut self, budget: usize) -> ServerFrame {
        // Everything drawn since the baseline last equalled the screen
        // lies inside the window's written bounds. Taking them here
        // clears them, and every plan below leaves the baseline equal
        // to the screen again.
        let written = self.im.window_mut().take_written();
        // Diff against a *borrow* of the backend framebuffer — a
        // no-change batch then costs one compare and zero clones.
        let shipped = &mut self.shipped;
        let collector = &self.collector;
        let mut plan = None;
        self.im.window().with_frame(&mut |cur| {
            plan = plan_update(shipped, cur, written, budget, collector);
        });
        let Some(patch) = plan else {
            return self.keyframe();
        };
        let changed = patch.is_some();
        let frame = ServerFrame::Update {
            seq: self.seq,
            patch,
        };
        self.collector.count("serve.frames", 1);
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
    pub fn encode_frame(&self, frame: &ServerFrame) -> Vec<u8> {
        self.encode_counted(frame).0
    }

    /// [`HostedSession::encode_frame`], also naming the body encoding.
    fn encode_counted(&self, frame: &ServerFrame) -> (Vec<u8>, Encoding) {
        let (bytes, encoding) = frame.encode_packed();
        self.count_encoded(frame, encoding, bytes.len());
        (bytes, encoding)
    }

    /// Counts the encoding choice and the shipped bytes of pixel frames.
    fn count_encoded(&self, frame: &ServerFrame, encoding: Encoding, len: usize) {
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
            self.collector.count("serve.encoded_bytes", len as u64);
        }
    }
}

/// A template's first keyframe, encoded once: the wire bytes every
/// session forked from the template ships, and the frame they carry,
/// which those sessions share as their diff baseline until their first
/// update.
pub(crate) struct SharedKeyframe {
    /// The encoded body, exactly as it ships.
    pub(crate) bytes: Arc<[u8]>,
    /// The body encoding the bytes use.
    pub(crate) encoding: Encoding,
    /// The frame the bytes carry.
    pub(crate) frame: Arc<Framebuffer>,
}

/// Diff-or-degrade decision against the shipped baseline, comparing
/// only the `written` rect and counting the pixels compared in
/// `serve.diff_px`: `Some(None)` when nothing changed, `Some(patch)`
/// for an update, which has brought the baseline up to `cur`, and
/// `None` for a keyframe — after a resize, with no baseline yet, or
/// when the update frame would pass `budget` bytes or a raw keyframe.
fn plan_update(
    shipped: &mut Option<Arc<Framebuffer>>,
    cur: &Framebuffer,
    written: Rect,
    budget: usize,
    collector: &Collector,
) -> Option<Option<XorRect>> {
    let base = shipped.as_mut()?;
    let within = written.intersect(cur.bounds());
    // `None` on a size change (resize): no diff across that.
    let changed = base.diff_bounds_within(cur, within)?;
    collector.count("serve.diff_px", within.area() as u64);
    if changed.is_empty() {
        return Some(None);
    }
    // A baseline still shared with the keyframe cache or the screen
    // shares its bands: the encode copies only those it writes.
    let base = Arc::make_mut(base);
    let key_payload = 17 + cur.width() as usize * cur.height() as usize * 4;
    XorRect::encode(base, cur, changed, budget.min(key_payload)).map(Some)
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

    /// Applies `step` and ships its frame with updates held to `budget`
    /// bytes; a session itself always ships under
    /// [`UPDATE_BUDGET_BYTES`].
    fn ship_within(s: &mut HostedSession, step: &ScriptStep, budget: usize) -> ServerFrame {
        s.replay_steps(std::slice::from_ref(step));
        s.assemble_frame(budget)
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
            ServerFrame::Update { patch, .. } => assert!(patch.is_some()),
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

        // A one-byte budget degrades every nonempty diff to a keyframe.
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
        let frame = ship_within(&mut s, &ScriptStep::Event(WindowEvent::ch('x')), 1);
        assert!(matches!(frame, ServerFrame::Keyframe { .. }), "{frame:?}");
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
        assert!(matches!(frame, ServerFrame::Update { patch: Some(_), .. }));
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
            ServerFrame::Update { patch, .. } => assert!(patch.is_none(), "{patch:?}"),
            other => panic!("no-change batch shipped {other:?}"),
        }
        assert_eq!(frame.wire_len(), 13);
        assert_eq!(end, None);
        let snap = collector.snapshot();
        assert_eq!(snap.counter("serve.frames_unchanged"), 1);
        // The ack never becomes the diff baseline, so real input later
        // still diffs against the last *pixel* frame.
        let (frame, _) = s.apply_batch(&[ScriptStep::Event(WindowEvent::Tick(5))], 0);
        assert!(matches!(frame, ServerFrame::Update { patch: None, .. }));
    }

    #[test]
    fn dirty_budget_estimate_matches_wire_len() {
        // The frame one typed character ships under `budget`.
        let typed = |budget: usize| {
            let mut s =
                HostedSession::open("fig5", SessionConfig::default(), Arc::new(Collector::new()))
                    .unwrap();
            let _ = s.initial_keyframe();
            let _ = s.apply_batch(
                &[
                    ScriptStep::Event(WindowEvent::left_down(70, 70)),
                    ScriptStep::Event(WindowEvent::left_up(70, 70)),
                ],
                0,
            );
            ship_within(&mut s, &ScriptStep::Event(WindowEvent::ch('x')), budget)
        };
        let frame = typed(UPDATE_BUDGET_BYTES);
        assert!(
            matches!(frame, ServerFrame::Update { patch: Some(_), .. }),
            "typing shipped {frame:?}"
        );
        // The budget bounds exactly the encoded update: a budget of its
        // wire length ships it, one byte less ships a keyframe.
        let len = frame.wire_len();
        assert_eq!(frame.encode().len(), len);
        assert_eq!(typed(len), frame);
        assert!(matches!(typed(len - 1), ServerFrame::Keyframe { .. }));
    }

    /// Ships `steps` one frame each, updates held to `budget` bytes, on
    /// a fresh fig5 session on each backend and checks, after every
    /// shipped frame, that the diff baseline brought along in place
    /// equals the screen. Both backends must ship the same frames;
    /// returns the (updates, keyframes) they shipped after the initial
    /// keyframe.
    fn baseline_tracks_screen(budget: usize, steps: &[ScriptStep]) -> (usize, usize) {
        let run = |backend: &str| {
            let cfg = SessionConfig {
                backend: backend.to_string(),
                ..SessionConfig::default()
            };
            let mut s = HostedSession::open("fig5", cfg, Arc::new(Collector::new())).unwrap();
            let mut frames = vec![s.initial_keyframe()];
            for (i, step) in steps.iter().enumerate() {
                frames.push(ship_within(&mut s, step, budget));
                let shipped = s.shipped.as_deref().expect("a baseline after every frame");
                let screen = s.framebuffer();
                assert!(
                    shipped.same_pixels(&screen),
                    "{backend} step {i} ({step:?}): baseline differs from the screen"
                );
            }
            frames
        };
        let frames = run("x11sim");
        assert!(
            frames == run("awmsim"),
            "the backends shipped different frames"
        );
        let updates = frames
            .iter()
            .filter(|f| matches!(f, ServerFrame::Update { patch: Some(_), .. }))
            .count();
        let keyframes = frames
            .iter()
            .skip(1)
            .filter(|f| matches!(f, ServerFrame::Keyframe { .. }))
            .count();
        (updates, keyframes)
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
        let (updates, _) =
            baseline_tracks_screen(UPDATE_BUDGET_BYTES, &focus_then_type("Hello, baseline"));
        assert!(updates >= 10, "typing shipped {updates} updates");
    }

    #[test]
    fn patched_baseline_equals_the_screen_through_a_scroll() {
        // Forty short lines run well past the bottom of fig5's text
        // view, so it scrolls.
        let text: String = (0..40).map(|i| format!("line {i}\n")).collect();
        let steps = focus_then_type(&text);
        let (updates, keyframes) = baseline_tracks_screen(UPDATE_BUDGET_BYTES, &steps);
        assert!(updates > 100, "typing shipped {updates} updates");
        // A scroll's update XORs most of the view and still fits the
        // budget, so the whole session is one chain of updates on the
        // initial keyframe.
        assert_eq!(keyframes, 0, "typing shipped keyframes");
        // Under a 16 KiB budget the big updates pass it mid-encode: the
        // encoder stops with the baseline partly brought along, and
        // the keyframe shipped instead must leave it equal to the
        // screen all the same.
        let (_, tight_keyframes) = baseline_tracks_screen(16 * 1024, &steps);
        assert!(
            tight_keyframes > 0,
            "the budget degraded nothing: {tight_keyframes} keyframes"
        );
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
        let (updates, keyframes) = baseline_tracks_screen(UPDATE_BUDGET_BYTES, &steps);
        assert_eq!(keyframes, 0, "the resize shipped a keyframe");
        assert!(updates >= 12, "typing shipped {updates} updates");
        // Under a 4 KiB budget the redraw degrades to a keyframe, and
        // typing goes on in place on top of it.
        let (updates, keyframes) = baseline_tracks_screen(4 * 1024, &steps);
        assert_eq!(keyframes, 1, "the redraw shipped as an update");
        assert!(updates >= 12, "typing shipped {updates} updates");
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
    fn the_frame_log_keeps_the_newest_frames_up_to_the_cap() {
        let collector = Arc::new(Collector::new());
        collector.enable();
        let mut s = HostedSession::open("fig1", SessionConfig::default(), collector).unwrap();
        let _ = s.initial_keyframe();
        for _ in 0..=FRAME_LOG_CAPACITY {
            let _ = s.apply_batch(&[ScriptStep::Event(WindowEvent::Tick(1))], 0);
        }
        assert_eq!(s.frame_log().len(), FRAME_LOG_CAPACITY);
        assert_eq!(s.frame_log().total_pushed(), FRAME_LOG_CAPACITY as u64 + 1);
        // The oldest frame (seq 1) went; the newest stayed.
        let seqs: Vec<u64> = s.frame_log().records().map(|r| r.seq).collect();
        assert_eq!(seqs.first(), Some(&2));
        assert_eq!(seqs.last(), Some(&(FRAME_LOG_CAPACITY as u64 + 1)));
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
