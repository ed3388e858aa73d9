//! The event-driven shard engine — the server's one dispatch path: N
//! worker threads, each single-threadedly hosting *many* sessions
//! behind a poll-style readiness loop, plus the per-connection protocol
//! they speak (handshake, decode, batch, apply, ship, goodbye).
//!
//! The shape follows the band0 decomposition of many small framed-
//! protocol daemons, each owning one resource outright: a shard owns
//! its sessions — `World`s are `!Send`, so a session is born, lives,
//! and dies on its shard's thread — and everything else reaches the
//! shard through two narrow channels. New connections arrive on an
//! mpsc admission queue fed by `Server::admit` (least-loaded shard
//! wins), whether they come from the TCP acceptor or from an in-memory
//! pair (`Server::connect_mem`); counters leave through the shard's own
//! `atk-trace` collector, which `Server::merged_snapshot` folds in.
//!
//! Each loop iteration: drain the admission queue, then poll every
//! connection's transport once with the non-blocking `try_recv` —
//! pending `Hello`s complete their handshake, live sessions drain
//! whatever burst is buffered into one batch and run it through
//! `finish_batch`. A sweep that makes no progress parks the thread
//! with no timeout, and every event source rings it awake
//! (`Thread::unpark`): the [`ShardHandle`] on admission, drain,
//! shutdown and drop; each transport, whose doorbell is set to this
//! thread on admission, when a frame, EOF or error arrives; and a
//! shared document when an op lands in the log a replica hosted here
//! reads. A ring that lands between the empty sweep and the park
//! leaves the park token set, so the park returns at once and no
//! wakeup is lost.
//! There is no epoll here by design: the repo is std-only, and TCP
//! reads happen on pooled reader threads (see
//! [`crate::transport::TcpTransport`]) that ring like any other source.
//! Idle eviction runs on each session's virtual clock, so no timer
//! needs to wake the shard.
//!
//! Draining (`Server::drain_shard`) is graceful but final for the
//! shard's current tenants: sessions cannot migrate (their `World`s
//! are pinned to this thread), so live sessions get `Bye {drain}` —
//! every acked frame has already shipped, nothing is lost — and
//! pending handshakes get `Busy`. The acceptor skips draining shards,
//! so new connections keep landing elsewhere immediately.
//!
//! A shard that forks sessions from templates also encodes each
//! template's first keyframe once, in a cache keyed by `TemplateKey`:
//! a forked session's first frame is a pure function of its template,
//! so every later `Hello` for that template ships the same shared
//! bytes.
//!
//! Shard-local scheduling counters live under `serve.shard.*`
//! (admitted/batches/drained_sessions/busy_on_drain/failures, plus
//! `wakeups` — parks that returned — and `parked_us`); the
//! sharded-vs-single differential oracle excludes that prefix and the
//! per-shard caches' counters, the only places where shard count may
//! leave a mark.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, Weak};
use std::thread::{self, JoinHandle, Thread};
use std::time::Instant;

use atk_core::ScriptStep;
use atk_trace::{Collector, FrameTrace, Stage};

use crate::fault::FaultRng;
use crate::server::Server;
use crate::session::{HostedSession, SessionEnd, SharedKeyframe};
use crate::transport::FrameTransport;
use crate::wire::{ClientFrame, ServerFrame, WireError, BYE_BYE, BYE_CLOSED, BYE_DRAIN, BYE_IDLE};

/// What the acceptor (or the server winding down) tells a shard.
pub(crate) enum ShardMsg {
    /// Host this connection.
    Conn(Box<dyn FrameTransport>),
    /// Stop taking connections and close the current ones gracefully.
    Drain,
    /// Drain, then exit the thread.
    Shutdown,
}

/// The server-side handle to one shard thread.
pub(crate) struct ShardHandle {
    tx: Sender<ShardMsg>,
    /// Queued + live connections on the shard (least-loaded admission
    /// reads this without talking to the thread).
    load: Arc<AtomicUsize>,
    draining: Arc<AtomicBool>,
    collector: Arc<Collector>,
    /// The shard thread, unparked whenever a message is queued for it.
    thread: Thread,
    join: Mutex<Option<JoinHandle<()>>>,
}

impl ShardHandle {
    /// Spawns the shard thread. It holds only a `Weak` back-reference:
    /// the server owning the handle never cycles, and a dropped server
    /// winds its shards down.
    pub(crate) fn spawn(server: Weak<Server>, index: usize) -> ShardHandle {
        let (tx, rx) = mpsc::channel();
        let load = Arc::new(AtomicUsize::new(0));
        let draining = Arc::new(AtomicBool::new(false));
        let collector = Arc::new(Collector::new());
        let join = {
            let (load, draining, collector) = (load.clone(), draining.clone(), collector.clone());
            thread::Builder::new()
                .name(format!("atk-shard-{index}"))
                .spawn(move || run_shard(server, index, rx, load, draining, collector))
                .expect("spawn shard thread")
        };
        ShardHandle {
            tx,
            load,
            draining,
            collector,
            thread: join.thread().clone(),
            join: Mutex::new(Some(join)),
        }
    }

    /// The shard-plane collector (`serve.shard.*`).
    pub(crate) fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    pub(crate) fn load(&self) -> usize {
        self.load.load(Ordering::SeqCst)
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Queues a connection; on a dead shard the transport comes back.
    pub(crate) fn send_conn(
        &self,
        t: Box<dyn FrameTransport>,
    ) -> Result<(), Box<dyn FrameTransport>> {
        // Count the connection before it is enqueued so two racing
        // admits don't both see the old load and pile onto one shard.
        self.load.fetch_add(1, Ordering::SeqCst);
        match self.tx.send(ShardMsg::Conn(t)) {
            Ok(()) => {
                self.thread.unpark();
                Ok(())
            }
            Err(mpsc::SendError(msg)) => {
                self.load.fetch_sub(1, Ordering::SeqCst);
                match msg {
                    ShardMsg::Conn(t) => Err(t),
                    _ => unreachable!("send_conn only sends Conn"),
                }
            }
        }
    }

    /// Flags the shard as draining *now* (the acceptor stops picking it
    /// before the thread even wakes) and tells the thread to close out.
    pub(crate) fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let _ = self.tx.send(ShardMsg::Drain);
        self.thread.unpark();
    }

    pub(crate) fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let _ = self.tx.send(ShardMsg::Shutdown);
        self.thread.unpark();
    }

    /// The shard thread's join handle, once: whoever takes it joins
    /// the thread without holding anything the thread may wait on.
    pub(crate) fn take_join(&self) -> Option<JoinHandle<()>> {
        self.join.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

impl Drop for ShardHandle {
    /// Dropping the server drops its handles: a parked shard must be
    /// rung to notice. A shard already joined ignores both.
    fn drop(&mut self) {
        let _ = self.tx.send(ShardMsg::Shutdown);
        self.thread.unpark();
    }
}

/// One connection the shard owns.
struct Conn {
    t: Box<dyn FrameTransport>,
    state: ConnState,
    /// Error to report to the peer when the connection closes failed.
    failed: Option<String>,
}

enum ConnState {
    /// Waiting for the client's `Hello`.
    Handshake,
    /// Hosting a live session (boxed: a `HostedSession` is large and
    /// `Conn`s move when the vector compacts).
    Running(Box<HostedSession>),
}

/// What one poll of one connection amounted to.
enum Pump {
    /// Nothing buffered; the connection stays as it was.
    Idle,
    /// Processed something; the connection lives on.
    Progress,
    /// The connection finished in an orderly way.
    Done,
}

/// The shard thread body.
fn run_shard(
    server: Weak<Server>,
    index: usize,
    rx: Receiver<ShardMsg>,
    load: Arc<AtomicUsize>,
    draining: Arc<AtomicBool>,
    collector: Arc<Collector>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut rng: Option<FaultRng> = None;
    // Pre-warmed scene templates, one registry per shard: a template's
    // `World` is `!Send` like any session's, so it lives and dies on
    // this thread. Fork costs and template builds count on the shard
    // collector and reach the merged stats plane from there.
    let mut templates: Option<atk_apps::TemplateRegistry> = None;
    // Each template's first keyframe, packed once. Templates are
    // frozen, so an entry never goes stale, and there is at most one
    // per template the shard has forked from — the cache needs no bound
    // beyond the template registry's own.
    let mut keyframes = HashMap::new();
    let me = thread::current();
    let mut first_iteration = true;
    loop {
        // Hold the server only for the duration of one iteration; when
        // the last external Arc drops, the upgrade fails and the shard
        // winds down.
        let Some(server) = server.upgrade() else {
            break;
        };
        if first_iteration {
            collector.set_enabled(server.collector().is_enabled());
            rng = server
                .cfg()
                .readiness_shuffle_seed
                .map(|seed| FaultRng::new(seed ^ (index as u64).wrapping_mul(0x9E37)));
            if server.cfg().fork {
                templates = Some(atk_apps::TemplateRegistry::new(collector.clone()));
            }
            first_iteration = false;
        }
        let mut progress = false;
        let mut shutdown = false;

        // 1. Admission queue: accept new connections (or bounce them
        // when draining) and note control messages.
        loop {
            match rx.try_recv() {
                Ok(ShardMsg::Conn(mut t)) => {
                    progress = true;
                    if draining.load(Ordering::SeqCst) {
                        let _ = t.send(&ServerFrame::Busy.encode());
                        collector.count("serve.shard.busy_on_drain", 1);
                        load.fetch_sub(1, Ordering::SeqCst);
                    } else {
                        collector.count("serve.shard.admitted", 1);
                        t.set_doorbell(me.clone());
                        conns.push(Conn {
                            t,
                            state: ConnState::Handshake,
                            failed: None,
                        });
                    }
                }
                Ok(ShardMsg::Drain) => {
                    progress = true;
                    draining.store(true, Ordering::SeqCst);
                }
                Ok(ShardMsg::Shutdown) => {
                    draining.store(true, Ordering::SeqCst);
                    shutdown = true;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    draining.store(true, Ordering::SeqCst);
                    shutdown = true;
                    break;
                }
            }
        }

        // 2. Drain: close every current tenant gracefully. Sessions
        // cannot migrate (their worlds are pinned to this thread), so
        // live ones get `Bye {drain}` and pending handshakes `Busy`.
        if draining.load(Ordering::SeqCst) && !conns.is_empty() {
            progress = true;
            for conn in conns.drain(..) {
                drain_close(&server, &collector, &load, conn);
            }
        }
        if shutdown {
            break;
        }

        // 3. Readiness sweep: poll every connection once, in admission
        // order — or in a seeded-shuffled order when the reordering
        // fault is armed (the differential oracle proves the order
        // doesn't matter).
        let mut order: Vec<usize> = (0..conns.len()).collect();
        if let Some(rng) = &mut rng {
            shuffle(&mut order, rng);
        }
        let mut closed: Vec<usize> = Vec::new();
        for i in order {
            let result = match &conns[i].state {
                ConnState::Handshake => pump_handshake(
                    &server,
                    &collector,
                    &mut conns[i],
                    templates.as_mut(),
                    &mut keyframes,
                ),
                ConnState::Running(_) => pump_running(&server, &collector, &mut conns[i]),
            };
            match result {
                Ok(Pump::Idle) => {}
                Ok(Pump::Progress) => progress = true,
                Ok(Pump::Done) => {
                    progress = true;
                    closed.push(i);
                }
                Err(e) => {
                    progress = true;
                    collector.count("serve.shard.failures", 1);
                    conns[i].failed = Some(e.to_string());
                    closed.push(i);
                }
            }
        }
        // Compact from the back so earlier indices stay valid.
        closed.sort_unstable();
        for i in closed.into_iter().rev() {
            let conn = conns.swap_remove(i);
            finish_close(&server, &load, conn);
        }

        drop(server);
        if !progress {
            let parked = Instant::now();
            thread::park();
            collector.count("serve.shard.wakeups", 1);
            collector.count("serve.shard.parked_us", parked.elapsed().as_micros() as u64);
        }
    }
}

/// Completes a pending handshake if the first frame (`Hello` or
/// `Attach`) has arrived: admission slot, session build, `Welcome` +
/// initial keyframe.
fn pump_handshake(
    server: &Server,
    collector: &Collector,
    conn: &mut Conn,
    templates: Option<&mut atk_apps::TemplateRegistry>,
    keyframes: &mut HashMap<TemplateKey, SharedKeyframe>,
) -> Result<Pump, Box<dyn std::error::Error>> {
    let Some(body) = conn.t.try_recv()? else {
        return Ok(Pump::Idle);
    };
    let first = ClientFrame::decode(&body)?;
    if !matches!(
        first,
        ClientFrame::Hello { .. } | ClientFrame::Attach { .. }
    ) {
        return Err(Box::new(WireError::BadTag(0)));
    }
    if !server.try_claim_slot() {
        conn.t.send(&ServerFrame::Busy.encode())?;
        return Ok(Pump::Done);
    }
    // From here the claimed slot must be released on every path. A
    // failed build releases it here; once the session exists, entering
    // `Running` hands that duty to `finish_close`, however the
    // connection ends — a failed welcome included.
    let session_id = server.next_session_id();
    let session_collector = server.open_session_collector(session_id);
    // Only a `Hello` session forked from a template starts on the
    // template's own frame; a replica's backlog changes its world, and
    // a cold build has no template.
    let template_key = match &first {
        ClientFrame::Hello { scene, backend } if templates.is_some() => {
            let default = &server.cfg().session.backend;
            atk_apps::scenes::resolve_scene_name(scene)
                .ok()
                .map(|scene| TemplateKey {
                    scene,
                    backend: backend.as_ref().unwrap_or(default).clone(),
                })
        }
        _ => None,
    };
    let mut session = match server.open_hosted(&first, session_collector.clone(), templates) {
        Ok(s) => s,
        Err(e) => {
            server.retire_session(session_id, &session_collector);
            server.release_slot();
            conn.t.send(&ServerFrame::Error { message: e }.encode())?;
            return Ok(Pump::Done);
        }
    };
    session.set_session_id(session_id);
    session.set_slow_log(server.slow_log().clone());
    let (width, height) = session.size();
    conn.state = ConnState::Running(Box::new(session));
    let ConnState::Running(session) = &mut conn.state else {
        unreachable!("the state was just set");
    };
    conn.t.send(
        &ServerFrame::Welcome {
            session_id,
            width,
            height,
        }
        .encode(),
    )?;
    // A cache hit ships the template's packed keyframe as the session's
    // own: no snapshot, no pack, no copy, and the session's counters
    // still match a miss's (the hit counts on the shard plane). A
    // forked miss packs the keyframe and leaves it in the cache.
    if let Some(hit) = template_key.as_ref().and_then(|key| keyframes.get(key)) {
        collector.count("serve.keyframe_cache_hits", 1);
        session.packed = Some(hit.clone());
    }
    let initial = session.initial_keyframe();
    conn.t.send(&session.wire_bytes(&initial))?;
    if let Some(key) = template_key {
        keyframes.entry(key).or_insert_with(|| {
            session
                .packed
                .clone()
                .expect("a shipped keyframe is packed")
        });
    }
    Ok(Pump::Progress)
}

/// What a forked session's first keyframe is a function of: its
/// template (resolved scene name and backend).
#[derive(PartialEq, Eq, Hash)]
struct TemplateKey {
    scene: &'static str,
    backend: String,
}

/// Polls a live session once: drains whatever burst is buffered into
/// one batch and runs it through [`finish_batch`]. A replica runs it
/// with no transport traffic too, its batch empty: its frames also come
/// from *other* replicas' edits, read from the document's log, so a
/// silent watcher makes progress every readiness sweep.
fn pump_running(
    server: &Server,
    collector: &Collector,
    conn: &mut Conn,
) -> Result<Pump, Box<dyn std::error::Error>> {
    let ConnState::Running(session) = &mut conn.state else {
        return Ok(Pump::Idle);
    };
    let mut body = conn.t.try_recv()?;
    if body.is_none() && !session.is_attached() {
        return Ok(Pump::Idle);
    }
    // The frame trace starts once there is input to look at, so queue
    // idle time is not attributed to any stage; each decode is stamped.
    let mut ft = session.begin_frame();
    let mut batch: Vec<ScriptStep> = Vec::new();
    let mut saw_bye = false;
    let mut stats_req = false;
    let carried = body.is_some();
    while let Some(b) = body {
        decode_into(&b, &mut ft, &mut batch, &mut saw_bye, &mut stats_req)?;
        body = if saw_bye { None } else { conn.t.try_recv()? };
    }
    if carried {
        collector.count("serve.shard.batches", 1);
    }
    finish_batch(server, &mut conn.t, session, ft, batch, saw_bye, stats_req)
}

/// Decodes one client body into the current batch, stamping the decode
/// stage. A second `Hello` (or `Attach`) mid-session is the protocol
/// violation it always was.
fn decode_into(
    body: &[u8],
    ft: &mut FrameTrace,
    batch: &mut Vec<ScriptStep>,
    saw_bye: &mut bool,
    stats_req: &mut bool,
) -> Result<(), WireError> {
    ft.enter(Stage::Decode);
    let decoded = ClientFrame::decode(body);
    ft.exit();
    match decoded? {
        ClientFrame::Step(step) => batch.push(step),
        ClientFrame::Bye => *saw_bye = true,
        ClientFrame::StatsReq => *stats_req = true,
        ClientFrame::Hello { .. } => return Err(WireError::BadTag(0x01)),
        ClientFrame::Attach { .. } => return Err(WireError::BadTag(0x05)),
    }
    Ok(())
}

/// Runs one collected batch to completion: backpressure trim, apply +
/// ship under the frame trace, stats reply, and the goodbye when the
/// batch (or the client) ended the session. A call with no client frame
/// that drained no op did nothing: [`Pump::Idle`].
fn finish_batch(
    server: &Server,
    t: &mut dyn FrameTransport,
    session: &mut HostedSession,
    mut ft: FrameTrace,
    mut batch: Vec<ScriptStep>,
    saw_bye: bool,
    stats_req: bool,
) -> Result<Pump, Box<dyn std::error::Error>> {
    let client_frames = !batch.is_empty() || saw_bye || stats_req;
    // Backpressure: a burst beyond the queue cap drops its oldest
    // steps; the drops still advance `seq`.
    let dropped = batch.len().saturating_sub(server.cfg().session.queue_cap);
    if dropped > 0 {
        batch.drain(..dropped);
        session
            .collector()
            .count("serve.backpressure_drops", dropped as u64);
    }

    let applied = if session.is_attached() {
        // Replicated path: the batch is *submitted* to the shared
        // log, not applied — every edit comes back through the drain
        // in log order (the author's own included). The drain below
        // therefore already covers catch-up on `Bye`: everything
        // submitted anywhere is in the log the moment `submit`
        // returns, so the final frame shipped here leaves the client
        // at the converged document state. A full log ends this
        // connection with an `Error`; the other replicas go on.
        session.submit_batch(&batch, dropped as u64)?;
        let ops = session.drain_ops();
        (!ops.is_empty()).then(|| session.apply_ops_traced(&ops, &mut ft))
    } else {
        (!batch.is_empty()).then(|| session.apply_batch_traced(&batch, dropped as u64, &mut ft))
    };
    // A batchless wakeup (lone StatsReq, or a replica with no op)
    // drops its inert-ish trace: no frame shipped, nothing to attribute.
    let mut end_after = None;
    let shipped = applied.is_some();
    if let Some((frame, end)) = applied {
        ship(t, session, &frame, ft)?;
        end_after = end;
    }

    if stats_req {
        server.collector().count("serve.stats_requests", 1);
        t.send(&server.stats_reply().encode())?;
    }

    if let Some(end) = end_after {
        goodbye(server, t, end)?;
        return Ok(Pump::Done);
    }
    if saw_bye {
        t.send(
            &ServerFrame::Bye {
                reason: BYE_BYE.into(),
            }
            .encode(),
        )?;
        return Ok(Pump::Done);
    }
    Ok(if client_frames || shipped {
        Pump::Progress
    } else {
        Pump::Idle
    })
}

/// Encodes and sends one assembled frame under the `Ship` stage, then
/// closes its frame trace.
fn ship(
    t: &mut dyn FrameTransport,
    session: &mut HostedSession,
    frame: &ServerFrame,
    mut ft: FrameTrace,
) -> std::io::Result<()> {
    ft.enter(Stage::Ship);
    t.send(&session.wire_bytes(frame))?;
    ft.exit();
    let _ = session.finish_frame(ft);
    Ok(())
}

/// Sends the server-side `Bye` for a session-initiated end and counts
/// idle evictions.
fn goodbye(server: &Server, t: &mut dyn FrameTransport, end: SessionEnd) -> std::io::Result<()> {
    let reason = match end {
        SessionEnd::Idle => BYE_IDLE,
        SessionEnd::Closed => BYE_CLOSED,
    };
    if end == SessionEnd::Idle {
        server.collector().count("serve.idle_evictions", 1);
    }
    t.send(
        &ServerFrame::Bye {
            reason: reason.into(),
        }
        .encode(),
    )
}

/// Graceful goodbye for a drained connection.
fn drain_close(server: &Server, collector: &Collector, load: &AtomicUsize, mut conn: Conn) {
    match &conn.state {
        ConnState::Handshake => {
            let _ = conn.t.send(&ServerFrame::Busy.encode());
            collector.count("serve.shard.busy_on_drain", 1);
        }
        ConnState::Running(_) => {
            let _ = conn.t.send(
                &ServerFrame::Bye {
                    reason: BYE_DRAIN.into(),
                }
                .encode(),
            );
            collector.count("serve.shard.drained_sessions", 1);
        }
    }
    finish_close(server, load, conn);
}

/// The one funnel every connection leaves through: report a failure to
/// the peer (best-effort), retire the session's collector, release the
/// admission slot, and drop the shard's load count.
fn finish_close(server: &Server, load: &AtomicUsize, mut conn: Conn) {
    if let Some(message) = conn.failed.take() {
        let _ = conn.t.send(&ServerFrame::Error { message }.encode());
    }
    if let ConnState::Running(session) = &conn.state {
        server.retire_session(session.session_id(), session.collector());
        server.release_slot();
    }
    load.fetch_sub(1, Ordering::SeqCst);
}

/// Seeded Fisher–Yates, for the readiness-reorder fault.
fn shuffle(order: &mut [usize], rng: &mut FaultRng) {
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() as usize) % (i + 1);
        order.swap(i, j);
    }
}
