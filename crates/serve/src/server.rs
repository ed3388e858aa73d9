//! The multi-session server: admission control, the stats plane, and
//! the shared-document registry. Sessions themselves run on the
//! event-driven shard engine ([`crate::shard`]), the one dispatch path:
//! every connection — TCP from the acceptor, or in-memory from tests,
//! oracles and loadgen — enters through [`Server::admit`].
//!
//! A session's `World` is born, lives, and dies on its shard's thread,
//! because it is deliberately `!Send` (views hold `Rc` handles to the
//! window framebuffer). Only the transport halves and the shared
//! counters cross threads, which is the same discipline the paper's
//! window-system connection imposed: the display protocol travels, the
//! application state does not.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use atk_collab::DocRegistry;
use atk_trace::{snapshot_json, text_summary, Collector, SlowFrameLog, Snapshot};

use crate::fault::{FaultPlan, FaultTransport};
use crate::session::{HostedSession, SessionConfig};
use crate::shard::ShardHandle;
use crate::transport::{FrameTransport, MemTransport, TcpTransport};
use crate::wire::{ClientFrame, ServerFrame};

/// Span-ring capacity of each per-session collector (smaller than the
/// default: N sessions each hold one of these).
pub const SESSION_SPAN_CAPACITY: usize = 1024;

/// Slow-frame dump entries the server retains.
pub const SLOW_LOG_CAPACITY: usize = 256;

/// Retired per-session snapshots (spans included) retained for Chrome
/// trace export when [`ServerConfig::retain_session_traces`] is set.
pub const TRACE_RETAIN_CAP: usize = 128;

/// Server-wide tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent session cap; connections past it get a graceful
    /// `Busy` frame instead of a session.
    pub max_sessions: usize,
    /// Per-session tuning, cloned for every connection.
    pub session: SessionConfig,
    /// When set, every per-session collector runs on a deterministic
    /// manual clock `(start_us, step_us)` instead of wall time — stage
    /// attribution becomes reproducible end to end (golden tests).
    pub manual_clock: Option<(u64, u64)>,
    /// Keep each retired session's full snapshot (spans and all, up to
    /// [`TRACE_RETAIN_CAP`]) so [`Server::trace_parts`] can export one
    /// Chrome-trace track per session even after the connection closed.
    pub retain_session_traces: bool,
    /// Fault-injection knob for the shard readiness loop: when set,
    /// each shard iteration polls its connections in a seeded-shuffled
    /// order instead of admission order, so tests can prove the
    /// dispatch result does not depend on readiness ordering.
    pub readiness_shuffle_seed: Option<u64>,
    /// Fork sessions from pre-warmed per-shard template worlds instead
    /// of building every scene from scratch. On by default; the
    /// cold-boot ablation (E17, `fork_serving`) turns it off.
    pub fork: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_sessions: 128,
            session: SessionConfig::default(),
            manual_clock: None,
            retain_session_traces: false,
            readiness_shuffle_seed: None,
            fork: true,
        }
    }
}

/// The shared server state: counters plus config. Cheap to clone into
/// accept threads via `Arc`.
pub struct Server {
    cfg: ServerConfig,
    /// Server-plane collector: admission, session lifecycle, stats
    /// requests. Each session reports into its own collector (see
    /// [`Server::session_snapshots`]); the stats plane merges them.
    collector: Arc<Collector>,
    active: AtomicUsize,
    next_id: AtomicU64,
    /// Live per-session collectors, keyed by session id.
    sessions: Mutex<Vec<(u64, Arc<Collector>)>>,
    /// Accumulated (span-stripped) snapshots of sessions that ended,
    /// so server-wide totals survive session churn.
    retired: Mutex<Snapshot>,
    /// Full retired snapshots kept for trace export (empty unless
    /// [`ServerConfig::retain_session_traces`] is set).
    trace_snaps: Mutex<Vec<(u64, Snapshot)>>,
    /// Shared sink for SLO-violation dumps from every session.
    slow_log: Arc<SlowFrameLog>,
    /// Highest concurrent-session count ever observed
    /// (`serve.peak_sessions`).
    peak: AtomicUsize,
    /// Worker shards, once [`Server::start_shards`] ran.
    shards: Mutex<Vec<ShardHandle>>,
    /// Shared documents (`Attach` sessions), server-wide: replicas on
    /// different shards subscribe to the same registry entry.
    registry: DocRegistry,
}

impl Server {
    /// A server reporting into `collector`.
    pub fn new(cfg: ServerConfig, collector: Arc<Collector>) -> Arc<Server> {
        Arc::new(Server {
            cfg,
            collector,
            active: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            sessions: Mutex::new(Vec::new()),
            retired: Mutex::new(Snapshot::default()),
            trace_snaps: Mutex::new(Vec::new()),
            slow_log: Arc::new(SlowFrameLog::new(SLOW_LOG_CAPACITY)),
            peak: AtomicUsize::new(0),
            shards: Mutex::new(Vec::new()),
            registry: DocRegistry::new(),
        })
    }

    /// A server reporting into a fresh enabled collector, with `shards`
    /// worker shards already running — how the tests, the oracles and
    /// loadgen host one.
    pub fn start(cfg: ServerConfig, shards: usize) -> Arc<Server> {
        let collector = Arc::new(Collector::new());
        collector.enable();
        let server = Server::new(cfg, collector);
        server.start_shards(shards);
        server
    }

    /// The shared-document registry.
    pub fn registry(&self) -> &DocRegistry {
        &self.registry
    }

    pub(crate) fn cfg(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The server-plane trace collector.
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// The shared slow-frame (SLO violation) log.
    pub fn slow_log(&self) -> &Arc<SlowFrameLog> {
        &self.slow_log
    }

    /// Sessions currently live.
    pub fn active_sessions(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Highest concurrent-session count observed so far (also the
    /// `serve.peak_sessions` gauge — loadgen's proof that "N concurrent
    /// sessions" really were concurrent on the server).
    pub fn peak_sessions(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }

    /// Claims one admission slot and updates the lifecycle counters.
    /// `false` means the server is full: count the reject and send
    /// `Busy`.
    pub(crate) fn try_claim_slot(&self) -> bool {
        let claimed = self
            .active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.cfg.max_sessions).then_some(n + 1)
            })
            .is_ok();
        if claimed {
            self.collector.count("serve.sessions", 1);
            let now = self.active_sessions();
            let peak = self.peak.fetch_max(now, Ordering::SeqCst).max(now);
            self.collector.gauge("serve.active_sessions", now as i64);
            // Server-plane only: the gauge-summing snapshot merge stays
            // truthful because no session collector ever carries it.
            self.collector.gauge("serve.peak_sessions", peak as i64);
        } else {
            self.collector.count("serve.busy_rejects", 1);
        }
        claimed
    }

    /// Returns an admission slot on any exit path.
    pub(crate) fn release_slot(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.collector
            .gauge("serve.active_sessions", self.active_sessions() as i64);
    }

    /// Allocates the next session id.
    pub(crate) fn next_session_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::SeqCst)
    }

    fn lock_sessions(&self) -> MutexGuard<'_, Vec<(u64, Arc<Collector>)>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_retired(&self) -> MutexGuard<'_, Snapshot> {
        self.retired.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshots of every *live* session's collector, keyed by session
    /// id (one pid/track each in the Chrome multi-export).
    pub fn session_snapshots(&self) -> Vec<(u64, Snapshot)> {
        let live: Vec<(u64, Arc<Collector>)> = self.lock_sessions().clone();
        live.into_iter().map(|(id, c)| (id, c.snapshot())).collect()
    }

    /// Snapshots of every shard-plane collector (`serve.shard.*`
    /// scheduling counters), in shard order. Empty until
    /// [`Server::start_shards`] ran.
    pub fn shard_snapshots(&self) -> Vec<Snapshot> {
        self.lock_shards()
            .iter()
            .map(|s| s.collector().snapshot())
            .collect()
    }

    /// The server-wide view: the server-plane collector merged with
    /// every shard plane, every retired session's accumulated totals,
    /// and every live session's current snapshot. This is what a
    /// `Stats` request and `--stats-every` report.
    ///
    /// The shard list, the live list and the retired totals are read
    /// under all three locks, taken in the order
    /// [`Server::retire_session`] and [`Server::shutdown_shards`] take
    /// them (shards, live list, retired), so a closing session or a
    /// stopped shard is counted exactly once: still listed, or already
    /// retired. Merged counters therefore never go backwards.
    pub fn merged_snapshot(&self) -> Snapshot {
        let mut out = self.collector.snapshot();
        let shards = self.lock_shards();
        let live = self.lock_sessions();
        let retired = self.lock_retired();
        for s in shards.iter() {
            out.merge(&s.collector().snapshot());
        }
        out.merge(&retired);
        for (_, c) in live.iter() {
            out.merge(&c.snapshot());
        }
        out
    }

    /// Labeled snapshot parts for `chrome_trace_json_multi`: the
    /// server plane, the shard planes, then retained retired sessions,
    /// then live ones — one pid/track per part.
    pub fn trace_parts(&self) -> Vec<(String, Snapshot)> {
        let mut parts = vec![("server".to_string(), self.collector.snapshot())];
        for (i, snap) in self.shard_snapshots().into_iter().enumerate() {
            parts.push((format!("shard-{i}"), snap));
        }
        for (id, snap) in self
            .trace_snaps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            parts.push((format!("session-{id}"), snap.clone()));
        }
        for (id, snap) in self.session_snapshots() {
            parts.push((format!("session-{id}"), snap));
        }
        parts
    }

    /// The `Stats` wire reply for the current merged snapshot.
    pub fn stats_reply(&self) -> ServerFrame {
        let merged = self.merged_snapshot();
        ServerFrame::Stats {
            text: text_summary(&merged),
            json: snapshot_json(&merged),
        }
    }

    /// Creates, configures, and registers one session's collector.
    pub(crate) fn open_session_collector(&self, session_id: u64) -> Arc<Collector> {
        let c = Arc::new(Collector::with_capacity(SESSION_SPAN_CAPACITY));
        c.set_enabled(self.collector.is_enabled());
        if let Some((start_us, step_us)) = self.cfg.manual_clock {
            c.set_manual_clock(start_us, step_us);
        }
        self.lock_sessions().push((session_id, c.clone()));
        c
    }

    /// Unregisters a session's collector and folds its final
    /// (span-stripped) snapshot into the retired accumulator, so
    /// `merged_snapshot` totals survive session churn. Every close
    /// path — orderly, error, drain — lands here exactly once. The
    /// move from live to retired happens under both locks (live list
    /// first), so no merged snapshot sees the session in neither.
    pub(crate) fn retire_session(&self, session_id: u64, collector: &Arc<Collector>) {
        let mut live = self.lock_sessions();
        let full = collector.snapshot();
        live.retain(|(id, _)| *id != session_id);
        self.lock_retired().merge(&full.without_spans());
        drop(live);
        if self.cfg.retain_session_traces {
            let mut snaps = self.trace_snaps.lock().unwrap_or_else(|e| e.into_inner());
            if snaps.len() < TRACE_RETAIN_CAP {
                snaps.push((session_id, full));
            }
        }
    }

    /// Builds the session a first frame asks for: a private scene for
    /// `Hello`, a shared-document replica for `Attach` (creating the
    /// document when a scene is offered; creations count into the
    /// server-plane `serve.collab.docs`). The handshake has already
    /// rejected any other first frame.
    pub(crate) fn open_hosted(
        &self,
        first: &ClientFrame,
        collector: Arc<Collector>,
        templates: Option<&mut atk_apps::TemplateRegistry>,
    ) -> Result<HostedSession, String> {
        match first {
            ClientFrame::Hello { scene, backend } => {
                let mut cfg = self.cfg.session.clone();
                if let Some(b) = backend {
                    cfg.backend = b.clone();
                }
                HostedSession::open_with(scene, cfg, collector, templates)
            }
            ClientFrame::Attach { doc_id, scene } => {
                let attachment = self
                    .registry
                    .attach(doc_id, scene.as_deref())
                    .map_err(|e| e.to_string())?;
                if attachment.created() {
                    self.collector.count("serve.collab.docs", 1);
                }
                HostedSession::open_replica(
                    attachment,
                    self.cfg.session.clone(),
                    collector,
                    templates,
                )
            }
            _ => Err("first frame must be hello or attach".to_string()),
        }
    }

    fn lock_shards(&self) -> MutexGuard<'_, Vec<ShardHandle>> {
        self.shards.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Starts `n` worker shards (idempotent: a no-op when shards are
    /// already running). Shard threads hold only a `Weak` reference
    /// back to the server, so dropping the last external `Arc` (or
    /// calling [`Server::shutdown_shards`]) winds them down.
    pub fn start_shards(self: &Arc<Server>, n: usize) {
        let mut shards = self.lock_shards();
        if !shards.is_empty() {
            return;
        }
        for index in 0..n.max(1) {
            shards.push(ShardHandle::spawn(Arc::downgrade(self), index));
        }
    }

    /// Running worker shards (0 until [`Server::start_shards`]).
    pub fn shard_count(&self) -> usize {
        self.lock_shards().len()
    }

    /// Per-shard connection counts (queued + live), in shard order.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.lock_shards().iter().map(|s| s.load()).collect()
    }

    /// Routes a new connection to the least-loaded shard that is not
    /// draining. `Ok` carries the chosen shard's index; `Err` returns
    /// the transport when no shard can take it (none started, or all
    /// draining/gone) so the caller can send `Busy` itself.
    pub fn admit(&self, t: Box<dyn FrameTransport>) -> Result<usize, Box<dyn FrameTransport>> {
        let shards = self.lock_shards();
        let best = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_draining())
            .min_by_key(|(_, s)| s.load())
            .map(|(i, _)| i);
        match best {
            Some(i) => shards[i].send_conn(t).map(|()| i),
            None => Err(t),
        }
    }

    /// Opens an in-memory connection: the server half is admitted onto
    /// the least-loaded shard and the client half comes back. With
    /// `fault_seed` set, both halves run behind a [`FaultTransport`]:
    /// the client's on a seeded lossless schedule (short reads/writes,
    /// `WouldBlock` storms), the server's as a passthrough that keeps
    /// the byte-stream re-framing symmetric. The oracles, the tests and
    /// self-hosted loadgen all connect through here.
    pub fn connect_mem(&self, fault_seed: Option<u64>) -> Result<Box<dyn FrameTransport>, String> {
        let (client_half, server_half) = MemTransport::pair();
        let (server_t, client_t): (Box<dyn FrameTransport>, Box<dyn FrameTransport>) =
            match fault_seed {
                Some(seed) => (
                    Box::new(FaultTransport::new(server_half, FaultPlan::passthrough())),
                    Box::new(FaultTransport::new(client_half, FaultPlan::lossless(seed))),
                ),
                None => (Box::new(server_half), Box::new(client_half)),
            };
        self.admit(server_t)
            .map_err(|_| "server busy: no shard accepting".to_string())?;
        Ok(client_t)
    }

    /// Asks shard `index` to drain: it stops taking new connections,
    /// closes pending handshakes with `Busy`, and says `Bye {drain}` to
    /// its live sessions (every acked frame has already shipped, so
    /// nothing is lost; clients reconnect and land on another shard).
    /// Returns `false` for an unknown index. The shard thread stays up
    /// serving nothing, so shard indices remain stable.
    pub fn drain_shard(&self, index: usize) -> bool {
        match self.lock_shards().get(index) {
            Some(s) => {
                s.drain();
                true
            }
            None => false,
        }
    }

    /// Stops every shard thread: drains each (same goodbye semantics
    /// as [`Server::drain_shard`]) and joins them. Tests and loadgen
    /// call this so shard threads never outlive the measurement.
    pub fn shutdown_shards(&self) {
        // The handles stay listed while the threads stop, so a merged
        // snapshot taken meanwhile still reads their planes. No lock is
        // held across the join: a stopping shard may answer a `Stats`
        // request, which takes them all.
        let joins: Vec<_> = self
            .lock_shards()
            .iter()
            .filter_map(|s| {
                s.shutdown();
                s.take_join()
            })
            .collect();
        for h in joins {
            let _ = h.join();
        }
        // Move the scheduling counters from the list into the retired
        // accumulator in one step, holding the shard list as
        // `merged_snapshot` does while it reads both, so it keeps them
        // after the threads are gone and never sees them in neither
        // place.
        let mut shards = self.lock_shards();
        let mut retired = self.lock_retired();
        for s in shards.drain(..) {
            retired.merge(&s.collector().snapshot().without_spans());
        }
    }
}

/// Accepts connections forever onto `shards` worker shards (started if
/// not already running): the acceptor thread only hands the socket to
/// the least-loaded shard's admission queue; the shard does the
/// handshake and hosts the session. When every shard is draining the
/// acceptor answers `Busy` itself. Returns only on listener failure.
pub fn serve_listener_sharded(
    server: Arc<Server>,
    listener: TcpListener,
    shards: usize,
) -> io::Result<()> {
    server.start_shards(shards);
    loop {
        let (stream, _) = listener.accept()?;
        if let Err(mut t) = server.admit(Box::new(TcpTransport::new(stream))) {
            server.collector().count("serve.busy_rejects", 1);
            let _ = t.send(&ServerFrame::Busy.encode());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::{Duration, Instant};

    use atk_core::ScriptStep;
    use atk_wm::WindowEvent;

    fn send(t: &mut dyn FrameTransport, frame: ClientFrame) {
        t.send(&frame.encode().unwrap()).unwrap();
    }

    fn recv(t: &mut dyn FrameTransport) -> ServerFrame {
        ServerFrame::decode(&t.recv().unwrap()).unwrap()
    }

    fn hello(scene: &str) -> ClientFrame {
        ClientFrame::Hello {
            scene: scene.into(),
            backend: None,
        }
    }

    /// Waits for the shard to close every connection, then proves
    /// nothing leaked: no admission slot held, no load on the shard.
    fn assert_no_leaks(server: &Server) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.shard_loads() != [0] {
            assert!(
                Instant::now() < deadline,
                "loads {:?}",
                server.shard_loads()
            );
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.active_sessions(), 0);
        assert_eq!(server.shard_loads(), [0]);
    }

    #[test]
    fn handshake_steps_and_bye() {
        let server = Server::start(ServerConfig::default(), 1);
        let mut client = server.connect_mem(None).unwrap();
        send(&mut client, hello("fig1"));
        assert!(matches!(recv(&mut client), ServerFrame::Welcome { .. }));
        assert!(matches!(
            recv(&mut client),
            ServerFrame::Keyframe { seq: 0, .. }
        ));

        send(
            &mut client,
            ClientFrame::Step(ScriptStep::Event(WindowEvent::ch('z'))),
        );
        match recv(&mut client) {
            ServerFrame::Update { seq, .. } | ServerFrame::Keyframe { seq, .. } => {
                assert_eq!(seq, 1)
            }
            other => panic!("unexpected {other:?}"),
        }

        send(&mut client, ClientFrame::Bye);
        assert_eq!(
            recv(&mut client),
            ServerFrame::Bye {
                reason: "bye".into()
            }
        );
        assert_no_leaks(&server);
    }

    #[test]
    fn admission_control_rejects_with_busy() {
        let server = Server::start(
            ServerConfig {
                max_sessions: 1,
                ..ServerConfig::default()
            },
            1,
        );

        // First session occupies the only slot.
        let mut c1 = server.connect_mem(None).unwrap();
        send(&mut c1, hello("fig1"));
        let _welcome = recv(&mut c1);
        let _key = recv(&mut c1);

        // Second connection is turned away politely.
        let mut c2 = server.connect_mem(None).unwrap();
        send(&mut c2, hello("fig1"));
        assert_eq!(recv(&mut c2), ServerFrame::Busy);

        // After the first leaves, the slot frees up.
        send(&mut c1, ClientFrame::Bye);
        let _bye = recv(&mut c1);
        assert_no_leaks(&server);
        assert_eq!(
            server.collector().snapshot().counter("serve.busy_rejects"),
            1
        );
    }

    #[test]
    fn burst_past_queue_cap_drops_oldest_and_counts() {
        let server = Server::start(
            ServerConfig {
                session: SessionConfig {
                    queue_cap: 4,
                    ..SessionConfig::default()
                },
                ..ServerConfig::default()
            },
            1,
        );
        let (mut client, server_half) = MemTransport::pair();

        // Preload the whole conversation before the shard ever sees the
        // connection: hello + a 10-step burst + bye. The first drain
        // after the handshake sees all 10 steps at once and must shed 6.
        send(&mut client, hello("fig1"));
        for i in 0..10 {
            send(
                &mut client,
                ClientFrame::Step(ScriptStep::Event(WindowEvent::Tick(1 + i))),
            );
        }
        send(&mut client, ClientFrame::Bye);
        assert!(server.admit(Box::new(server_half)).is_ok());

        assert!(matches!(recv(&mut client), ServerFrame::Welcome { .. }));
        assert!(matches!(
            recv(&mut client),
            ServerFrame::Keyframe { seq: 0, .. }
        ));
        // All 10 steps are accounted for (4 applied + 6 dropped).
        match recv(&mut client) {
            ServerFrame::Update { seq, .. } | ServerFrame::Keyframe { seq, .. } => {
                assert_eq!(seq, 10)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(recv(&mut client), ServerFrame::Bye { .. }));
        assert_no_leaks(&server);
        // The drop counter lives on the (now retired) session's
        // collector; the merged server-wide view still carries it.
        assert_eq!(
            server.merged_snapshot().counter("serve.backpressure_drops"),
            6
        );
        assert_eq!(
            server
                .collector()
                .snapshot()
                .counter("serve.backpressure_drops"),
            0,
            "server-plane collector does not own session counters"
        );
    }

    /// The default queue cap, at its value: a preloaded burst one step
    /// past it drains as one batch, drops its oldest step, still counts
    /// every step in `seq`, and ships the frame of the steps it kept.
    /// The burst is a focus click and typing, so the dropped press
    /// leaves the typing unfocused: keeping it would show the text.
    #[test]
    fn a_burst_one_past_the_default_queue_cap_drops_one_step() {
        let cap = SessionConfig::default().queue_cap;
        assert_eq!(cap, 256);
        let mut steps = vec![
            ScriptStep::Event(WindowEvent::left_down(70, 70)),
            ScriptStep::Event(WindowEvent::left_up(70, 70)),
        ];
        let text = "a queue of typing\n".chars().cycle().take(cap - 1);
        steps.extend(text.map(|c| {
            ScriptStep::Event(match c {
                '\n' => WindowEvent::Key(atk_wm::Key::Return),
                c => WindowEvent::ch(c),
            })
        }));
        let server = Server::start(ServerConfig::default(), 1);
        let (mut client, server_half) = MemTransport::pair();
        send(&mut client, hello("fig5"));
        for step in &steps {
            send(&mut client, ClientFrame::Step(step.clone()));
        }
        send(&mut client, ClientFrame::Bye);
        assert!(server.admit(Box::new(server_half)).is_ok());

        assert!(matches!(recv(&mut client), ServerFrame::Welcome { .. }));
        let ServerFrame::Keyframe { seq: 0, frame } = recv(&mut client) else {
            panic!("no initial keyframe");
        };
        let mut fb = (*frame).clone();
        match recv(&mut client) {
            ServerFrame::Update { seq, moved, rects } => {
                assert_eq!(seq, cap as u64 + 1);
                crate::wire::apply_update(&mut fb, moved, &rects).unwrap();
            }
            ServerFrame::Keyframe { seq, frame } => {
                assert_eq!(seq, cap as u64 + 1);
                fb = (*frame).clone();
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(recv(&mut client), ServerFrame::Bye { .. }));
        assert_no_leaks(&server);
        assert_eq!(
            server.merged_snapshot().counter("serve.backpressure_drops"),
            1
        );
        let replay = |steps: &[ScriptStep]| {
            let mut reference = atk_check::Session::build("fig5", "x11sim").unwrap();
            for step in steps {
                reference.apply(step);
            }
            reference.im.snapshot().unwrap()
        };
        assert_eq!(crate::oracle::divergence(&replay(&steps[1..]), &fb), None);
        assert!(crate::oracle::divergence(&replay(&steps), &fb).is_some());
    }

    /// The default session cap, at its value: 128 concurrent sessions
    /// are admitted, and the 129th `Hello` is answered `Busy`.
    #[test]
    fn the_default_session_cap_turns_away_the_next_hello() {
        let max = ServerConfig::default().max_sessions;
        assert_eq!(max, 128);
        let server = Server::start(ServerConfig::default(), 1);
        let live: Vec<_> = (0..max)
            .map(|_| {
                let mut c = server.connect_mem(None).unwrap();
                send(&mut c, hello("fig1"));
                assert!(matches!(recv(&mut c), ServerFrame::Welcome { .. }));
                assert!(matches!(recv(&mut c), ServerFrame::Keyframe { .. }));
                c
            })
            .collect();
        let mut turned_away = server.connect_mem(None).unwrap();
        send(&mut turned_away, hello("fig1"));
        assert_eq!(recv(&mut turned_away), ServerFrame::Busy);
        for mut c in live {
            send(&mut c, ClientFrame::Bye);
            assert!(matches!(recv(&mut c), ServerFrame::Bye { .. }));
        }
        assert_no_leaks(&server);
        assert_eq!(
            server.collector().snapshot().counter("serve.busy_rejects"),
            1
        );
    }

    #[test]
    fn unknown_scene_reports_error_and_releases_slot() {
        let server = Server::start(ServerConfig::default(), 1);
        let mut client = server.connect_mem(None).unwrap();
        send(&mut client, hello("no-such-scene"));
        let reply = recv(&mut client);
        assert!(matches!(reply, ServerFrame::Error { .. }), "{reply:?}");
        assert_no_leaks(&server);
    }

    #[test]
    fn garbage_frame_fails_the_connection_without_panicking() {
        let server = Server::start(ServerConfig::default(), 1);
        let mut client = server.connect_mem(None).unwrap();
        client.send(&[0xFF, 0x00, 0x37]).unwrap();
        assert!(matches!(recv(&mut client), ServerFrame::Error { .. }));
        assert_no_leaks(&server);
        assert_eq!(
            server.shard_snapshots()[0].counter("serve.shard.failures"),
            1
        );
    }

    /// A client that vanishes without a goodbye — mid-script, or before
    /// its `Welcome` could even be sent — still gives back its slot.
    #[test]
    fn client_hang_up_releases_its_slot() {
        let server = Server::start(ServerConfig::default(), 1);
        let mut client = server.connect_mem(None).unwrap();
        send(&mut client, hello("fig1"));
        let _welcome = recv(&mut client);
        let _key = recv(&mut client);
        send(
            &mut client,
            ClientFrame::Step(ScriptStep::Event(WindowEvent::ch('z'))),
        );
        let _frame = recv(&mut client);
        drop(client);
        assert_no_leaks(&server);

        let (mut client, server_half) = MemTransport::pair();
        send(&mut client, hello("fig1"));
        drop(client);
        assert!(server.admit(Box::new(server_half)).is_ok());
        assert_no_leaks(&server);
        assert_eq!(
            server.shard_snapshots()[0].counter("serve.shard.failures"),
            2
        );
    }

    /// A server with no shards, for driving the session registry
    /// directly.
    fn registry_only(cfg: ServerConfig) -> Arc<Server> {
        let collector = Arc::new(Collector::new());
        collector.enable();
        Server::new(cfg, collector)
    }

    /// A `Stats` reply that lands while a session is closing must count
    /// it once — live or retired — never in neither, or a merged
    /// counter steps backwards.
    #[test]
    fn merged_counters_never_go_backwards_while_sessions_churn() {
        const SESSIONS: u64 = 3000;
        let server = registry_only(ServerConfig::default());
        let done = std::sync::atomic::AtomicBool::new(false);
        let mut reads = 0u64;
        thread::scope(|s| {
            s.spawn(|| {
                for id in 0..SESSIONS {
                    let c = server.open_session_collector(id);
                    c.count("churn.ops", 1);
                    server.retire_session(id, &c);
                }
                done.store(true, Ordering::SeqCst);
            });
            // Read before the first look at `done`: the writer may
            // finish every session before this thread runs at all.
            let mut last = 0;
            loop {
                let now = server.merged_snapshot().counter("churn.ops");
                assert!(now >= last, "merged churn.ops went {last} -> {now}");
                last = now;
                reads += 1;
                if done.load(Ordering::SeqCst) {
                    break;
                }
            }
        });
        assert!(reads > 0);
        assert_eq!(server.merged_snapshot().counter("churn.ops"), SESSIONS);
    }

    /// A merged snapshot taken while the shards stop must count each
    /// shard plane once — still listed, or folded into the retired
    /// totals — never in neither, or a `serve.shard.*` counter steps
    /// backwards.
    #[test]
    fn merged_shard_counters_never_go_backwards_across_shutdown() {
        let mut reads = 0u64;
        for _ in 0..200 {
            let server = Server::start(ServerConfig::default(), 2);
            for s in server.lock_shards().iter() {
                // The shard thread enables its plane as it starts; this
                // may run first.
                s.collector().enable();
                s.collector().count("churn.shard", 1);
            }
            let done = std::sync::atomic::AtomicBool::new(false);
            thread::scope(|s| {
                s.spawn(|| {
                    server.shutdown_shards();
                    done.store(true, Ordering::SeqCst);
                });
                while !done.load(Ordering::SeqCst) {
                    let now = server.merged_snapshot().counter("churn.shard");
                    assert_eq!(now, 2, "merged churn.shard read {now} mid-shutdown");
                    reads += 1;
                }
            });
            assert_eq!(server.shard_count(), 0);
            assert_eq!(server.merged_snapshot().counter("churn.shard"), 2);
        }
        assert!(reads > 0);
    }

    #[test]
    fn session_collectors_keep_the_newest_spans_up_to_the_cap() {
        let server = registry_only(ServerConfig::default());
        let c = server.open_session_collector(1);
        for _ in 0..SESSION_SPAN_CAPACITY + 5 {
            drop(c.span("bounded.span"));
        }
        let snap = c.snapshot();
        assert_eq!(snap.spans.len(), SESSION_SPAN_CAPACITY);
        assert_eq!(snap.dropped_spans, 5);
    }

    #[test]
    fn the_slow_frame_log_keeps_the_newest_dumps_up_to_the_cap() {
        let server = registry_only(ServerConfig::default());
        for i in 0..=SLOW_LOG_CAPACITY {
            server.slow_log().push(format!("dump {i}"));
        }
        let kept = server.slow_log().entries();
        assert_eq!(kept.len(), SLOW_LOG_CAPACITY);
        assert_eq!(kept.first().map(String::as_str), Some("dump 1"));
        assert_eq!(
            server.slow_log().total_pushed(),
            SLOW_LOG_CAPACITY as u64 + 1
        );
    }

    #[test]
    fn retained_session_traces_stop_at_the_cap() {
        let server = registry_only(ServerConfig {
            retain_session_traces: true,
            ..ServerConfig::default()
        });
        let cap = TRACE_RETAIN_CAP as u64;
        for id in 0..=cap {
            let c = server.open_session_collector(id);
            server.retire_session(id, &c);
        }
        let kept: Vec<String> = server
            .trace_parts()
            .into_iter()
            .map(|(label, _)| label)
            .filter(|label| label.starts_with("session-"))
            .collect();
        assert_eq!(kept.len(), TRACE_RETAIN_CAP);
        assert!(
            !kept.contains(&format!("session-{cap}")),
            "the session past the cap was kept"
        );
    }
}
