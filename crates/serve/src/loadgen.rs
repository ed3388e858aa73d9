//! The load generator: N concurrent scripted clients against a server,
//! with the throughput/latency/compression report the `loadgen` bin
//! prints and the e13–e17 benches sample.
//!
//! Each client thread replays a seed-stable step stream (the fuzzer's
//! weighted generator, or a deterministic typing-heavy profile for the
//! diff-compression measurements) with a pipelining window of
//! `WINDOW` (8) steps, so bursts actually reach the server as batches
//! without unbounded frames piling up in flight.
//!
//! [`run_loadgen`] hosts the server in process and connects every
//! client through [`Server::connect_mem`], unless [`LoadConfig::connect`]
//! names a running server to drive over TCP.
//!
//! Scale knobs: [`LoadConfig::shards`] sets how many worker shards host
//! the fleet; [`LoadConfig::rendezvous`] parks every connected client at a
//! barrier until the whole fleet is live, making "N concurrent
//! sessions" literal — the server's `serve.peak_sessions` gauge is the
//! proof. The benches also drive replicated-document fleets
//! ([`Profile::Collab`]) and admission storms ([`LoadConfig::ramp`]).

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use atk_check::gen::{interleaved_script, StepGen};
use atk_check::Session;
use atk_core::ScriptStep;
use atk_graphics::Framebuffer;
use atk_trace::{Snapshot, Stage};
use atk_wm::{Key, WindowEvent};

use crate::client::{percentile, ClientStats, ServeClient};
use crate::server::{Server, ServerConfig};
use crate::transport::{FrameTransport, TcpTransport};

/// Steps a client may send before it waits for a covering frame.
const WINDOW: u64 = 8;

/// What steps the clients replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The fuzzer's weighted mix (typing, mouse, menus, ticks, resizes).
    Mixed,
    /// Typing only — the workload the ≥5× diff-compression claim is
    /// about.
    Typing,
    /// Replicated documents: [`LoadConfig::docs`] shared documents,
    /// each carrying [`LoadConfig::writers`] writers submitting a
    /// seeded interleaved edit stream through the document's op log
    /// plus [`LoadConfig::watchers`] silent replicas. The report adds
    /// ops/s, fanout p99, replay-lag percentiles, and a per-document
    /// divergence count (replicas whose final framebuffer disagrees —
    /// must be 0). Library only: E16 runs it.
    Collab,
}

impl Profile {
    /// Parses `mixed` / `typing`.
    pub fn parse(s: &str) -> Result<Profile, String> {
        match s {
            "mixed" => Ok(Profile::Mixed),
            "typing" => Ok(Profile::Typing),
            other => Err(format!("unknown profile `{other}` (mixed|typing)")),
        }
    }
}

/// Loadgen tuning.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client sessions.
    pub sessions: usize,
    /// Steps per session.
    pub steps: usize,
    /// Scene every session opens.
    pub scene: String,
    /// Base seed; client `i` uses `seed + i`.
    pub seed: u64,
    /// Step profile.
    pub profile: Profile,
    /// Run over TCP against this already-listening address instead of
    /// an in-process server.
    pub connect: Option<String>,
    /// After the fleet finishes, open one extra session whose only job
    /// is a `Stats` wire request; the reply lands in the report.
    pub stats_probe: bool,
    /// Server-side config when self-hosting.
    pub server: ServerConfig,
    /// Worker shards hosting a self-hosted fleet; must be at least 1
    /// ([`run_loadgen`] rejects 0).
    pub shards: usize,
    /// Park every connected client at a barrier until the whole fleet
    /// is connected, so "N concurrent sessions" is literal (proven by
    /// `serve.peak_sessions`). Clients whose connect failed still
    /// reach the barrier — a lone `Busy` must not hang the fleet.
    pub rendezvous: bool,
    /// Collab profile: shared documents in the fleet.
    pub docs: usize,
    /// Collab profile: writers per document. [`LoadConfig::steps`] is
    /// the *merged* edit count per document, interleaved across its
    /// writers.
    pub writers: usize,
    /// Collab profile: silent watcher replicas per document.
    pub watchers: usize,
    /// Ramp mode: every client connects, waits for its initial
    /// keyframe, and says goodbye without sending a step — a pure
    /// session-admission storm. The report's TTFF percentiles then
    /// measure exactly what the template-fork fast path is for:
    /// hello → first frame.
    pub ramp: bool,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            sessions: 8,
            steps: 50,
            scene: "fig5".into(),
            seed: 42,
            profile: Profile::Mixed,
            connect: None,
            stats_probe: false,
            server: ServerConfig::default(),
            shards: 4,
            rendezvous: false,
            docs: 2,
            writers: 2,
            watchers: 2,
            ramp: false,
        }
    }
}

/// The aggregated result of one loadgen run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Sessions that completed their script and said goodbye.
    pub completed: usize,
    /// Sessions rejected with `Busy`.
    pub rejected: usize,
    /// Client-side protocol/transport errors (must be 0 for a clean run).
    pub errors: Vec<String>,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Completed sessions per second.
    pub sessions_per_s: f64,
    /// Frames received per second, summed over clients.
    pub frames_per_s: f64,
    /// Total frames received.
    pub frames: u64,
    /// Total raw frame bytes received (diff + keyframe payloads,
    /// counted at their raw wire length).
    pub bytes_on_wire: u64,
    /// Bytes that actually crossed the wire after the per-frame
    /// raw-vs-RLE choice.
    pub encoded_bytes: u64,
    /// keyframe-equivalent bytes ÷ raw frame bytes.
    pub compression_ratio: f64,
    /// Raw frame bytes ÷ encoded bytes (≥ 1.0 when RLE won frames).
    pub encode_ratio: f64,
    /// p50 of per-step frame latency, microseconds.
    pub p50_us: u64,
    /// p99 of per-step frame latency, microseconds.
    pub p99_us: u64,
    /// p50 of time-to-first-frame (hello → initial keyframe applied),
    /// microseconds, over completed sessions.
    pub ttff_p50_us: u64,
    /// p99 of time-to-first-frame, microseconds.
    pub ttff_p99_us: u64,
    /// p50 of the client's share of time-to-first-frame (decoding and
    /// adopting the initial keyframe), microseconds.
    pub ttff_decode_p50_us: u64,
    /// `world.forks` from the in-process server's merged snapshot —
    /// sessions born by template fork (`None` against remote servers).
    pub forks: Option<u64>,
    /// `world.template_builds` merged across shards — cold scene
    /// builds paid to warm the per-shard template caches.
    pub template_builds: Option<u64>,
    /// `serve.backpressure_drops` from the in-process server
    /// (`None` when running against a remote one).
    pub backpressure_drops: Option<u64>,
    /// (p50, p99) of the server-side `serve.frame_us` histogram —
    /// batch processing time without the wire (`None` for remote
    /// servers, approximate to log2-bucket resolution).
    pub server_frame_us: Option<(u64, u64)>,
    /// Per-stage latency attribution from the server-wide merged
    /// snapshot: `(stage name, ~p50 us, ~p99 us)` for every stage that
    /// recorded at least one frame. Empty against remote servers or
    /// with [`SessionConfig::frame_trace`](crate::SessionConfig::frame_trace)
    /// off.
    pub stage_us: Vec<(&'static str, u64, u64)>,
    /// `serve.slo_violations` server-wide (`None` for remote servers).
    pub slo_violations: Option<u64>,
    /// Slow-frame dump lines from the in-process server's SLO log.
    pub slow_frames: Vec<String>,
    /// Highest concurrent-session count the server observed
    /// (`serve.peak_sessions`) — the proof behind `--min-concurrent`.
    /// `None` against remote servers.
    pub peak_sessions: Option<u64>,
    /// Collab: submitted ops per second across all documents.
    pub ops_per_s: f64,
    /// Collab: ~p99 of `serve.collab.fanout_us` — how long one op took
    /// to append to its document's log and ring every replica (`None`
    /// for remote servers or non-collab runs).
    pub fanout_p99_us: Option<u64>,
    /// Collab: `(~p50, ~p99)` of `serve.collab.replay_lag` — ops a
    /// replica was behind the log head when it shipped a frame.
    pub replay_lag_p50_p99: Option<(u64, u64)>,
    /// Collab: replicas whose final framebuffer disagreed with their
    /// document's first replica (`Some(0)` on a clean run; `None` for
    /// non-collab profiles).
    pub divergences: Option<usize>,
    /// `(text, json)` reply of the post-run `Stats` probe, when
    /// [`LoadConfig::stats_probe`] was set.
    pub stats_reply: Option<(String, String)>,
    /// Labeled snapshots for `chrome_trace_json_multi` (server plane +
    /// one per session). Non-empty only when self-hosting with
    /// `ServerConfig::retain_session_traces`.
    pub trace_parts: Vec<(String, Snapshot)>,
}

/// Builds one client's step stream. Deterministic per (profile, seed).
pub fn client_script(
    profile: Profile,
    scene: &str,
    seed: u64,
    steps: usize,
) -> Result<Vec<ScriptStep>, String> {
    match profile {
        Profile::Mixed => fuzz_script(scene, "x11sim", seed, steps),
        Profile::Typing => {
            let mut session = Session::build(scene, "x11sim")?;
            let size = session.im.window_mut().size();
            Ok(typing_script(size.width, size.height, seed, steps))
        }
        // Collab scripts are per-document interleavings, not
        // per-client streams; the collab entry point builds them.
        Profile::Collab => Err("collab has no single-client script".into()),
    }
}

/// Records `steps` steps of the fuzzer's weighted mix on `backend`.
/// Generation reads live session state (window size, offered menus),
/// so it records against a throwaway local session.
pub(crate) fn fuzz_script(
    scene: &str,
    backend: &str,
    seed: u64,
    steps: usize,
) -> Result<Vec<ScriptStep>, String> {
    let mut session = Session::build(scene, backend)?;
    let mut gen = StepGen::new(seed);
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let step = gen.next_step(&mut session.world, &mut session.im);
        session.apply(&step);
        out.push(step);
    }
    Ok(out)
}

/// A seed-rotated sentence with line breaks: the classic "user typing
/// into ez" workload. Keys only land once a text view has focus, so
/// the script opens with a click in the upper-left text area (w/8, h/8
/// focuses a text view in every shipped scene).
fn typing_script(width: i32, height: i32, seed: u64, steps: usize) -> Vec<ScriptStep> {
    const TEXT: &[u8] = b"the quick brown fox jumps over the lazy dog ";
    let mut out = Vec::with_capacity(steps);
    if steps >= 2 {
        out.push(ScriptStep::Event(WindowEvent::left_down(
            width / 8,
            height / 8,
        )));
        out.push(ScriptStep::Event(WindowEvent::left_up(
            width / 8,
            height / 8,
        )));
    }
    for i in out.len()..steps {
        let step = if i % 24 == 23 {
            ScriptStep::Event(WindowEvent::Key(Key::Return))
        } else {
            let c = TEXT[(seed as usize + i) % TEXT.len()] as char;
            ScriptStep::Event(WindowEvent::Key(Key::Char(c)))
        };
        out.push(step);
    }
    out
}

/// One client's completed run. A collab replica also carries its
/// final reconstruction (for the cross-replica divergence check) and
/// the ops it submitted.
struct DriveOutcome {
    stats: ClientStats,
    fb: Option<Framebuffer>,
    ops: u64,
}

/// Replays one script over a fresh connection. With a rendezvous
/// barrier the client parks right after its handshake — *every* client
/// reaches the barrier, connect failure or not, so one `Busy` can't
/// deadlock the fleet.
fn drive(
    transport: Result<Box<dyn FrameTransport>, String>,
    scene: &str,
    script: &[ScriptStep],
    rendezvous: Option<Arc<Barrier>>,
) -> Result<DriveOutcome, String> {
    let connected =
        transport.and_then(|t| ServeClient::connect(t, scene).map_err(|e| e.to_string()));
    if let Some(b) = rendezvous {
        b.wait();
    }
    let mut client = connected?;
    replay(&mut client, script)?;
    let stats = client.finish().map_err(|e| e.to_string())?;
    Ok(DriveOutcome {
        stats,
        fb: None,
        ops: 0,
    })
}

/// Sends `script` through `client` with a `WINDOW`-step pipelining
/// window, then waits for the frame covering its last step.
fn replay(
    client: &mut ServeClient<Box<dyn FrameTransport>>,
    script: &[ScriptStep],
) -> Result<(), String> {
    for step in script {
        client.send_step(step).map_err(|e| e.to_string())?;
        if client.unacked() >= WINDOW {
            client.sync().map_err(|e| e.to_string())?;
        }
        if client.ended() {
            return Err("server ended session mid-script".into());
        }
    }
    client.sync().map_err(|e| e.to_string())
}

/// Running totals over finished clients; [`Tally::report`] builds the
/// [`LoadReport`] for either fleet shape.
#[derive(Default)]
struct Tally {
    completed: usize,
    rejected: usize,
    errors: Vec<String>,
    frames: u64,
    bytes: u64,
    encoded: u64,
    equiv: u64,
    ops: u64,
    latencies: Vec<u64>,
    ttffs: Vec<u64>,
    ttff_decodes: Vec<u64>,
}

impl Tally {
    /// Folds in one client thread's result; returns the final
    /// reconstruction a completed collab replica carried.
    fn add(
        &mut self,
        joined: thread::Result<Result<DriveOutcome, String>>,
    ) -> Result<Option<Framebuffer>, String> {
        match joined.map_err(|_| "client thread panicked")? {
            Ok(DriveOutcome { stats, fb, ops }) => {
                self.completed += 1;
                self.frames += stats.frames;
                self.bytes += stats.diff_bytes + stats.full_bytes;
                self.encoded += stats.encoded_bytes;
                self.equiv += stats.keyframe_equiv_bytes;
                self.ops += ops;
                self.latencies.extend(stats.latencies_us);
                self.ttffs.push(stats.ttff_us);
                self.ttff_decodes.push(stats.ttff_decode_us);
                return Ok(fb);
            }
            Err(e) if e.contains("server busy") => self.rejected += 1,
            Err(e) => self.errors.push(e),
        }
        Ok(None)
    }

    /// The client-side report; server-side fields are filled in by
    /// [`attach_server_view`] when self-hosting.
    fn report(mut self, started: Instant, divergences: Option<usize>) -> LoadReport {
        let wall_s = started.elapsed().as_secs_f64().max(1e-9);
        self.latencies.sort_unstable();
        self.ttffs.sort_unstable();
        self.ttff_decodes.sort_unstable();
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        LoadReport {
            completed: self.completed,
            rejected: self.rejected,
            errors: self.errors,
            wall_s,
            sessions_per_s: self.completed as f64 / wall_s,
            frames_per_s: self.frames as f64 / wall_s,
            frames: self.frames,
            bytes_on_wire: self.bytes,
            encoded_bytes: self.encoded,
            compression_ratio: ratio(self.equiv, self.bytes),
            encode_ratio: ratio(self.bytes, self.encoded),
            p50_us: percentile(&self.latencies, 0.50),
            p99_us: percentile(&self.latencies, 0.99),
            ttff_p50_us: percentile(&self.ttffs, 0.50),
            ttff_p99_us: percentile(&self.ttffs, 0.99),
            ttff_decode_p50_us: percentile(&self.ttff_decodes, 0.50),
            ops_per_s: self.ops as f64 / wall_s,
            divergences,
            ..LoadReport::default()
        }
    }
}

/// A shared transport factory: a fresh connection (TCP or in-memory)
/// per call.
type Connector = Arc<dyn Fn() -> Result<Box<dyn FrameTransport>, String> + Send + Sync>;

/// Drives one replica of a shared document. Writers replay their slice
/// of the document's interleaved script with the usual pipelining
/// window; watchers just drain frames. Nobody says goodbye until every
/// writer on the document has had its last edit acked — from that
/// point the whole log is written, so `Bye` catch-up converges each
/// replica and the final framebuffers are comparable.
fn drive_replica(
    t: Box<dyn FrameTransport>,
    doc_id: &str,
    scene: &str,
    script: &[ScriptStep],
    writers_left: Arc<AtomicUsize>,
) -> Result<DriveOutcome, String> {
    let mut client = ServeClient::attach(t, doc_id, Some(scene)).map_err(|e| e.to_string())?;
    if !script.is_empty() {
        replay(&mut client, script)?;
        writers_left.fetch_sub(1, Ordering::SeqCst);
    }
    while writers_left.load(Ordering::SeqCst) > 0 {
        client.drain_frames().map_err(|e| e.to_string())?;
        thread::sleep(Duration::from_millis(1));
    }
    let (stats, fb) = client.finish_with_frame().map_err(|e| e.to_string())?;
    Ok(DriveOutcome {
        stats,
        fb: Some(fb),
        ops: script.len() as u64,
    })
}

/// The collab fleet: K documents × (writers + watchers) replicas over
/// whatever transport `connect` hands out. Every replica offers the
/// scene on attach, so thread order never matters for document
/// creation. The report adds ops/s and the divergence count.
fn run_collab(cfg: &LoadConfig, connect: &Connector) -> Result<LoadReport, String> {
    let writers = cfg.writers.max(1);
    let per_doc = writers + cfg.watchers;
    let docs = cfg.docs.max(1);

    // One seeded interleaving per document, sliced per writer. The
    // slice order is the writer's own coherent stream; the log
    // re-merges them under whatever real interleaving the threads
    // produce.
    let mut scripts: Vec<Vec<Vec<ScriptStep>>> = Vec::with_capacity(docs);
    for d in 0..docs {
        let merged = interleaved_script(&cfg.scene, cfg.seed + d as u64, writers, cfg.steps)?;
        let mut per = vec![Vec::new(); writers];
        for (w, step) in merged {
            per[w].push(step);
        }
        scripts.push(per);
    }

    let writers_left: Vec<Arc<AtomicUsize>> = (0..docs)
        .map(|_| Arc::new(AtomicUsize::new(writers)))
        .collect();
    let started = Instant::now();
    let mut handles = Vec::new();
    for d in 0..docs {
        // Writers take their slice of the interleaving; watchers get an
        // empty script and just apply what fans out.
        let mut doc_scripts = std::mem::take(&mut scripts[d]);
        doc_scripts.resize(per_doc, Vec::new());
        for script in doc_scripts {
            let connect = Arc::clone(connect);
            let left = Arc::clone(&writers_left[d]);
            let scene = cfg.scene.clone();
            let doc_id = format!("doc-{d}");
            handles.push((
                d,
                thread::spawn(move || drive_replica(connect()?, &doc_id, &scene, &script, left)),
            ));
        }
    }

    let mut tally = Tally::default();
    let mut finals: Vec<Vec<Framebuffer>> = vec![Vec::new(); docs];
    for (d, h) in handles {
        if let Some(fb) = tally.add(h.join())? {
            finals[d].push(fb);
        }
    }

    // The honesty gate: within a document, every replica's final
    // reconstruction must be byte-identical to the first one's.
    let mut divergences = 0usize;
    for doc in &finals {
        if let Some(first) = doc.first() {
            divergences += doc[1..].iter().filter(|fb| !fb.same_pixels(first)).count();
        }
    }
    Ok(tally.report(started, Some(divergences)))
}

/// The private-session fleet: one client thread per script.
fn run_sessions(cfg: &LoadConfig, connect: &Connector) -> Result<LoadReport, String> {
    // Pre-record every script before the clock starts — scene building
    // for the mixed profile is toolkit work, not serving work.
    let scripts = record_scripts(cfg)?;

    let barrier = cfg.rendezvous.then(|| Arc::new(Barrier::new(cfg.sessions)));
    let started = Instant::now();
    let handles: Vec<_> = scripts
        .into_iter()
        .map(|script| {
            let connect = Arc::clone(connect);
            let scene = cfg.scene.clone();
            let barrier = barrier.clone();
            thread::spawn(move || drive(connect(), &scene, &script, barrier))
        })
        .collect();
    let mut tally = Tally::default();
    for h in handles {
        tally.add(h.join())?;
    }
    Ok(tally.report(started, None))
}

/// Fills the server-side fields of a report from the in-process
/// server's merged (server ⊕ retired ⊕ live) snapshot.
fn attach_server_view(report: &mut LoadReport, server: &Server) {
    let merged = server.merged_snapshot();
    report.backpressure_drops = Some(merged.counter("serve.backpressure_drops"));
    report.server_frame_us = merged
        .histogram("serve.frame_us")
        .map(|h| (h.approx_percentile(0.50), h.approx_percentile(0.99)));
    report.stage_us = Stage::ALL
        .iter()
        .filter_map(|s| {
            let h = merged.histogram(s.key())?;
            (h.count > 0).then(|| {
                (
                    s.name(),
                    h.approx_percentile(0.50),
                    h.approx_percentile(0.99),
                )
            })
        })
        .collect();
    report.slo_violations = Some(merged.counter("serve.slo_violations"));
    report.slow_frames = server.slow_log().entries();
    report.peak_sessions = Some(server.peak_sessions() as u64);
    report.forks = Some(merged.counter("world.forks"));
    report.template_builds = Some(merged.counter("world.template_builds"));
    report.fanout_p99_us = merged
        .histogram("serve.collab.fanout_us")
        .map(|h| h.approx_percentile(0.99));
    report.replay_lag_p50_p99 = merged
        .histogram("serve.collab.replay_lag")
        .map(|h| (h.approx_percentile(0.50), h.approx_percentile(0.99)));
    report.trace_parts = server.trace_parts();
}

fn record_scripts(cfg: &LoadConfig) -> Result<Vec<Vec<ScriptStep>>, String> {
    if cfg.ramp {
        // Ramp sessions send no steps: connect, first keyframe, bye.
        return Ok(vec![Vec::new(); cfg.sessions]);
    }
    match cfg.profile {
        Profile::Mixed => (0..cfg.sessions)
            .map(|i| client_script(cfg.profile, &cfg.scene, cfg.seed + i as u64, cfg.steps))
            .collect(),
        // Typing scripts only need the window size, so one throwaway
        // session serves the whole fleet — building hundreds of scenes
        // to read the same size would dominate setup at the 512-session
        // concurrency floor.
        Profile::Typing => {
            let mut session = Session::build(&cfg.scene, "x11sim")?;
            let size = session.im.window_mut().size();
            Ok((0..cfg.sessions)
                .map(|i| typing_script(size.width, size.height, cfg.seed + i as u64, cfg.steps))
                .collect())
        }
        // Unreachable: the collab profile branches off before scripts
        // are recorded (its scripts are per-document, not per-client).
        Profile::Collab => Err("collab has no per-client scripts".into()),
    }
}

/// Runs the whole fleet and aggregates the report. Against
/// `cfg.connect`'s server every client connects over TCP; otherwise a
/// server with `cfg.shards` shards runs in process, every client enters
/// it through [`Server::connect_mem`], and once the fleet is done the
/// report adds the server's side of the run.
pub fn run_loadgen(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let (server, connect): (Option<Arc<Server>>, Connector) = match cfg.connect.clone() {
        Some(addr) => (
            None,
            Arc::new(move || {
                TcpStream::connect(&addr)
                    .map(|s| Box::new(TcpTransport::new(s)) as Box<dyn FrameTransport>)
                    .map_err(|e| format!("connect {addr}: {e}"))
            }),
        ),
        None => {
            if cfg.shards == 0 {
                return Err("shards must be at least 1".into());
            }
            let server = Server::start(cfg.server.clone(), cfg.shards);
            let srv = Arc::clone(&server);
            (Some(server), Arc::new(move || srv.connect_mem(None)))
        }
    };
    let mut report = match cfg.profile {
        Profile::Collab => run_collab(cfg, &connect)?,
        Profile::Mixed | Profile::Typing => run_sessions(cfg, &connect)?,
    };
    if cfg.stats_probe {
        let t = connect().map_err(|e| format!("stats probe: {e}"))?;
        report.stats_reply = Some(probe_stats(t, &cfg.scene)?);
    }
    if let Some(server) = &server {
        // Joining the shard threads guarantees every in-flight close
        // has landed in its collector before the counters are read.
        server.shutdown_shards();
        attach_server_view(&mut report, server);
    }
    Ok(report)
}

/// Opens one session, issues a `Stats` request, and returns the
/// `(text, json)` reply.
fn probe_stats(
    transport: Box<dyn FrameTransport>,
    scene: &str,
) -> Result<(String, String), String> {
    let mut client = ServeClient::connect(transport, scene).map_err(|e| e.to_string())?;
    let reply = client.request_stats().map_err(|e| e.to_string())?;
    client.finish().map_err(|e| e.to_string())?;
    Ok(reply)
}

/// Renders the report the way the bin prints it (and CI greps it).
pub fn format_report(cfg: &LoadConfig, r: &LoadReport) -> String {
    let mut out = String::new();
    let dispatch = match &cfg.connect {
        Some(addr) => format!("remote server {addr}"),
        None => format!("{} shard(s)", cfg.shards),
    };
    out.push_str(&format!(
        "loadgen: {} sessions x {} steps on {} ({:?} profile, window {}, {dispatch})\n",
        cfg.sessions, cfg.steps, cfg.scene, cfg.profile, WINDOW
    ));
    out.push_str(&format!(
        "  completed: {} ({} rejected busy, {} errors) in {:.2}s\n",
        r.completed,
        r.rejected,
        r.errors.len(),
        r.wall_s
    ));
    if let Some(peak) = r.peak_sessions {
        out.push_str(&format!("  peak concurrent sessions: {peak}\n"));
    }
    out.push_str(&format!(
        "  throughput: {:.1} sessions/s, {:.0} frames/s\n",
        r.sessions_per_s, r.frames_per_s
    ));
    out.push_str(&format!(
        "  latency: p50 {:.2} ms, p99 {:.2} ms\n",
        r.p50_us as f64 / 1000.0,
        r.p99_us as f64 / 1000.0
    ));
    out.push_str(&format!(
        "  ttff: p50 {:.2} ms (client decode p50 {:.2} ms), p99 {:.2} ms\n",
        r.ttff_p50_us as f64 / 1000.0,
        r.ttff_decode_p50_us as f64 / 1000.0,
        r.ttff_p99_us as f64 / 1000.0
    ));
    if let (Some(forks), Some(builds)) = (r.forks, r.template_builds) {
        out.push_str(&format!(
            "  fork: {forks} session(s) forked from {builds} template build(s)\n"
        ));
    }
    if let Some((p50, p99)) = r.server_frame_us {
        out.push_str(&format!(
            "  server frame time: ~p50 {:.2} ms, ~p99 {:.2} ms\n",
            p50 as f64 / 1000.0,
            p99 as f64 / 1000.0
        ));
    }
    if !r.stage_us.is_empty() {
        out.push_str("  stage breakdown (~p50/p99 us):");
        for (name, p50, p99) in &r.stage_us {
            out.push_str(&format!(" {name} {p50}/{p99}"));
        }
        out.push('\n');
    }
    if let Some(n) = r.slo_violations {
        if let Some(budget) = cfg.server.session.slo_us {
            out.push_str(&format!(
                "  slo: {n} violation(s) over {budget} us budget, {} dump(s) retained\n",
                r.slow_frames.len()
            ));
        }
    }
    out.push_str(&format!(
        "  wire: {} frames, {} bytes, diff ratio {:.1}x vs always-keyframe\n",
        r.frames, r.bytes_on_wire, r.compression_ratio
    ));
    out.push_str(&format!(
        "  encode: {} bytes shipped, {:.1}x vs raw frames\n",
        r.encoded_bytes, r.encode_ratio
    ));
    match r.backpressure_drops {
        Some(n) => out.push_str(&format!("  backpressure drops: {n}\n")),
        None => out.push_str("  backpressure drops: n/a (remote server)\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typing_script_is_deterministic_and_serializable() {
        let a = client_script(Profile::Typing, "fig5", 7, 60).unwrap();
        let b = client_script(Profile::Typing, "fig5", 7, 60).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|s| s.to_line().is_some()));
        assert_ne!(a, client_script(Profile::Typing, "fig5", 8, 60).unwrap());
    }

    #[test]
    fn small_collab_fleet_converges() {
        let cfg = LoadConfig {
            docs: 2,
            writers: 2,
            watchers: 1,
            steps: 24,
            scene: "fig2".into(),
            profile: Profile::Collab,
            shards: 2,
            ..LoadConfig::default()
        };
        let report = run_loadgen(&cfg).unwrap();
        assert_eq!(report.completed, 6, "errors: {:?}", report.errors);
        assert!(report.errors.is_empty());
        assert_eq!(report.divergences, Some(0));
        assert!(report.ops_per_s > 0.0);
        assert!(report.fanout_p99_us.is_some(), "fanout histogram missing");
        assert!(report.replay_lag_p50_p99.is_some(), "lag histogram missing");
        assert_eq!(report.backpressure_drops, Some(0));
    }

    #[test]
    fn small_mem_fleet_completes_cleanly() {
        let cfg = LoadConfig {
            sessions: 3,
            steps: 12,
            scene: "fig1".into(),
            profile: Profile::Typing,
            ..LoadConfig::default()
        };
        let report = run_loadgen(&cfg).unwrap();
        assert_eq!(report.completed, 3, "errors: {:?}", report.errors);
        assert!(report.errors.is_empty());
        assert_eq!(report.backpressure_drops, Some(0));
        assert!(report.frames >= 3, "at least the initial keyframes");
    }
}
