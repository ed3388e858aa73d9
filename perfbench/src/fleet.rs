//! The timed window: a closed loop per client thread, at most two
//! threads and two open connections, each sending its next step only
//! after the frame covering the previous one was applied. Clients run
//! back-to-back sessions with fixed scripts until the window ends; the
//! session in flight at the deadline is completed.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use atk_core::ScriptStep;
use atk_graphics::Framebuffer;
use atk_serve::{ClientError, ServeClient, TcpTransport};
use atk_trace::{Collector, Snapshot, SpanGuard};

use crate::host::Host;
use crate::inputs::{Inputs, Workload, CLIENTS};

/// How often the collab watcher polls for fanned-out frames, and how
/// often either collab client checks on the other.
const WATCH_POLL: Duration = Duration::from_millis(1);

/// Span-ring capacity of each traced client.
const CLIENT_SPANS: usize = 1 << 16;

type Client = ServeClient<TcpTransport>;

/// What one client thread did in the window.
#[derive(Default)]
pub struct ClientRun {
    /// Hello (or Attach) sent → initial keyframe applied, per session.
    pub ttff_ns: Vec<u64>,
    /// Step sent → covering frame applied, per step.
    pub step_ns: Vec<u64>,
    /// Sessions that ended with the server's goodbye.
    pub sessions: u64,
    /// Sessions opened plus steps sent.
    pub attempted: u64,
    /// Transport, protocol and `Busy` failures.
    pub errors: Vec<String>,
    /// Frames received (keyframes included).
    pub frames: u64,
    /// Keyframes among them.
    pub key_frames: u64,
    /// Frame bytes before the wire encoder.
    pub raw_bytes: u64,
    /// Frame bytes as received.
    pub encoded_bytes: u64,
    /// When the client's timed loop ended.
    pub ended_at: Option<Instant>,
    /// (session index, final-frame digest) per completed session; the
    /// loop keeps digests, not frames.
    pub finals: Vec<(usize, u64)>,
    /// Benchmark-side spans around the client calls (traced runs).
    pub trace: Option<Snapshot>,
    tracer: Option<Arc<Collector>>,
}

impl ClientRun {
    fn new(traced: bool) -> ClientRun {
        ClientRun {
            tracer: traced.then(|| {
                let c = Arc::new(Collector::with_capacity(CLIENT_SPANS));
                c.enable();
                c
            }),
            ..ClientRun::default()
        }
    }

    fn span(&self, name: &'static str) -> Option<SpanGuard> {
        self.tracer.as_ref().map(|c| c.span(name))
    }

    /// Opens a session over a fresh connection and times its first
    /// frame from the moment the handshake is sent.
    fn connect(
        &mut self,
        host: &Host,
        open: impl FnOnce(TcpTransport) -> Result<Client, ClientError>,
    ) -> Result<Client, String> {
        self.attempted += 1;
        let _span = self.span("client.connect");
        let transport = host.connect()?;
        let started = Instant::now();
        let client = open(transport).map_err(|e| e.to_string())?;
        self.ttff_ns.push(nanos(started));
        Ok(client)
    }

    /// Sends one step and waits for the frame covering it.
    fn step(&mut self, client: &mut Client, step: &ScriptStep) -> Result<(), String> {
        self.attempted += 1;
        let _span = self.span("client.step");
        let started = Instant::now();
        client.step_sync(step).map_err(|e| e.to_string())?;
        if client.ended() {
            return Err("server ended the session mid-script".into());
        }
        self.step_ns.push(nanos(started));
        Ok(())
    }

    /// Says goodbye, keeps the wire totals and the digest of session
    /// `k`'s final framebuffer.
    fn finish(&mut self, k: usize, client: Client) -> Result<(), String> {
        let _span = self.span("client.finish");
        let (stats, fb) = client.finish_with_frame().map_err(|e| e.to_string())?;
        self.sessions += 1;
        self.frames += stats.frames;
        self.key_frames += stats.key_frames;
        self.raw_bytes += stats.diff_bytes + stats.full_bytes;
        self.encoded_bytes += stats.encoded_bytes;
        self.finals.push((k, digest(&fb)));
        Ok(())
    }

    fn done(mut self, outcome: Result<(), String>) -> ClientRun {
        if let Err(e) = outcome {
            self.errors.push(e);
        }
        self.ended_at.get_or_insert_with(Instant::now);
        self.trace = self.tracer.take().map(|c| c.snapshot());
        self
    }
}

/// Every client of one window.
pub struct FleetRun {
    /// Per client thread, in client order (collab: writer, watcher).
    pub clients: Vec<ClientRun>,
    /// Window start → the last client's loop end, seconds.
    pub window_s: f64,
}

impl FleetRun {
    /// All samples of one kind across clients.
    pub fn all(&self, pick: impl Fn(&ClientRun) -> &[u64]) -> Vec<u64> {
        self.clients.iter().flat_map(|c| pick(c).to_vec()).collect()
    }

    /// Sum of one count across clients.
    pub fn sum(&self, pick: impl Fn(&ClientRun) -> u64) -> u64 {
        self.clients.iter().map(pick).sum()
    }

    /// Steps completed in the window.
    pub fn steps(&self) -> u64 {
        self.sum(|c| c.step_ns.len() as u64)
    }

    /// Sessions admitted (each recorded a first frame).
    pub fn admitted(&self) -> u64 {
        self.sum(|c| c.ttff_ns.len() as u64)
    }

    /// Every client error, prefixed with its client index.
    pub fn errors(&self) -> Vec<String> {
        self.clients
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.errors.iter().map(move |e| format!("client {i}: {e}")))
            .collect()
    }
}

/// Runs one timed window of `inputs` against `host`. Collab documents
/// are named `doc-<k>`, fresh on every server.
pub fn run_fleet(host: &Host, inputs: &Inputs, seconds: f64, traced: bool) -> FleetRun {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let sync = &DocSync::default();
    let clients: Vec<ClientRun> = thread::scope(|s| {
        let handles: Vec<_> = if inputs.workload == Workload::Collab {
            vec![
                s.spawn(move || writer_client(host, inputs, sync, traced)),
                s.spawn(move || watcher_client(host, inputs, deadline, sync, traced)),
            ]
        } else {
            (0..CLIENTS)
                .map(|c| s.spawn(move || session_client(host, inputs, c, deadline, traced)))
                .collect()
        };
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientRun {
                    errors: vec!["client thread panicked".into()],
                    ..ClientRun::default()
                })
            })
            .collect()
    });
    let end = clients
        .iter()
        .filter_map(|c| c.ended_at)
        .max()
        .unwrap_or(started);
    FleetRun {
        clients,
        window_s: end.duration_since(started).as_secs_f64(),
    }
}

/// Back-to-back private sessions (edit, admit): Hello → keyframe →
/// the session's script → Bye, until the deadline.
fn session_client(
    host: &Host,
    inputs: &Inputs,
    c: usize,
    deadline: Instant,
    traced: bool,
) -> ClientRun {
    let scene = inputs.workload.scene();
    let mut run = ClientRun::new(traced);
    let outcome = (|| {
        for (k, script) in inputs.sessions[c].iter().enumerate() {
            if Instant::now() >= deadline {
                break;
            }
            let _span = run.span("client.session");
            let mut client = run.connect(host, |t| ServeClient::connect(t, scene))?;
            for step in script {
                run.step(&mut client, step)?;
            }
            run.finish(k, client)?;
        }
        Ok(())
    })();
    run.done(outcome)
}

/// The collab watcher's and writer's progress through the documents.
/// The watcher attaches to a document first and the writer after it,
/// so each attach runs while the other client waits, and both
/// replicas exist before the first op.
#[derive(Default)]
struct DocSync {
    /// Documents the watcher has attached to.
    watching: AtomicUsize,
    /// Documents whose ops the writer has all submitted.
    written: AtomicUsize,
    /// Raised when the writer leaves its loop, on every path.
    writer_gone: AtomicBool,
    /// Raised when the watcher leaves its loop, on every path.
    watcher_gone: AtomicBool,
}

/// Raises a flag when dropped, on every exit path.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The silent collab watcher, which paces the documents: until the
/// deadline, attaches to the next one, applies whatever fans out until
/// the writer has submitted every op, then says goodbye (the server
/// ships the catch-up frame first, so the final framebuffer is the
/// converged document).
fn watcher_client(
    host: &Host,
    inputs: &Inputs,
    deadline: Instant,
    sync: &DocSync,
    traced: bool,
) -> ClientRun {
    let _gone = RaiseOnDrop(&sync.watcher_gone);
    let scene = inputs.workload.scene();
    let mut run = ClientRun::new(traced);
    let outcome = (|| {
        for k in 0..inputs.sessions[0].len() {
            if Instant::now() >= deadline {
                break;
            }
            let mut client =
                run.connect(host, |t| ServeClient::attach(t, &doc_id(k), Some(scene)))?;
            sync.watching.store(k + 1, Ordering::SeqCst);
            let drained = wait_past(&sync.written, k, &sync.writer_gone, || {
                let _span = run.span("client.drain");
                client.drain_frames().map(drop).map_err(|e| e.to_string())
            })?;
            if !drained {
                // The writer failed mid-document; its error stands.
                return Ok(());
            }
            run.finish(k, client)?;
        }
        Ok(())
    })();
    run.done(outcome)
}

/// The collab writer: per document the watcher attached to, attaches,
/// then submits the document's ops with window 1 — each step's frame
/// arrives only after the op went round the document's log.
fn writer_client(host: &Host, inputs: &Inputs, sync: &DocSync, traced: bool) -> ClientRun {
    let _gone = RaiseOnDrop(&sync.writer_gone);
    let scene = inputs.workload.scene();
    let mut run = ClientRun::new(traced);
    let outcome = (|| {
        for (k, ops) in inputs.sessions[0].iter().enumerate() {
            if !wait_past(&sync.watching, k, &sync.watcher_gone, || Ok(()))? {
                break;
            }
            let mut client =
                run.connect(host, |t| ServeClient::attach(t, &doc_id(k), Some(scene)))?;
            for op in ops {
                run.step(&mut client, op)?;
            }
            sync.written.store(k + 1, Ordering::SeqCst);
            run.finish(k, client)?;
        }
        Ok(())
    })();
    run.done(outcome)
}

/// Waits, calling `idle` every [`WATCH_POLL`], until `counter` passes
/// `k` (`true`) or the other client left without passing it (`false`).
fn wait_past(
    counter: &AtomicUsize,
    k: usize,
    gone: &AtomicBool,
    mut idle: impl FnMut() -> Result<(), String>,
) -> Result<bool, String> {
    loop {
        // The other side raises the counter before it can leave, so a
        // counter read after seeing it gone is final.
        let left = gone.load(Ordering::SeqCst);
        if counter.load(Ordering::SeqCst) > k {
            return Ok(true);
        }
        if left {
            return Ok(false);
        }
        idle()?;
        thread::sleep(WATCH_POLL);
    }
}

/// The name of collab document `k`.
fn doc_id(k: usize) -> String {
    format!("doc-{k}")
}

/// Nanoseconds since `t`.
pub fn nanos(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A 64-bit digest of a framebuffer's size and pixels (four
/// multiply-xor lanes, so hashing a 1.25 MB frame costs well under a
/// millisecond).
pub fn digest(fb: &Framebuffer) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut lanes = [
        0xCBF2_9CE4_8422_2325u64,
        0x8422_2325_CBF2_9CE4,
        0x9E37_79B9_7F4A_7C15,
        0x2545_F491_4F6C_DD1D,
    ];
    let chunks = fb.pixels().chunks_exact(lanes.len());
    for &p in chunks.remainder() {
        lanes[0] = (lanes[0] ^ u64::from(p)).wrapping_mul(PRIME);
    }
    for chunk in chunks {
        for (lane, &p) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane ^ u64::from(p)).wrapping_mul(PRIME);
        }
    }
    let mut h = (fb.width() as u64) << 32 | fb.height() as u64;
    for v in lanes {
        h = (h ^ v).wrapping_mul(PRIME).rotate_left(29);
    }
    h
}
