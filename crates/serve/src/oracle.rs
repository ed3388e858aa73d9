//! The served-vs-in-process differential oracle: one harness for every
//! serving shape.
//!
//! [`serve_differential`] serves some [`Traffic`] — scripted private
//! sessions, or the replicas of one shared document — on a real
//! [`Server`] laid out by a [`Topology`] (shard count, fault schedule,
//! session config, fork or cold boot). Every connection enters the
//! shard engine through [`Server::connect_mem`], exactly as production
//! connections enter through `Server::admit`. Each client's final
//! reconstruction must be byte-identical to the in-process reference:
//! `atk_check::Session` replaying the same script for private sessions,
//! one [`HostedSession`] replaying the merged op order for a shared
//! document. Every session's counter plane, minus the `serve.*` keys,
//! must match its reference's too. The wire, the batching, the diff
//! shipping, the shard placement, the fault schedule and the fanout
//! must all be invisible.
//!
//! A private client sends [`Traffic::Private`]'s `window` steps before
//! it waits for the frames covering them, so the server may drain any
//! chunk of them as one batch; a window of 1 steps synchronously. The
//! step driver gives a batch the meaning of its steps applied one by
//! one, so no window may change a pixel or a counter of the world.
//! Private sessions run one after another, which pins every counter the
//! caller may compare (batch sizes, peak concurrency, frames by kind)
//! to one deterministic interleaving at a window of 1.
//! The sharded-vs-single comparison then reads
//! [`ServedRun::shard_invariant_counters`]: everything except the
//! shard-local `serve.shard.*` scheduling plane and the per-shard
//! template cache builds, the only places shard count may leave a mark.

use std::collections::HashMap;
use std::sync::Arc;

use atk_check::gen::interleaved_script;
use atk_check::Session;
use atk_core::ScriptStep;
use atk_graphics::Framebuffer;
use atk_trace::{Collector, Snapshot};

use crate::client::{ClientStats, ServeClient};
use crate::loadgen::fuzz_script;
use crate::server::{Server, ServerConfig};
use crate::session::{HostedSession, SessionConfig};
use crate::transport::FrameTransport;

/// How the server under test is laid out.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Worker shards.
    pub shards: usize,
    /// Wraps every pipe in a seeded lossless fault schedule (client `i`
    /// uses `seed ^ i`) and arms the shard readiness shuffle.
    pub fault_seed: Option<u64>,
    /// Per-session tuning ([`ServerConfig::session`]).
    pub session: SessionConfig,
    /// Fork sessions from templates ([`ServerConfig::fork`]).
    pub fork: bool,
}

impl Default for Topology {
    fn default() -> Topology {
        Topology {
            shards: 1,
            fault_seed: None,
            session: SessionConfig::default(),
            fork: true,
        }
    }
}

/// What the clients send.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// Private `Hello` sessions, one per script, served one after
    /// another; each `Hello` asks for `backend` (the server default
    /// when `None`).
    Private {
        /// One script per session.
        scripts: Vec<Vec<ScriptStep>>,
        /// Backend requested in every `Hello`.
        backend: Option<String>,
        /// Steps a client sends before it waits for the frames covering
        /// them: 1 steps synchronously, `usize::MAX` sends the whole
        /// script before one sync.
        window: usize,
    },
    /// Replicas attached to one shared document: writers submit the
    /// merged `(writer, step)` order through the document's op log,
    /// watchers never send a step.
    Shared {
        /// The merged edit order.
        script: Vec<(usize, ScriptStep)>,
        /// Replicas that write.
        writers: usize,
        /// Silent replicas.
        watchers: usize,
    },
}

impl Traffic {
    /// `sessions` private sessions on `backend`, each sending `window`
    /// steps before it syncs; session `k` replays `steps` fuzzer steps
    /// recorded from seed `seed + 1000 k`.
    pub fn fuzz(
        scene: &str,
        backend: Option<&str>,
        seed: u64,
        sessions: usize,
        steps: usize,
        window: usize,
    ) -> Result<Traffic, String> {
        let scripts = (0..sessions as u64)
            .map(|k| fuzz_script(scene, backend.unwrap_or("x11sim"), seed + 1000 * k, steps))
            .collect::<Result<_, _>>()?;
        Ok(Traffic::Private {
            scripts,
            backend: backend.map(str::to_string),
            window,
        })
    }

    /// One shared document: `writers` seeded edit streams interleaved
    /// into `steps` merged ops, plus `watchers` silent replicas.
    pub fn shared(
        scene: &str,
        seed: u64,
        writers: usize,
        watchers: usize,
        steps: usize,
    ) -> Result<Traffic, String> {
        Ok(Traffic::Shared {
            script: interleaved_script(scene, seed, writers, steps)?,
            writers,
            watchers,
        })
    }
}

/// What one [`serve_differential`] pass observed.
#[derive(Debug)]
pub struct ServedRun {
    /// Steps sent (summed over sessions; ops on the log when shared).
    pub steps: usize,
    /// Final client-side framebuffers, one per session or replica.
    pub framebuffers: Vec<Framebuffer>,
    /// Per-session counter planes checked against the reference.
    pub counter_planes: usize,
    /// The server-wide merged snapshot after every shard joined.
    pub merged: Snapshot,
    /// Diff frames received.
    pub diff_frames: u64,
    /// Keyframes received.
    pub key_frames: u64,
    /// Raw wire length of every pixel frame received.
    pub raw_bytes: u64,
    /// Bytes that actually crossed the wire for those frames (smaller
    /// when the RLE encoder won).
    pub encoded_bytes: u64,
}

impl ServedRun {
    /// The merged counters shard count is not allowed to change: all of
    /// them but the `serve.shard.*` scheduling plane and the per-shard
    /// caches' marks. Template registries and template keyframe caches
    /// are per shard, so how many shards built a template
    /// (`world.template_builds`) and how many sessions found its
    /// keyframe cached (`serve.keyframe_cache_hits`) depend on
    /// placement. `world.forks` stays: one fork per session, whatever
    /// the layout. So does `serve.band_copies`: a cached keyframe's
    /// frame shares its bands with the session that built it as with
    /// every later one, so each copies the same bands, hit or miss.
    /// So does `serve.diff_px`: every session clears its window's
    /// written record at its first keyframe, copied or adopted from the
    /// cache, so the pixels its diffs compare follow its own drawing.
    pub fn shard_invariant_counters(&self) -> Vec<(&'static str, u64)> {
        const PLACEMENT: [&str; 2] = ["world.template_builds", "serve.keyframe_cache_hits"];
        self.merged
            .counters
            .iter()
            .filter(|(key, _)| !key.starts_with("serve.shard.") && !PLACEMENT.contains(key))
            .cloned()
            .collect()
    }
}

/// Serves `traffic` for `scene` on a server laid out by `topo` and
/// demands every client's final framebuffer and every session's
/// non-`serve.*` counter plane identical to the in-process reference's.
///
/// # Errors
///
/// A description of the first divergence (see [`divergence`]) or of
/// any transport, protocol, or scene failure.
pub fn serve_differential(
    scene: &str,
    traffic: &Traffic,
    topo: &Topology,
) -> Result<ServedRun, String> {
    let server_cfg = ServerConfig {
        session: topo.session.clone(),
        // Exercise the readiness-reorder fault path whenever faults are
        // on at all.
        readiness_shuffle_seed: topo.fault_seed,
        fork: topo.fork,
        retain_session_traces: true,
        ..ServerConfig::default()
    };
    let server = Server::start(server_cfg, topo.shards);
    let connect = |i: usize| server.connect_mem(topo.fault_seed.map(|seed| seed ^ i as u64));
    let served = match traffic {
        Traffic::Private {
            scripts,
            backend,
            window,
        } => serve_private(scene, scripts, backend.as_deref(), *window, connect),
        Traffic::Shared {
            script,
            writers,
            watchers,
        } => serve_shared(scene, script, *writers, *watchers, connect),
    };
    // Join the shard threads before reading counters, so every close
    // has landed.
    server.shutdown_shards();
    let (framebuffers, stats, ids) = served?;
    // Each session's own counter plane, by session id.
    let parts: HashMap<String, Snapshot> = server.trace_parts().into_iter().collect();
    let plane_of = |id: u64| {
        let name = format!("session-{id}");
        let snap = parts
            .get(&name)
            .ok_or(format!("{scene}: no trace of {name}"))?;
        Ok::<_, String>(strip_serve_plane(snap))
    };

    let steps = match traffic {
        Traffic::Private {
            scripts, backend, ..
        } => {
            let backend = backend.as_deref().unwrap_or(&topo.session.backend);
            for (k, (script, got)) in scripts.iter().zip(&framebuffers).enumerate() {
                let mut reference = Session::build(scene, backend)?;
                for step in script {
                    reference.apply(step);
                }
                let want = reference
                    .im
                    .snapshot()
                    .ok_or("reference backend has no pixels")?;
                if let Some(d) = divergence(&want, got) {
                    return Err(format!("{scene} session {k}: served diverges: {d}"));
                }
                let want = strip_serve_plane(&reference.world.collector().snapshot());
                check_plane(&format!("{scene} session {k}"), &want, &plane_of(ids[k])?)?;
            }
            scripts.iter().map(Vec::len).sum()
        }
        Traffic::Shared { script, .. } => {
            // Replica semantics: per-op settle + paint, no wire.
            let ref_collector = Arc::new(Collector::new());
            ref_collector.enable();
            let mut reference =
                HostedSession::open(scene, topo.session.clone(), ref_collector.clone())?;
            let merged: Vec<ScriptStep> = script.iter().map(|(_, s)| s.clone()).collect();
            reference.replay_steps(&merged);
            let want = reference.framebuffer();
            for (i, got) in framebuffers.iter().enumerate() {
                if let Some(d) = divergence(&want, got) {
                    return Err(format!("{scene}: replica {i} diverges: {d}"));
                }
            }
            // Each replica computed the same world as the reference.
            let want = strip_serve_plane(&ref_collector.snapshot());
            for (i, id) in ids.iter().enumerate() {
                check_plane(&format!("{scene}: replica {i}"), &want, &plane_of(*id)?)?;
            }
            script.len()
        }
    };

    Ok(ServedRun {
        steps,
        counter_planes: framebuffers.len(),
        framebuffers,
        merged: server.merged_snapshot(),
        diff_frames: stats.iter().map(|s| s.diff_frames).sum(),
        key_frames: stats.iter().map(|s| s.key_frames).sum(),
        raw_bytes: stats.iter().map(|s| s.diff_bytes + s.full_bytes).sum(),
        encoded_bytes: stats.iter().map(|s| s.encoded_bytes).sum(),
    })
}

/// Each client's final framebuffer, its accounting and its session id.
type Served = Result<(Vec<Framebuffer>, Vec<ClientStats>, Vec<u64>), String>;

/// Runs each private script in its own session, one after another,
/// sending `window` steps before each sync.
fn serve_private(
    scene: &str,
    scripts: &[Vec<ScriptStep>],
    backend: Option<&str>,
    window: usize,
    connect: impl Fn(usize) -> Result<Box<dyn FrameTransport>, String>,
) -> Served {
    let mut framebuffers = Vec::with_capacity(scripts.len());
    let mut stats = Vec::with_capacity(scripts.len());
    let mut ids = Vec::with_capacity(scripts.len());
    for (i, script) in scripts.iter().enumerate() {
        let t = connect(i).map_err(|e| format!("session {i}: {e}"))?;
        let mut client = ServeClient::connect_backend(t, scene, backend)
            .map_err(|e| format!("session {i}: connect: {e}"))?;
        for chunk in script.chunks(window.max(1)) {
            let sent = chunk.iter().try_for_each(|step| client.send_step(step));
            sent.and_then(|()| client.sync())
                .map_err(|e| format!("session {i}: {e}"))?;
            if client.ended() {
                return Err(format!("session {i}: server ended session mid-script"));
            }
        }
        ids.push(client.session_id());
        framebuffers.push(client.framebuffer().clone());
        stats.push(client.finish().map_err(|e| format!("session {i}: {e}"))?);
    }
    Ok((framebuffers, stats, ids))
}

/// Attaches every replica before the first edit, then submits the
/// merged order writer by writer. Replicas are admitted
/// least-loaded-first onto an idle server, so with at least `shards`
/// replicas they pin to different shards and every fanout crosses a
/// shard boundary. Watchers drain opportunistically mid-run (the
/// non-blocking path) and converge on `Bye` catch-up: submit appends
/// synchronously, so every op is in the log by then.
fn serve_shared(
    scene: &str,
    script: &[(usize, ScriptStep)],
    writers: usize,
    watchers: usize,
    connect: impl Fn(usize) -> Result<Box<dyn FrameTransport>, String>,
) -> Served {
    let mut clients = Vec::with_capacity(writers + watchers);
    for i in 0..writers + watchers {
        let t = connect(i).map_err(|e| format!("replica {i}: {e}"))?;
        // Only the first attacher names the scene; joiners inherit it.
        let offered = (i == 0).then_some(scene);
        let client = ServeClient::attach(t, "oracle", offered)
            .map_err(|e| format!("replica {i}: attach: {e}"))?;
        clients.push(client);
    }
    for (n, (w, step)) in script.iter().enumerate() {
        clients[*w]
            .step_sync(step)
            .map_err(|e| format!("writer {w} step {n}: {e}"))?;
        if clients[*w].ended() {
            return Err(format!("writer {w}: server ended session mid-script"));
        }
        if n % 16 == 15 {
            for (i, c) in clients.iter_mut().enumerate().skip(writers) {
                c.drain_frames()
                    .map_err(|e| format!("watcher {i}: drain: {e}"))?;
            }
        }
    }
    let mut framebuffers = Vec::with_capacity(clients.len());
    let mut stats = Vec::with_capacity(clients.len());
    let mut ids = Vec::with_capacity(clients.len());
    for (i, client) in clients.into_iter().enumerate() {
        ids.push(client.session_id());
        let (s, fb) = client
            .finish_with_frame()
            .map_err(|e| format!("replica {i}: finish: {e}"))?;
        framebuffers.push(fb);
        stats.push(s);
    }
    Ok((framebuffers, stats, ids))
}

/// `None` when `got` matches `want` in size and pixels; otherwise the
/// sizes, the differing pixel count, and the first differing coordinate.
/// Only dimensions and pixels count — a leftover clip region on a
/// server-side snapshot would be a false alarm.
pub fn divergence(want: &Framebuffer, got: &Framebuffer) -> Option<String> {
    if got.same_pixels(want) {
        return None;
    }
    let mut differing = 0usize;
    let mut first = None;
    for y in 0..want.height().min(got.height()) {
        for x in 0..want.width().min(got.width()) {
            if want.get(x, y) != got.get(x, y) {
                differing += 1;
                first.get_or_insert((x, y));
            }
        }
    }
    Some(format!(
        "{}x{} vs {}x{} expected, {differing} differing pixels, first at {first:?}",
        got.width(),
        got.height(),
        want.width(),
        want.height(),
    ))
}

/// `Err` naming `who` when a served session's counter plane differs
/// from its reference's.
fn check_plane(
    who: &str,
    want: &[(&'static str, u64)],
    got: &[(&'static str, u64)],
) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!(
        "{who}: counter plane diverges from the in-process reference:\n  \
         want {want:?}\n  got  {got:?}"
    ))
}

/// The counters minus the `serve.*` keys — the shipping/scheduling
/// plane may differ between a wired replica and the in-process
/// reference; the world beneath it may not.
fn strip_serve_plane(snap: &Snapshot) -> Vec<(&'static str, u64)> {
    snap.counters
        .iter()
        .filter(|(key, _)| !key.starts_with("serve."))
        .cloned()
        .collect()
}
