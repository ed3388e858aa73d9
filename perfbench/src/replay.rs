//! The traced replay: after the traced window, the same seeded inputs
//! go once more through the layer functions on one thread, each call
//! wrapped in a benchmark-side span and timed on its own. No server
//! thread, no socket: the numbers are the layers' own costs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use atk_apps::scenes::build_scene;
use atk_apps::TemplateRegistry;
use atk_collab::DocRegistry;
use atk_core::ScriptStep;
use atk_serve::{
    FrameTransport, HostedSession, MemTransport, ServeClient, ServerFrame, SessionConfig,
};
use atk_trace::{Collector, Snapshot};

use crate::fleet::{nanos, FleetRun};
use crate::inputs::{Inputs, Workload, BACKEND, CLIENTS};

/// Cold `build_scene` calls timed per replay.
const BUILDS: usize = 3;
/// Edit steps replayed per client (the window's prefix, in whole
/// sessions).
const EDIT_STEPS: usize = 1500;
/// Admit steps replayed per client: 60 four-step sessions.
const ADMIT_STEPS: usize = 240;
/// Collab ops replayed through the private and the replica paths.
const COLLAB_OPS: usize = 1500;
/// Ops the edit and admit replays push through a shared document, so
/// the collab layer is measured (lightly) on every workload.
const LIGHT_OPS: usize = 64;
/// Span-ring capacity of the replay collector.
const REPLAY_SPANS: usize = 1 << 17;

/// Per-call timings plus the spans around them.
pub struct Timer {
    /// The replay's span collector (Chrome trace and self times).
    pub collector: Arc<Collector>,
    /// Nanosecond samples per span name.
    pub samples: BTreeMap<&'static str, Vec<u64>>,
}

impl Timer {
    fn new() -> Timer {
        let collector = Arc::new(Collector::with_capacity(REPLAY_SPANS));
        collector.enable();
        Timer {
            collector,
            samples: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name` and records its duration.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.collector.span(name);
        let started = Instant::now();
        let out = f();
        let ns = nanos(started);
        drop(span);
        self.samples.entry(name).or_default().push(ns);
        out
    }
}

/// What the replay measured and checked.
pub struct Replay {
    /// Layer timings and spans.
    pub timer: Timer,
    /// The replay's private sessions' collectors (stage histograms).
    pub private: Snapshot,
    /// Shared-document collectors (`serve.collab.*` histograms) of the
    /// replay's replicas.
    pub collab: Snapshot,
    /// Ops pushed through the replay's shared document.
    pub collab_ops: u64,
    /// Frames the replay's watcher replica produced.
    pub watcher_frames: u64,
    /// Round trips and end states checked.
    pub checks: u64,
    /// Checks that failed.
    pub misses: Vec<String>,
}

/// Replays what `fleet` did with `inputs` through the layer functions.
pub fn replay(workload: Workload, inputs: &Inputs, fleet: &FleetRun) -> Result<Replay, String> {
    let scene = workload.scene();
    let mut r = Replay {
        timer: Timer::new(),
        private: Snapshot::default(),
        collab: Snapshot::default(),
        collab_ops: 0,
        watcher_frames: 0,
        checks: 0,
        misses: Vec::new(),
    };
    let registry_collector = Arc::new(Collector::new());
    registry_collector.enable();
    let mut templates = TemplateRegistry::new(registry_collector);
    for _ in 0..BUILDS {
        r.timer
            .time("template.build", || build_scene(scene, BACKEND))?;
    }
    // Build the template untimed, as the server's warm-up does, so
    // `template.fork` times forks only.
    templates.fork_session(scene, BACKEND)?;
    // The window's prefix: each client's completed sessions, in order,
    // while its step budget lasts (collab: the writer's documents).
    let (budget, clients) = match workload {
        Workload::Edit => (EDIT_STEPS, CLIENTS),
        Workload::Admit => (ADMIT_STEPS, CLIENTS),
        Workload::Collab => (COLLAB_OPS, 1),
    };
    let mut shared: Vec<&[ScriptStep]> = Vec::new();
    for (c, run) in fleet.clients.iter().enumerate().take(clients) {
        let mut steps = 0;
        for &(k, _) in &run.finals {
            if steps >= budget {
                break;
            }
            let script = inputs.script(c, k).ok_or("replayed session missing")?;
            private(&mut r, &mut templates, scene, script)?;
            steps += script.len();
            if workload == Workload::Collab {
                shared.push(script);
            }
        }
    }
    if workload != Workload::Collab {
        // Push the first LIGHT_OPS steps of client 0 through a shared
        // document, so the collab layer is measured, lightly, everywhere.
        let light: Vec<ScriptStep> = inputs.sessions[0]
            .iter()
            .flatten()
            .take(LIGHT_OPS)
            .cloned()
            .collect();
        return replicas(&mut r, &mut templates, scene, &light).map(|()| r);
    }
    for ops in shared {
        replicas(&mut r, &mut templates, scene, ops)?;
    }
    Ok(r)
}

/// One private session through every layer a served session crosses:
/// fork and open, keyframe, encode, decode, client connect, then per
/// step apply, encode, decode and client update. The client must end
/// on the session's own framebuffer.
fn private(
    r: &mut Replay,
    templates: &mut TemplateRegistry,
    scene: &str,
    script: &[ScriptStep],
) -> Result<(), String> {
    let t = &mut r.timer;
    let _span = t.collector.span("replay.session");
    t.time("template.fork", || templates.fork_session(scene, BACKEND))?;
    let collector = Arc::new(Collector::new());
    collector.enable();
    let mut session = t.time("session.open", || {
        HostedSession::open_with(scene, SessionConfig::default(), collector, Some(templates))
    })?;
    session.set_session_id(1);
    let (width, height) = session.size();
    let key = t.time("session.keyframe", || session.initial_keyframe());
    let key_bytes = t.time("wire.encode_key", || session.encode_frame(&key));
    let decoded = t.time("wire.decode", || ServerFrame::decode(&key_bytes));
    r.checks += 1;
    if decoded.as_ref() != Ok(&key) {
        r.misses
            .push(format!("{scene}: keyframe did not survive the wire"));
    }
    let welcome = ServerFrame::Welcome {
        session_id: 1,
        width,
        height,
    }
    .encode();
    let (client_half, mut server_half) = MemTransport::pair();
    server_half.send(&welcome).map_err(|e| e.to_string())?;
    server_half.send(&key_bytes).map_err(|e| e.to_string())?;
    let mut client = t
        .time("client.connect", || {
            ServeClient::connect(client_half, scene)
        })
        .map_err(|e| e.to_string())?;
    for step in script {
        let _step = t.collector.span("replay.step");
        let (frame, _) = t.time("session.apply", || {
            session.apply_batch(std::slice::from_ref(step), 0)
        });
        let kind = match frame {
            ServerFrame::Keyframe { .. } => "wire.encode_key",
            _ => "wire.encode_diff",
        };
        let bytes = t.time(kind, || session.encode_frame(&frame));
        t.time("wire.decode", || ServerFrame::decode(&bytes))
            .map_err(|e| e.to_string())?;
        server_half.send(&bytes).map_err(|e| e.to_string())?;
        t.time("client.update", || client.step_sync(step))
            .map_err(|e| e.to_string())?;
        // Discard what the client sent; nobody serves it.
        while server_half.try_recv().map_err(|e| e.to_string())?.is_some() {}
    }
    r.checks += 1;
    if *client.framebuffer() != session.framebuffer() {
        r.misses.push(format!(
            "{scene}: replayed client diverged from its session"
        ));
    }
    r.private
        .merge(&session.collector().snapshot().without_spans());
    Ok(())
}

/// A shared document with a writer and a watcher replica: per op,
/// submit through the writer, then each replica applies what fanned
/// out. Both replicas must match a hosted session replaying the ops.
fn replicas(
    r: &mut Replay,
    templates: &mut TemplateRegistry,
    scene: &str,
    ops: &[ScriptStep],
) -> Result<(), String> {
    let docs = DocRegistry::new();
    let open = |doc_scene: Option<&str>, templates: &mut TemplateRegistry| {
        let collector = Arc::new(Collector::new());
        collector.enable();
        let attachment = docs
            .attach("replay", doc_scene)
            .map_err(|e| e.to_string())?;
        HostedSession::open_replica(
            attachment,
            SessionConfig::default(),
            collector,
            Some(templates),
        )
    };
    let t = &mut r.timer;
    let _span = t.collector.span("replay.collab");
    let mut writer = t.time("collab.attach", || open(Some(scene), templates))?;
    let mut watcher = t.time("collab.attach", || open(None, templates))?;
    writer.set_session_id(1);
    watcher.set_session_id(2);
    for op in ops {
        let _op = t.collector.span("replay.op");
        t.time("collab.submit", || {
            writer.submit_batch(std::slice::from_ref(op), 0)
        });
        for replica in [&mut writer, &mut watcher] {
            let fanned = replica.drain_ops();
            t.time("collab.replica_apply", || replica.apply_ops(&fanned));
        }
        r.watcher_frames += 1;
    }
    r.collab_ops += ops.len() as u64;
    let mut reference = HostedSession::open_with(
        scene,
        SessionConfig::default(),
        Arc::new(Collector::new()),
        Some(templates),
    )?;
    reference.replay_steps(ops);
    let want = reference.framebuffer();
    r.checks += 2;
    if writer.framebuffer() != want {
        r.misses
            .push(format!("{scene}: writer replica differs from replay"));
    }
    if watcher.framebuffer() != want {
        r.misses
            .push(format!("{scene}: watcher replica differs from replay"));
    }
    r.collab.merge(&writer.collector().snapshot());
    r.collab.merge(&watcher.collector().snapshot());
    Ok(())
}
