//! The replicated-document honesty suite: N replicas of one shared
//! document, each behind its own wire, must be *indistinguishable* —
//! pixel-for-pixel and counter-for-counter — from one in-process
//! session applying the same merged edit order. Shard placement, fault
//! schedules, drain chunking, and join time are all required to be
//! invisible; the only thing allowed to vary is the `serve.*`
//! shipping/scheduling plane.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use atk_core::ScriptStep;
use atk_serve::session::{HostedSession, SessionConfig};
use atk_serve::transport::{FrameTransport, MemTransport};
use atk_serve::{
    serve_differential, ClientError, ServeClient, Server, ServerConfig, Topology, Traffic,
};
use atk_trace::Collector;
use atk_wm::{Key, WindowEvent};

const SEEDS: [u64; 4] = [1, 2, 7, 42];
const STEPS: usize = 80;

/// Seeds 1 and 2 run single-shard (pure log/order semantics); seed 7
/// runs four shards with four replicas so every replica lands on its
/// own shard and all fanout crosses shard boundaries; seed 42 adds a
/// seeded fault schedule on every transport on top of that.
fn run_scene(scene: &str) {
    for seed in SEEDS {
        let (writers, watchers, shards, faults) = match seed {
            1 | 2 => (2, 1, 1, None),
            7 => (2, 2, 4, None),
            _ => (2, 2, 4, Some(seed)),
        };
        let traffic = Traffic::shared(scene, seed, writers, watchers, STEPS)
            .unwrap_or_else(|e| panic!("{scene} seed {seed}: script: {e}"));
        let topo = Topology {
            shards,
            fault_seed: faults,
            ..Topology::default()
        };
        let run = serve_differential(scene, &traffic, &topo)
            .unwrap_or_else(|e| panic!("{scene} seed {seed}: {e}"));
        assert_eq!(run.framebuffers.len(), writers + watchers);
        assert_eq!(run.steps, STEPS);
        assert_eq!(run.counter_planes, writers + watchers);
    }
}

#[test]
fn fig1_collab_differential() {
    run_scene("fig1");
}

#[test]
fn fig2_collab_differential() {
    run_scene("fig2");
}

#[test]
fn fig3_collab_differential() {
    run_scene("fig3");
}

fn key(c: char) -> ScriptStep {
    ScriptStep::Event(WindowEvent::Key(Key::Char(c)))
}

fn tick(ms: u64) -> ScriptStep {
    ScriptStep::Event(WindowEvent::Tick(ms))
}

/// Attaches one replica through the shard plane and returns the client
/// plus the shard index it landed on.
fn attach_replica(
    server: &Arc<Server>,
    doc: &str,
    scene: Option<&str>,
) -> (ServeClient<MemTransport>, usize) {
    let (client_half, server_half) = MemTransport::pair();
    let shard = server
        .admit(Box::new(server_half))
        .unwrap_or_else(|_| panic!("no shard accepting"));
    let client = ServeClient::attach(client_half, doc, scene).expect("attach");
    (client, shard)
}

/// Polls a watcher until its reconstruction catches up with `want`.
fn drain_until_pixels<T: FrameTransport>(client: &mut ServeClient<T>, want: &[u32]) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        client.drain_frames().expect("drain");
        if client.framebuffer().pixels() == want {
            return;
        }
        assert!(Instant::now() < deadline, "watcher never converged");
        thread::sleep(Duration::from_millis(2));
    }
}

/// Polls a client until the server says `Bye`.
fn drain_until_ended<T: FrameTransport>(client: &mut ServeClient<T>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !client.ended() {
        client.drain_frames().expect("drain");
        assert!(Instant::now() < deadline, "client never saw Bye");
        thread::sleep(Duration::from_millis(2));
    }
}

/// Draining a replica's shard detaches it cleanly — the document and
/// its other replicas are untouched — and a re-attach lands on a live
/// shard at the *current* log offset: the fresh keyframe already shows
/// the whole history, later edits arrive as diffs, and nothing is
/// duplicated or lost.
#[test]
fn drained_replica_reattaches_at_log_head() {
    let server = Server::start(ServerConfig::default(), 2);
    let (mut writer, writer_shard) = attach_replica(&server, "shared", Some("fig2"));
    let (mut watcher, watcher_shard) = attach_replica(&server, "shared", None);
    assert_ne!(writer_shard, watcher_shard, "replicas must pin apart");

    let first: Vec<ScriptStep> = "andrew".chars().map(key).collect();
    for step in &first {
        writer.step_sync(step).expect("step");
    }
    drain_until_pixels(&mut watcher, writer.framebuffer().pixels());

    // Drain the watcher's shard out from under it.
    assert!(server.drain_shard(watcher_shard));
    drain_until_ended(&mut watcher);
    watcher.finish().expect("finish drained watcher");
    let doc = server.registry().get("shared").expect("doc");
    assert_eq!(doc.head(), first.len() as u64);
    assert_eq!(doc.replicas(), 1, "drained replica must unsubscribe");

    // The writer types on, unbothered, while the replica is gone.
    let second: Vec<ScriptStep> = "-toolkit".chars().map(key).collect();
    for step in &second[..4] {
        writer.step_sync(step).expect("step");
    }

    // Re-attach: must land on a non-draining shard, and the keyframe
    // must already hold everything typed so far.
    let (mut rejoined, rejoined_shard) = attach_replica(&server, "shared", None);
    assert_eq!(rejoined_shard, writer_shard, "only one shard accepts now");
    assert_eq!(
        rejoined.framebuffer().pixels(),
        writer.framebuffer().pixels(),
        "re-attach keyframe must sit at the log head"
    );
    for step in &second[4..] {
        writer.step_sync(step).expect("step");
    }
    drain_until_pixels(&mut rejoined, writer.framebuffer().pixels());

    let (_, writer_fb) = writer.finish_with_frame().expect("finish writer");
    let (_, rejoined_fb) = rejoined.finish_with_frame().expect("finish rejoined");
    server.shutdown_shards();

    // Ground truth: one in-process session replaying every step once.
    let collector = Arc::new(Collector::new());
    let mut reference =
        HostedSession::open("fig2", SessionConfig::default(), collector).expect("scene");
    let all: Vec<ScriptStep> = first.into_iter().chain(second).collect();
    reference.replay_steps(&all);
    let want = reference.framebuffer();
    assert_eq!(writer_fb.pixels(), want.pixels(), "writer diverged");
    assert_eq!(
        rejoined_fb.pixels(),
        want.pixels(),
        "rejoined replica diverged"
    );
}

/// The idle-eviction regression: idleness is keyed on *document*
/// activity, so a silent watcher survives any amount of virtual time
/// as long as a peer keeps typing — and a document carried by clock
/// ticks alone still evicts everyone.
#[test]
fn silent_watcher_survives_typing_peer() {
    let cfg = ServerConfig {
        session: SessionConfig {
            idle_ms: Some(500),
            ..SessionConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, 1);
    let (mut writer, _) = attach_replica(&server, "busy", Some("fig2"));
    let (mut watcher, _) = attach_replica(&server, "busy", None);

    // 1600ms of virtual time pass — more than three idle horizons —
    // but every tick travels with a real keystroke from the peer.
    for c in "watching".chars() {
        writer.step_sync(&tick(200)).expect("tick");
        writer.step_sync(&key(c)).expect("key");
    }
    drain_until_pixels(&mut watcher, writer.framebuffer().pixels());
    assert!(
        !watcher.ended(),
        "silent watcher evicted while its peer was typing"
    );

    // Now the document goes quiet: ticks alone must still evict both
    // replicas once the horizon passes. The writer's transport may
    // close under it mid-step once the server says `Bye` — either
    // signal counts as the eviction landing.
    loop {
        if writer.step_sync(&tick(200)).is_err() || writer.ended() {
            break;
        }
        writer.drain_frames().ok();
        if writer.ended() {
            break;
        }
    }
    drain_until_ended(&mut watcher);
    server.shutdown_shards();
    let evictions = server.merged_snapshot().counter("serve.idle_evictions");
    assert!(
        evictions >= 2,
        "expected both replicas idle-evicted, saw {evictions}"
    );
}

/// One replica alone on a 1-shard server converges with the in-process
/// reference, and bogus attaches are refused with a readable error.
#[test]
fn attach_over_single_connection() {
    let server = Server::start(ServerConfig::default(), 1);
    let (mut client, _) = attach_replica(&server, "solo", Some("fig2"));
    let steps: Vec<ScriptStep> = "solo".chars().map(key).collect();
    for step in &steps {
        client.step_sync(step).expect("step");
    }
    let (_, fb) = client.finish_with_frame().expect("finish");

    let ref_collector = Arc::new(Collector::new());
    let mut reference =
        HostedSession::open("fig2", SessionConfig::default(), ref_collector).expect("scene");
    reference.replay_steps(&steps);
    assert_eq!(fb.pixels(), reference.framebuffer().pixels());

    // Joining an unknown document without naming a scene is refused,
    // and so is attaching to an existing document under a different
    // scene — a refusal, not a silent join of the wrong world.
    for (doc, scene) in [("ghost", None), ("solo", Some("fig1"))] {
        let t = server.connect_mem(None).expect("shard accepts");
        let err = match ServeClient::attach(t, doc, scene) {
            Ok(_) => panic!("attach {doc} {scene:?} must be refused"),
            Err(e) => e,
        };
        assert!(matches!(err, ClientError::Server(_)), "got {err:?}");
    }
    server.shutdown_shards();
}
