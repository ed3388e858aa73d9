//! Chaos on the production path: seeded transport faults plus clients
//! that hang up mid-script, with no goodbye.
//!
//! * A fleet of concurrent private sessions on two shards, every pipe
//!   under its own fault schedule and every 5th client cut halfway: each
//!   survivor ends byte-identical to the in-process replay of its
//!   script, and each cut releases its admission slot and its shard
//!   load, counts once as a shard failure and drops no frame.
//! * One shared document under faults whose watcher hangs up mid-run:
//!   the document sheds exactly that replica, and the writers and the
//!   other watcher still end on the in-process replay of the merged
//!   order.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use atk_check::gen::interleaved_script;
use atk_check::Session;
use atk_core::ScriptStep;
use atk_serve::loadgen::client_script;
use atk_serve::{
    divergence, HostedSession, Profile, ServeClient, Server, ServerConfig, SessionConfig,
};
use atk_trace::Collector;
use atk_wm::WindowEvent;

const SEED: u64 = 42;
/// Steps a fleet client sends before it waits for the covering frames.
const WINDOW: u64 = 8;

/// Polls `done` until it holds, failing after ten seconds.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "{what}: not within 10 s");
        thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_faulted_fleet_with_hang_ups_serves_every_survivor_exactly() {
    const SESSIONS: usize = 16;
    const STEPS: usize = 40;
    const CUT_EVERY: usize = 5;
    let scene = "fig5";
    let server = Server::start(ServerConfig::default(), 2);
    let scripts: Vec<Vec<ScriptStep>> = (0..SESSIONS)
        .map(|i| client_script(Profile::Mixed, scene, SEED + i as u64, STEPS).unwrap())
        .collect();

    let handles: Vec<_> = scripts
        .iter()
        .enumerate()
        .map(|(i, script)| {
            let t = server.connect_mem(Some(SEED ^ i as u64)).unwrap();
            let script = script.clone();
            let cut = (i + 1).is_multiple_of(CUT_EVERY).then_some(STEPS / 2);
            thread::spawn(move || {
                let mut client = ServeClient::connect(t, scene).expect("connect");
                for (n, step) in script.iter().enumerate() {
                    if cut == Some(n) {
                        // Hang up: the transport drops with frames in
                        // flight and no goodbye.
                        return None;
                    }
                    client.send_step(step).expect("send");
                    if client.unacked() >= WINDOW {
                        client.sync().expect("sync");
                    }
                    assert!(!client.ended(), "client {i}: ended mid-script");
                }
                client.sync().expect("sync");
                Some(client.finish_with_frame().expect("finish").1)
            })
        })
        .collect();
    let finals: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let cuts = SESSIONS / CUT_EVERY;
    assert_eq!(finals.iter().filter(|fb| fb.is_none()).count(), cuts);
    for (i, (script, got)) in scripts.iter().zip(&finals).enumerate() {
        let Some(got) = got else { continue };
        let mut reference = Session::build(scene, "x11sim").unwrap();
        for step in script {
            reference.apply(step);
        }
        let want = reference.im.snapshot().unwrap();
        if let Some(d) = divergence(&want, got) {
            panic!("session {i}: served diverges: {d}");
        }
    }

    // Every cut released its slot and its shard load, and each counts
    // as exactly one shard failure.
    wait_until("shard loads back to 0", || {
        server.shard_loads().iter().all(|&n| n == 0)
    });
    assert_eq!(server.active_sessions(), 0);
    let failures: u64 = server
        .shard_snapshots()
        .iter()
        .map(|s| s.counter("serve.shard.failures"))
        .sum();
    assert_eq!(failures, cuts as u64);

    // The server still admits and serves a new session.
    let t = server.connect_mem(None).unwrap();
    let mut later = ServeClient::connect(t, scene).expect("a later Hello is admitted");
    later
        .step_sync(&ScriptStep::Event(WindowEvent::Tick(1)))
        .unwrap();
    later.finish().unwrap();

    server.shutdown_shards();
    let merged = server.merged_snapshot();
    assert_eq!(merged.counter("serve.backpressure_drops"), 0);
    assert_eq!(merged.counter("serve.shard.failures"), cuts as u64);
}

#[test]
fn a_watcher_hanging_up_under_faults_leaves_the_document_whole() {
    const WRITERS: usize = 2;
    const WATCHERS: usize = 2;
    const STEPS: usize = 40;
    let scene = "fig2";
    let cfg = ServerConfig {
        readiness_shuffle_seed: Some(SEED),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, 2);
    let script = interleaved_script(scene, SEED, WRITERS, STEPS).unwrap();

    // Writers first, then watchers; only the first attacher names the
    // scene.
    let mut clients: Vec<_> = (0..WRITERS + WATCHERS)
        .map(|i| {
            let t = server.connect_mem(Some(SEED ^ i as u64)).unwrap();
            ServeClient::attach(t, "chaos", (i == 0).then_some(scene)).expect("attach")
        })
        .collect();
    let doc = server.registry().get("chaos").expect("doc");
    assert_eq!(doc.replicas(), WRITERS + WATCHERS);

    for (n, (w, step)) in script.iter().enumerate() {
        if n == STEPS / 2 {
            // The last watcher hangs up mid-run, no goodbye.
            drop(clients.pop());
        }
        clients[*w].step_sync(step).expect("writer step");
        assert!(!clients[*w].ended(), "writer {w}: ended mid-script");
        if n % 8 == 7 {
            for watcher in &mut clients[WRITERS..] {
                watcher.drain_frames().expect("watcher drain");
            }
        }
    }
    wait_until("the hung-up watcher detached", || {
        doc.replicas() == WRITERS + WATCHERS - 1
    });

    let mut reference =
        HostedSession::open(scene, SessionConfig::default(), Arc::new(Collector::new())).unwrap();
    let merged: Vec<ScriptStep> = script.into_iter().map(|(_, s)| s).collect();
    reference.replay_steps(&merged);
    let want = reference.framebuffer();
    for (i, client) in clients.into_iter().enumerate() {
        let (_, got) = client.finish_with_frame().expect("finish");
        if let Some(d) = divergence(&want, &got) {
            panic!("replica {i}: diverges from the merged order: {d}");
        }
    }
    assert_eq!(doc.head(), STEPS as u64);
    server.shutdown_shards();
}
