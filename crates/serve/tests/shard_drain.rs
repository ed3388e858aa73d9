//! Graceful shard drain, acceptor behavior during a drain, and the
//! shard-local idle clock.
//!
//! A drained shard's live sessions cannot migrate (their `World`s are
//! pinned to the shard thread), so the promises under test are: every
//! acked frame arrived before the `Bye {drain}`, pending handshakes get
//! `Busy`, the acceptor keeps admitting onto the *other* shards
//! immediately (no backlog behind the draining one), and a drained
//! client's reconnect is welcomed. Plus the clock-bleed regression: one
//! session ticking far into its virtual future must never age a
//! neighbor hosted on the same shard toward idle eviction.

use std::sync::Arc;
use std::time::{Duration, Instant};

use atk_core::ScriptStep;
use atk_serve::wire::{ClientFrame, ServerFrame};
use atk_serve::{FrameTransport, MemTransport, Server, ServerConfig, SessionConfig};
use atk_wm::WindowEvent;

/// Admits the far half of a fresh pipe and completes the handshake.
fn open_session(server: &Arc<Server>, scene: &str) -> (MemTransport, u64) {
    let (mut client, server_half) = MemTransport::pair();
    server
        .admit(Box::new(server_half))
        .unwrap_or_else(|_| panic!("no shard accepting"));
    client
        .send(
            &ClientFrame::Hello {
                scene: scene.into(),
                backend: None,
            }
            .encode()
            .unwrap(),
        )
        .unwrap();
    let welcome = ServerFrame::decode(&client.recv().unwrap()).unwrap();
    let ServerFrame::Welcome { session_id, .. } = welcome else {
        panic!("expected Welcome, got {welcome:?}");
    };
    let key = ServerFrame::decode(&client.recv().unwrap()).unwrap();
    assert!(matches!(key, ServerFrame::Keyframe { seq: 0, .. }));
    (client, session_id)
}

/// Sends one step and returns the acked frame's seq.
fn step(client: &mut MemTransport, s: ScriptStep) -> u64 {
    client
        .send(&ClientFrame::Step(s).encode().unwrap())
        .unwrap();
    match ServerFrame::decode(&client.recv().unwrap()).unwrap() {
        ServerFrame::Update { seq, .. } | ServerFrame::Keyframe { seq, .. } => seq,
        other => panic!("expected a frame, got {other:?}"),
    }
}

fn expect_bye(client: &mut MemTransport, want_reason: &str) {
    match ServerFrame::decode(&client.recv().unwrap()).unwrap() {
        ServerFrame::Bye { reason } => assert_eq!(reason, want_reason),
        other => panic!("expected Bye {{{want_reason}}}, got {other:?}"),
    }
}

#[test]
fn drain_says_bye_drain_after_every_acked_frame() {
    let server = Server::start(ServerConfig::default(), 2);
    // Sequential admits onto empty shards: first lands on shard 0.
    let (mut a, _) = open_session(&server, "fig1");
    assert_eq!(server.shard_loads()[0], 1);

    // Three acked steps — each frame is in the client's hands before
    // the drain is even requested, so nothing can be lost.
    for want_seq in 1..=3u64 {
        let seq = step(&mut a, ScriptStep::Event(WindowEvent::ch('x')));
        assert_eq!(seq, want_seq);
    }

    assert!(server.drain_shard(0));
    expect_bye(&mut a, "drain");

    // The drained client reconnects and is welcomed — on the other
    // shard, since 0 no longer takes tenants.
    let (mut b, _) = open_session(&server, "fig1");
    assert_eq!(step(&mut b, ScriptStep::Event(WindowEvent::ch('y'))), 1);

    // The shard decrements its load (and counts the drain) right after
    // shipping the Bye; give the thread a moment to get there.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.shard_loads()[0] != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.shard_loads()[0], 0, "drained shard kept a tenant");
    let merged = server.merged_snapshot();
    assert_eq!(merged.counter("serve.shard.drained_sessions"), 1);
    server.shutdown_shards();
}

#[test]
fn pending_handshake_on_draining_shard_gets_busy() {
    let server = Server::start(ServerConfig::default(), 1);
    // Admit a connection but never say Hello: it sits in handshake.
    let (mut client, server_half) = MemTransport::pair();
    server
        .admit(Box::new(server_half))
        .unwrap_or_else(|_| panic!());
    assert!(server.drain_shard(0));
    // Whether the shard saw the connection before or after the drain
    // flag, the answer is the same polite Busy.
    let reply = ServerFrame::decode(&client.recv().unwrap()).unwrap();
    assert_eq!(reply, ServerFrame::Busy);
    server.shutdown_shards();
}

#[test]
fn acceptor_keeps_admitting_elsewhere_during_drain() {
    let server = Server::start(ServerConfig::default(), 2);
    assert!(server.drain_shard(0));
    // No backlog forms behind the draining shard: every admission lands
    // on shard 1 immediately and completes a full handshake.
    let started = Instant::now();
    let mut clients = Vec::new();
    for _ in 0..4 {
        let (client, _) = open_session(&server, "fig1");
        clients.push(client);
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "admissions stalled behind the draining shard"
    );
    assert_eq!(server.shard_loads()[0], 0);
    assert_eq!(server.shard_loads()[1], 4);
    for mut c in clients {
        c.send(&ClientFrame::Bye.encode().unwrap()).unwrap();
        expect_bye(&mut c, "bye");
    }
    server.shutdown_shards();
}

#[test]
fn all_shards_draining_bounces_admissions() {
    let server = Server::start(ServerConfig::default(), 1);
    assert!(server.drain_shard(0));
    assert!(!server.drain_shard(7), "unknown shard index must be false");
    let (_client, server_half) = MemTransport::pair();
    // The transport comes back so the acceptor can send Busy itself
    // (that is what `serve_listener_sharded` does).
    assert!(server.admit(Box::new(server_half)).is_err());
    server.shutdown_shards();
}

/// The clock-bleed regression: idle eviction is judged per session on
/// that session's own virtual clock. Session A ticking past the idle
/// horizon evicts A and only A; its shard neighbor B — whose own clock
/// barely moved — keeps its session even though a shard-wide clock
/// would long since have buried it.
#[test]
fn idle_eviction_is_shard_local_on_the_virtual_clock() {
    let cfg = ServerConfig {
        session: SessionConfig {
            idle_ms: Some(1000),
            ..SessionConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, 1);
    let (mut a, _) = open_session(&server, "fig1");
    let (mut b, _) = open_session(&server, "fig1");

    // A pushes its world clock 600ms in: still under the horizon.
    assert_eq!(step(&mut a, ScriptStep::Event(WindowEvent::Tick(600))), 1);
    // B advances a little; a shard-wide clock would already read 600+.
    assert_eq!(step(&mut b, ScriptStep::Event(WindowEvent::Tick(100))), 1);
    // A crosses its own horizon: frame, then Bye {idle}.
    assert_eq!(step(&mut a, ScriptStep::Event(WindowEvent::Tick(600))), 2);
    expect_bye(&mut a, "idle");
    // B is NOT evicted — its own clock reads 200ms. Under the bleed
    // bug (one clock per shard) this step would come back Bye {idle}.
    assert_eq!(step(&mut b, ScriptStep::Event(WindowEvent::Tick(100))), 2);
    // Real input refreshes B's stamp; it keeps working indefinitely.
    assert_eq!(step(&mut b, ScriptStep::Event(WindowEvent::ch('z'))), 3);
    b.send(&ClientFrame::Bye.encode().unwrap()).unwrap();
    expect_bye(&mut b, "bye");

    let merged = server.merged_snapshot();
    assert_eq!(merged.counter("serve.idle_evictions"), 1);
    server.shutdown_shards();
}
