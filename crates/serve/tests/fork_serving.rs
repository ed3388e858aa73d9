//! Serving out of template forks, observed from outside.
//!
//! Every served session forks from its shard's template. Three promises
//! of that path, each checked over the real wire: (1) a client that
//! asks for the `awmsim` backend in its `Hello` gets a forked
//! display-list session whose pixels match an in-process awmsim build;
//! (2) a one-shard 512-session admission storm pays exactly one cold
//! template build and forks every session from it; (3) the keyframe a
//! shard caches per template is byte for byte a fresh encode of a
//! forked session, and the updates a session that adopted it ships are
//! byte for byte those of an in-process cold session.

use std::sync::Arc;

use atk_apps::TemplateRegistry;
use atk_core::ScriptStep;
use atk_serve::{
    serve_differential, ClientFrame, FrameTransport, HostedSession, LoadConfig, MemTransport,
    Profile, Server, ServerConfig, ServerFrame, SessionConfig, Topology, Traffic,
};
use atk_trace::Collector;
use atk_wm::WindowEvent;

// A wire client asks for awmsim in its Hello; the shard forks an awmsim
// session from a template and the shipped pixels must match an
// in-process awmsim build replaying the same script. The server's
// session default stays x11sim, so agreement proves the Hello field —
// not the default — picked the backend.
#[test]
fn hello_backend_awmsim_round_trips_over_the_wire() {
    let scene = "fig3";
    let traffic = Traffic::fuzz(scene, Some("awmsim"), 7, 1, 40, 1).expect("scene builds");
    let run = serve_differential(scene, &traffic, &Topology::default())
        .unwrap_or_else(|e| panic!("served awmsim session: {e}"));
    assert_eq!(
        run.merged.counter("world.forks"),
        1,
        "the awmsim session must be born by fork"
    );
    assert_eq!(run.merged.counter("world.template_builds"), 1);
}

// Under a concurrent admission storm — 512 sessions of no steps racing
// onto one fig1 shard — every client completes, the template is built
// exactly once and every session is a fork of it.
#[test]
fn ramp_storm_builds_one_template_and_forks_every_session() {
    let sessions = 512;
    let mut cfg = LoadConfig {
        sessions,
        steps: 0,
        scene: "fig1".into(),
        profile: Profile::Mixed,
        shards: 1,
        ..LoadConfig::default()
    };
    cfg.server.max_sessions = sessions;
    let report = atk_serve::run_loadgen(&cfg).expect("ramp runs");
    assert!(
        report.errors.is_empty(),
        "client errors: {:?}",
        report.errors
    );
    assert_eq!(report.completed, sessions);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.backpressure_drops, Some(0));
    assert_eq!(
        report.template_builds,
        Some(1),
        "one scene on one shard must cost exactly one cold build"
    );
    assert_eq!(
        report.forks,
        Some(512),
        "every ramp session must be a template fork"
    );
    assert!(
        report.ttff_p50_us > 0,
        "ramp reports must carry TTFF percentiles"
    );
}

// The template keyframe cache: the second fig5 `Hello` on a shard
// ships the bytes the first one encoded, and both must be exactly a
// fresh `encode_frame` of a session forked from the same template.
#[test]
fn cached_keyframe_bytes_equal_a_fresh_encode_of_a_forked_session() {
    let server = Server::start(ServerConfig::default(), 1);
    let mut keyframes = Vec::new();
    for _ in 0..2 {
        let (mut client, server_half) = MemTransport::pair();
        let hello = ClientFrame::Hello {
            scene: "fig5".into(),
            backend: None,
        };
        client.send(&hello.encode().unwrap()).unwrap();
        assert!(server.admit(Box::new(server_half)).is_ok());
        let welcome = ServerFrame::decode(&client.recv().unwrap()).unwrap();
        assert!(
            matches!(welcome, ServerFrame::Welcome { .. }),
            "{welcome:?}"
        );
        keyframes.push(client.recv().unwrap());
        client.send(&ClientFrame::Bye.encode().unwrap()).unwrap();
        while !matches!(
            ServerFrame::decode(&client.recv().unwrap()).unwrap(),
            ServerFrame::Bye { .. }
        ) {}
    }
    server.shutdown_shards();
    assert_eq!(
        server
            .merged_snapshot()
            .counter("serve.keyframe_cache_hits"),
        1,
        "the second fig5 Hello must be served from the cache"
    );

    let mut templates = TemplateRegistry::new(Arc::new(Collector::new()));
    let mut session = HostedSession::open_with(
        "fig5",
        SessionConfig::default(),
        Arc::new(Collector::new()),
        Some(&mut templates),
    )
    .unwrap();
    let initial = session.initial_keyframe();
    let fresh = session.encode_frame(&initial);
    assert!(
        keyframes[1] == fresh,
        "cached keyframe bytes differ from a fresh encode"
    );
    assert!(
        keyframes[0] == fresh,
        "first keyframe differs from a fresh encode"
    );
}

/// A fig5 focus click, then `text` typed.
fn typed_steps(text: &str) -> Vec<ScriptStep> {
    let mut steps = vec![
        ScriptStep::Event(WindowEvent::left_down(70, 70)),
        ScriptStep::Event(WindowEvent::left_up(70, 70)),
    ];
    steps.extend(text.chars().map(|c| ScriptStep::Event(WindowEvent::ch(c))));
    steps
}

/// Serves one fig5 conversation, [`typed_steps`], one step at a time,
/// so every step ships exactly one frame, and returns the encoded pixel
/// frames (the keyframe, then one per step).
fn typed_frames(server: &Server, text: &str) -> Vec<Vec<u8>> {
    let (mut client, server_half) = MemTransport::pair();
    let hello = ClientFrame::Hello {
        scene: "fig5".into(),
        backend: None,
    };
    client.send(&hello.encode().unwrap()).unwrap();
    assert!(server.admit(Box::new(server_half)).is_ok());
    let welcome = ServerFrame::decode(&client.recv().unwrap()).unwrap();
    assert!(
        matches!(welcome, ServerFrame::Welcome { .. }),
        "{welcome:?}"
    );
    let mut frames = vec![client.recv().unwrap()];
    for step in typed_steps(text) {
        client
            .send(&ClientFrame::Step(step).encode().unwrap())
            .unwrap();
        frames.push(client.recv().unwrap());
    }
    client.send(&ClientFrame::Bye.encode().unwrap()).unwrap();
    while !matches!(
        ServerFrame::decode(&client.recv().unwrap()).unwrap(),
        ServerFrame::Bye { .. }
    ) {}
    for bytes in &frames {
        let frame = ServerFrame::decode(bytes).unwrap();
        assert!(
            matches!(
                frame,
                ServerFrame::Keyframe { .. } | ServerFrame::Update { .. }
            ),
            "{frame:?}"
        );
    }
    frames
}

// A keyframe-cache hit diffs against the cached frame, inside the
// written record it cleared when it adopted that frame. A write the
// record missed, or a clear while the baseline differed from the
// screen, would drop pixels from its updates without any error, so
// the hit's shipped bytes must equal, frame for frame, those an
// in-process cold session encodes for the same steps.
#[test]
fn a_cache_hit_session_ships_the_updates_of_a_cold_one() {
    let text = "cache hit types";
    let server = Server::start(ServerConfig::default(), 1);
    let _miss = typed_frames(&server, text);
    let hit = typed_frames(&server, text);
    server.shutdown_shards();
    assert_eq!(
        server
            .merged_snapshot()
            .counter("serve.keyframe_cache_hits"),
        1,
        "the second session must adopt the cached keyframe"
    );

    let mut session =
        HostedSession::open("fig5", SessionConfig::default(), Arc::new(Collector::new())).unwrap();
    let initial = session.initial_keyframe();
    let mut cold = vec![session.encode_frame(&initial)];
    for step in typed_steps(text) {
        let (frame, _) = session.apply_batch(&[step], 0);
        cold.push(session.encode_frame(&frame));
    }

    assert_eq!(hit.len(), cold.len(), "frames shipped");
    assert!(
        hit.len() > text.len(),
        "one frame per step plus the keyframe"
    );
    for (i, (h, c)) in hit.iter().zip(&cold).enumerate() {
        assert!(
            h == c,
            "frame {i} differs between the cache hit and the cold session"
        );
    }
}
