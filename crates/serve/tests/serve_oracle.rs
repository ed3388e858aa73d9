//! The serving acceptance oracles, all on a cold-booting 1-shard
//! server (`fork: false` — the `--no-fork` path keeps its own
//! byte-identity coverage; the sharded differential covers forking):
//!
//! * served-vs-in-process: a served session replaying a fuzzer script
//!   ends byte-identical to the same script run in-process (three
//!   scenes × four seeds, 40 steps each);
//! * `encode`: the same differential at the default config, where the
//!   RLE wire encoder is on — every scene × the same seeds — so the
//!   encoder round-trip is proven end to end, and no frame's chosen
//!   body is larger than the raw one;
//! * menu position: a recorded `menu request x y` + `menu select`
//!   script replays served and in-process to the same pixels.

use atk_serve::{serve_differential, ServedRun, SessionConfig, Topology, Traffic};

const SEEDS: [u64; 4] = [1, 2, 7, 42];
const STEPS: usize = 40;

fn cold(session: SessionConfig) -> Topology {
    Topology {
        session,
        fork: false,
        ..Topology::default()
    }
}

fn run(scene: &str, seed: u64, session: SessionConfig) -> ServedRun {
    let traffic = Traffic::fuzz(scene, None, seed, 1, STEPS).unwrap();
    let report = serve_differential(scene, &traffic, &cold(session))
        .unwrap_or_else(|e| panic!("{scene} seed {seed}: {e}"));
    assert_eq!(report.steps, STEPS);
    assert!(
        report.diff_frames + report.key_frames > 0,
        "{scene} seed {seed}: no frames shipped"
    );
    report
}

fn run_scene(scene: &str) {
    for seed in SEEDS {
        run(scene, seed, SessionConfig::default());
    }
}

fn run_scene_encoded(scene: &str) {
    for seed in SEEDS {
        let report = run(scene, seed, SessionConfig::default());
        assert!(
            report.encoded_bytes <= report.raw_bytes,
            "{scene} seed {seed}: encoder inflated the wire \
             ({} encoded vs {} raw)",
            report.encoded_bytes,
            report.raw_bytes
        );
    }
}

#[test]
fn served_matches_in_process_fig1() {
    run_scene("fig1");
}

#[test]
fn served_matches_in_process_fig3() {
    run_scene("fig3");
}

#[test]
fn served_matches_in_process_fig5() {
    run_scene("fig5");
}

#[test]
fn encode_oracle_fig1() {
    run_scene_encoded("fig1");
}

#[test]
fn encode_oracle_fig2() {
    run_scene_encoded("fig2");
}

#[test]
fn encode_oracle_fig3() {
    run_scene_encoded("fig3");
}

#[test]
fn encode_oracle_fig4() {
    run_scene_encoded("fig4");
}

#[test]
fn encode_oracle_fig5() {
    run_scene_encoded("fig5");
}

#[test]
fn menu_position_survives_the_wire() {
    use atk_core::ScriptStep;
    use atk_graphics::Point;
    use atk_wm::WindowEvent;

    // fig3 builds with a focused mail view that offers menus; record a
    // request away from the origin followed by a selection, and demand
    // the served replay land on the in-process replay's exact pixels.
    let mut probe = atk_check::Session::build("fig3", "x11sim").unwrap();
    probe.apply(&ScriptStep::Event(WindowEvent::MenuRequest {
        pos: Point::new(300, 220),
    }));
    let label = probe
        .im
        .offered_menus()
        .first()
        .map(|m| format!("{}/{}", m.card, m.label))
        .expect("fig3 offers menus");

    let script = vec![
        ScriptStep::Event(WindowEvent::MenuRequest {
            pos: Point::new(300, 220),
        }),
        ScriptStep::MenuSelect(label),
        ScriptStep::Event(WindowEvent::Tick(5)),
    ];
    let traffic = Traffic::Private {
        scripts: vec![script],
        backend: None,
    };
    let report = serve_differential("fig3", &traffic, &cold(SessionConfig::default())).unwrap();
    assert_eq!(report.steps, 3);
}
