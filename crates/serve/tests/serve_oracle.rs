//! The serving acceptance oracles, all on a cold-booting 1-shard
//! server (`fork: false` — the cold-boot path keeps its own
//! byte-identity coverage; the sharded differential covers forking):
//!
//! * served-vs-in-process: a served session replaying a fuzzer script
//!   ends byte-identical to the same script run in-process (four
//!   seeds, 40 steps each). `encode_oracle_fig*` runs every scene on
//!   x11sim; every frame crosses the wire in the smaller of its raw and
//!   RLE bodies, so this also proves the encoder round-trip end to end,
//!   and that the encoded bytes never exceed the raw ones.
//!   `served_matches_in_process_fig{1,3,5}` runs the same differential
//!   on awmsim, whose frames are display-list replays lent to the
//!   session a piece at a time. fig5 also replays one long script, so
//!   a chain of hundreds of updates on one keyframe must cross the
//!   wire byte-identical;
//! * moves: fig5 typing with Returns mid-text and past the view's
//!   bottom, on both backends, ends byte-identical to the in-process
//!   run; each Return's shifted lines ship as a move; each character
//!   typed mid-line, with no Return, ships its line's tail as a move;
//! * menu position: a recorded `menu request x y` + `menu select`
//!   script replays served and in-process to the same pixels;
//! * pipelined: `pipelined_matches_in_process_fig*` runs the fuzzer
//!   scripts on both backends from a client that sends eight steps
//!   before each sync, and from one that sends the whole script before
//!   one sync, so the server drains bursts of steps as one batch. Each
//!   must end on the in-process frame with the in-process counters.

use atk_serve::{serve_differential, Topology, Traffic};

const SEEDS: [u64; 4] = [1, 2, 7, 42];
const STEPS: usize = 40;
/// The long fig5 input: (seed, steps).
const LONG_FIG5: (u64, usize) = (3, 240);

fn cold() -> Topology {
    Topology {
        fork: false,
        ..Topology::default()
    }
}

/// Steps a pipelining client sends before each sync: eight, and the
/// whole script.
const WINDOWS: [usize; 2] = [8, usize::MAX];

fn run_pipelined(scene: &str) {
    for backend in ["x11sim", "awmsim"] {
        for (window, seed) in WINDOWS.into_iter().flat_map(|w| SEEDS.map(|s| (w, s))) {
            let traffic = Traffic::fuzz(scene, Some(backend), seed, 1, STEPS, window).unwrap();
            let report = serve_differential(scene, &traffic, &cold())
                .unwrap_or_else(|e| panic!("{backend} window {window} seed {seed}: {e}"));
            assert_eq!(report.steps, STEPS);
            assert_eq!(report.counter_planes, 1);
        }
    }
}

#[test]
fn pipelined_matches_in_process_fig1() {
    run_pipelined("fig1");
}

#[test]
fn pipelined_matches_in_process_fig2() {
    run_pipelined("fig2");
}

#[test]
fn pipelined_matches_in_process_fig3() {
    run_pipelined("fig3");
}

#[test]
fn pipelined_matches_in_process_fig4() {
    run_pipelined("fig4");
}

#[test]
fn pipelined_matches_in_process_fig5() {
    run_pipelined("fig5");
}

fn run_scene(scene: &str) {
    run_scene_on(scene, None);
}

fn run_scene_on(scene: &str, backend: Option<&str>) {
    let long = (scene == "fig5").then_some(LONG_FIG5);
    for (seed, steps) in SEEDS.map(|seed| (seed, STEPS)).into_iter().chain(long) {
        let traffic = Traffic::fuzz(scene, backend, seed, 1, steps, 1).unwrap();
        let report = serve_differential(scene, &traffic, &cold())
            .unwrap_or_else(|e| panic!("{scene} seed {seed}: {e}"));
        assert_eq!(report.steps, steps);
        if long == Some((seed, steps)) {
            // One keyframe, then a chain of pixel updates that a
            // keyframe breaks only where it ships fewer bytes than the
            // update would: this input's full-window redraws (resizes,
            // menus) make three such keyframes on either backend.
            let changed = report.diff_frames - report.merged.counter("serve.frames_unchanged");
            assert!(
                report.key_frames <= 4 && changed > 64,
                "{scene} seed {seed}: {} keyframes, {changed} pixel updates",
                report.key_frames
            );
        }
        assert!(
            report.diff_frames + report.key_frames > 0,
            "{scene} seed {seed}: no frames shipped"
        );
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
    run_scene_on("fig1", Some("awmsim"));
}

#[test]
fn served_matches_in_process_fig3() {
    run_scene_on("fig3", Some("awmsim"));
}

#[test]
fn served_matches_in_process_fig5() {
    run_scene_on("fig5", Some("awmsim"));
}

#[test]
fn encode_oracle_fig1() {
    run_scene("fig1");
}

#[test]
fn encode_oracle_fig2() {
    run_scene("fig2");
}

#[test]
fn encode_oracle_fig3() {
    run_scene("fig3");
}

#[test]
fn encode_oracle_fig4() {
    run_scene("fig4");
}

#[test]
fn encode_oracle_fig5() {
    run_scene("fig5");
}

/// A focus click mid-text in fig5, then forty short lines typed there:
/// every Return shifts the text below the caret down a line, and once
/// the caret passes the view's bottom each one scrolls the view too.
fn typing_returns() -> Vec<atk_core::ScriptStep> {
    use atk_core::ScriptStep;
    use atk_wm::{Key, WindowEvent};
    let mut steps = vec![
        ScriptStep::Event(WindowEvent::left_down(70, 70)),
        ScriptStep::Event(WindowEvent::left_up(70, 70)),
    ];
    for c in (0..40).flat_map(|i| format!("line {i}\n").chars().collect::<Vec<_>>()) {
        steps.push(ScriptStep::Event(match c {
            '\n' => WindowEvent::Key(Key::Return),
            c => WindowEvent::ch(c),
        }));
    }
    steps
}

#[test]
fn typed_returns_ship_as_moves_and_match_in_process() {
    // The script does scroll the text view.
    let mut probe = atk_check::Session::build("fig5", "x11sim").unwrap();
    for step in &typing_returns() {
        probe.apply(step);
    }
    let world = &probe.world;
    let scrolled = world.view_ids().into_iter().any(|v| {
        let view = world.view_dyn(v).unwrap();
        view.class_name() == "textview" && view.scroll_info(world).is_some_and(|s| s.offset > 0)
    });
    assert!(scrolled, "the typing never scrolled the text view");
    for backend in ["x11sim", "awmsim"] {
        let traffic = Traffic::Private {
            scripts: vec![typing_returns()],
            backend: Some(backend.to_string()),
            window: 1,
        };
        let report = serve_differential("fig5", &traffic, &cold())
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
        let (moves, posted) = (
            report.merged.counter("serve.moves"),
            report.merged.counter("world.moves"),
        );
        // Every typed character ships a move: its line's tail shifting
        // right. A Return ships the lines below it shifting down or,
        // on the last visible line, the scroll it brings about in its
        // own frame. No frame posts two moves, so every one ships.
        let chars = typing_returns().len() as u64 - 2 - 40;
        assert!(moves >= chars, "{backend}: {moves} moves shipped");
        assert_eq!(posted, moves, "{backend}: moves posted and shipped");
    }
}

/// A focus click mid-line in fig5, then `chars` characters typed
/// there with no Return.
fn typing_mid_line(chars: usize) -> Vec<atk_core::ScriptStep> {
    use atk_core::ScriptStep;
    use atk_wm::WindowEvent;
    let mut steps = vec![
        ScriptStep::Event(WindowEvent::left_down(70, 70)),
        ScriptStep::Event(WindowEvent::left_up(70, 70)),
    ];
    let typed = "typing".chars().cycle().take(chars);
    steps.extend(typed.map(|c| ScriptStep::Event(WindowEvent::ch(c))));
    steps
}

/// Each character typed mid-line shifts the rest of its line one glyph
/// right: the update ships that as a move plus the new glyph's cell, a
/// few hundred bytes where an XOR of the line's tail took about 2.2 KB.
/// The bytes are counted past the focus click's own frames.
#[test]
fn typed_characters_ship_their_line_tail_as_a_move() {
    const CHARS: usize = 30;
    for backend in ["x11sim", "awmsim"] {
        let run = |chars: usize| {
            let traffic = Traffic::Private {
                scripts: vec![typing_mid_line(chars)],
                backend: Some(backend.to_string()),
                window: 1,
            };
            serve_differential("fig5", &traffic, &cold())
                .unwrap_or_else(|e| panic!("{backend}, {chars} chars: {e}"))
        };
        let (clicked, typed) = (run(0), run(CHARS));
        let (moves, posted) = (
            typed.merged.counter("serve.moves"),
            typed.merged.counter("world.moves"),
        );
        assert!(moves >= CHARS as u64, "{backend}: {moves} moves shipped");
        assert_eq!(posted, moves, "{backend}: a frame posted two moves");
        let bytes = typed.encoded_bytes - clicked.encoded_bytes;
        assert!(
            bytes <= 400 * CHARS as u64,
            "{backend}: {bytes} B for {CHARS} characters"
        );
    }
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
        window: 1,
    };
    let report = serve_differential("fig3", &traffic, &cold()).unwrap();
    assert_eq!(report.steps, 3);
}
