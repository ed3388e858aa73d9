//! Minimized fuzzer finds, pinned.
//!
//! Each script is a 1-minimal reproduction `runcheck --window 1` once
//! shrank. It replays one step at a time, and its oracle runs after
//! every step, exactly as the fuzzer's one-step window does.

use atk_check::oracles::{check_layout, check_repaint};
use atk_check::Session;
use atk_core::EventScript;

fn replay(scene: &str, script: &str, oracle: fn(&mut Session) -> Option<String>) -> Session {
    let mut session = Session::build(scene, "x11sim").expect("scene builds");
    let steps = EventScript::parse(script).expect("script parses").steps;
    for (i, step) in steps.iter().enumerate() {
        session.apply(step);
        if let Some(detail) = oracle(&mut session) {
            panic!("{scene}, step {i} ({step:?}): {detail}");
        }
    }
    session
}

// A resize relays the text out at the new width; the click that
// follows must repaint against that layout, not the one on screen
// before the resize.
#[test]
fn fig3_seed2_resize_then_click_repaints() {
    replay("fig3", "resize 457 182\nmouse down 253 19\n", check_repaint);
}

#[test]
fn fig3_seed11_resize_then_click_repaints() {
    replay("fig3", "resize 507 146\nmouse down 218 19\n", check_repaint);
}

#[test]
fn fig3_seed19_resize_then_click_repaints() {
    replay("fig3", "resize 367 201\nmouse down 156 47\n", check_repaint);
}

#[test]
fn fig2_seed3_click_resize_click_repaints() {
    replay(
        "fig2",
        "mouse down 541 56\nresize 309 161\nmouse down 235 43\n",
        check_repaint,
    );
}

// Killing a line inside a multi-line selection clears the selection:
// its highlight on lines outside the killed strip must be repainted.
#[test]
fn fig1_seed18_kill_inside_a_selection_repaints() {
    replay(
        "fig1",
        "mouse down 35 171\nmouse drag 21 38\nkey C-k\n",
        check_repaint,
    );
}

// Zooming after a drag changes every line's height; the incremental
// layout must match a from-scratch one.
#[test]
fn fig4_seeds10_12_zoom_after_drag_relays_out() {
    replay(
        "fig4",
        "mouse drag 27 88\nmenu select Zoom In\n",
        check_layout,
    );
}

// Killing the rest of a line moves what follows it left; a kill
// wider than what follows leaves killed glyphs past where that lands,
// which must be repainted.
#[test]
fn fig1_seed1_kill_wider_than_the_rest_of_the_line_repaints() {
    replay(
        "fig1",
        "mouse down 246 235\nmouse drag 142 20\nkey RET\ntype =7dsyk9g\n\
         menu select Bigger\nresize 165 347\nkey RET\ntype Ag\nkey UP\nkey C-k\n",
        check_repaint,
    );
}

// A character typed into a line shifts the rest of the line sideways on
// screen instead of repainting it. fig5's title line is bold; here its
// first word is made italic too, and text is typed and deleted just
// before that run and just after its first glyph. Capitals ink the top
// rows, which the italic shear slants rightward, so a glyph inking
// outside its advance cell would leave stale pixels beside the edit
// column.
#[test]
fn fig5_typing_beside_an_italic_bold_run_repaints() {
    let script = "mouse down 20 70\nmouse up 20 70\nmenu select Italic\n\
                  type TE\nkey BS\nkey BS\n\
                  key C-f\ntype TH\nkey BS\nkey DEL\n";
    let session = replay("fig5", script, check_repaint);
    let moves = session.world.collector().snapshot().counter("world.moves");
    assert!(moves >= 7, "{moves} edits moved their line's tail");
}

// A Return typed on the last visible line scrolls the view in its own
// frame: the caret's new line lies inside the view right after the
// step. The view used to measure the caret against the line table from
// before the Return and scroll only at the next key.
#[test]
fn fig5_a_return_past_the_bottom_scrolls_in_its_own_frame() {
    use atk_core::{ScriptStep, View};
    use atk_graphics::Point;
    use atk_text::TextView;
    use atk_wm::{Key, WindowEvent};

    let mut session = Session::build("fig5", "x11sim").expect("scene builds");
    let mut script = "mouse down 70 70\nmouse up 70 70\n".to_string();
    for i in 0..40 {
        script.push_str(&format!("type line {i}\nkey RET\n"));
    }
    let steps = EventScript::parse(&script).expect("script parses").steps;
    let mut scrolled = 0;
    for (i, step) in steps.iter().enumerate() {
        session.apply(step);
        if *step != ScriptStep::Event(WindowEvent::Key(Key::Return)) {
            continue;
        }
        let world = &session.world;
        let view = world
            .view_ids()
            .into_iter()
            .filter_map(|v| world.view_dyn(v))
            .find_map(|v| v.as_any().downcast_ref::<TextView>())
            .expect("fig5 has a text view");
        let info = view.scroll_info(world).expect("a text view scrolls");
        scrolled += usize::from(info.offset > 0);
        // Each Return leaves the caret at the start of its new line:
        // the view's top row lies on that line or above it, and its
        // bottom row on it or below.
        let caret = view.caret();
        let top = view.pos_at_point(world, Point::new(0, 0));
        let bottom = view.pos_at_point(world, Point::new(0, info.visible - 1));
        assert!(
            top <= caret && caret <= bottom,
            "step {i}: the caret at {caret} lies outside rows {top}..={bottom}"
        );
    }
    assert!(
        scrolled > 10,
        "only {scrolled} Returns left the view scrolled"
    );
}

// Damage that is several rects is painted rect by rect: a view draws
// only the lines and children the clip reaches. Returns that move the
// elevator's thumb, Returns past the bottom that scroll, and a
// selection dragged across lines each repaint what a full redraw
// paints.
#[test]
fn fig5_returns_scrolls_and_a_drag_under_multi_rect_damage_repaint() {
    let mut script = "mouse down 70 70\nmouse up 70 70\n".to_string();
    for i in 0..30 {
        script.push_str(&format!("type line {i}\nkey RET\n"));
    }
    script
        .push_str("mouse down 40 120\nmouse drag 300 400\nmouse drag 120 260\nmouse up 120 260\n");
    let session = replay("fig5", &script, check_repaint);
    let snap = session.world.collector().snapshot();
    let rects = snap
        .histogram("im.damage_rects")
        .expect("update passes ran");
    assert!(
        rects.max >= 2,
        "no update pass had more than one damage rect"
    );
    let world = &session.world;
    let scrolled = world
        .view_ids()
        .into_iter()
        .filter_map(|v| world.view_dyn(v))
        .filter(|v| v.class_name() == "textview")
        .filter_map(|v| v.scroll_info(world))
        .any(|s| s.offset > 0);
    assert!(scrolled, "the Returns never scrolled the text");
}
