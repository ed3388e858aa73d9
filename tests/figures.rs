//! Experiment E6: every figure of the paper is reconstructible from live
//! components, renders real content, and is backend-independent.

use atk_apps::scenes;
use atk_graphics::Color;

fn ink(scene: &scenes::Scene) -> usize {
    let fb = scene.im.snapshot().expect("snapshot");
    (0..fb.width())
        .flat_map(|x| (0..fb.height()).map(move |y| (x, y)))
        .filter(|&(x, y)| fb.get(x, y) != Color::WHITE)
        .count()
}

#[test]
fn all_five_figures_build_and_render() {
    let scenes = scenes::all_figures("x11sim").unwrap();
    let names: Vec<&str> = scenes.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        vec![
            "fig1_view_tree",
            "fig2_help",
            "fig3_messages_reading",
            "fig4_messages_compose",
            "fig5_ez_compound"
        ]
    );
    for s in &scenes {
        assert!(ink(s) > 800, "{}: only {} inked pixels", s.name, ink(s));
    }
}

#[test]
fn figures_are_pixel_identical_across_window_systems() {
    let on_x11 = scenes::all_figures("x11sim").unwrap();
    let on_awm = scenes::all_figures("awmsim").unwrap();
    for (a, b) in on_x11.iter().zip(&on_awm) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.im.snapshot().unwrap(),
            b.im.snapshot().unwrap(),
            "{} differs across backends",
            a.name
        );
    }
}

#[test]
fn figure_snapshots_write_to_disk() {
    // Unique per test run: all #[test]s in one binary share a process id,
    // so a pid-only name lets parallel tests stomp each other's dirs.
    let dir = scenes::unique_temp_dir("atk_figs");
    let mut ws = atk_wm::x11sim::X11Sim::new();
    let scene = scenes::fig5_ez_compound(&mut ws).unwrap();
    let path = scene.snapshot_to(&dir).unwrap();
    let meta = std::fs::metadata(&path).unwrap();
    assert!(meta.len() > 10_000, "ppm should be substantial");
    // Clean up on success; a failing run leaves the dir for inspection.
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig1_diagram_text_matches_the_paper() {
    let mut ws = atk_wm::x11sim::X11Sim::new();
    let scene = scenes::fig1_view_tree(&mut ws).unwrap();
    let tree = scenes::print_view_tree(&scene.world, scene.im.root());
    for needle in [
        "interaction manager",
        "frame",
        "scroll",
        "textview",
        "tablev",
        "-> dataobject",
    ] {
        assert!(tree.contains(needle), "missing {needle} in:\n{tree}");
    }
}

#[test]
fn fig5_contains_all_four_component_kinds() {
    let mut ws = atk_wm::x11sim::X11Sim::new();
    let scene = scenes::fig5_ez_compound(&mut ws).unwrap();
    // Walk the view tree and collect class names.
    fn classes(world: &atk_core::World, v: atk_core::ViewId, out: &mut Vec<&'static str>) {
        if let Some(view) = world.view_dyn(v) {
            out.push(view.class_name());
            for c in view.children() {
                classes(world, c, out);
            }
        }
    }
    let mut all = Vec::new();
    classes(&scene.world, scene.im.root(), &mut all);
    for class in ["textview", "tablev", "eqv", "animationv"] {
        assert!(
            all.contains(&class),
            "figure 5 should host a {class}: {all:?}"
        );
    }
}

#[test]
fn fig3_message_body_contains_a_drawing_view() {
    let mut ws = atk_wm::x11sim::X11Sim::new();
    let scene = scenes::fig3_messages_reading(&mut ws).unwrap();
    fn classes(world: &atk_core::World, v: atk_core::ViewId, out: &mut Vec<&'static str>) {
        if let Some(view) = world.view_dyn(v) {
            out.push(view.class_name());
            for c in view.children() {
                classes(world, c, out);
            }
        }
    }
    let mut all = Vec::new();
    classes(&scene.world, scene.im.root(), &mut all);
    assert!(all.contains(&"drawingv"), "{all:?}");
    assert!(all.contains(&"list"), "{all:?}");
}

#[test]
fn any_figure_prints_through_the_postscript_drawable() {
    // §4's promise, at scene scale: repaint the figure-1 window (frame,
    // scrollbar, text, embedded table) onto the printer drawable.
    let mut ws = atk_wm::x11sim::X11Sim::new();
    let mut scene = scenes::fig1_view_tree(&mut ws).unwrap();
    let root = scene.im.root();
    let ps = atk_core::print_view(&mut scene.world, root);
    assert!(ps.starts_with("%!PS-Adobe-2.0"));
    assert!(
        ps.contains("(Dear) show") || ps.contains("Dear"),
        "letter text printed"
    );
    assert!(
        ps.contains("(travel) show"),
        "embedded table printed too:\n{}",
        &ps[..500.min(ps.len())]
    );
}

#[test]
fn documents_with_unknown_view_classes_still_render() {
    // An anchor naming a view class nobody provides: the text view skips
    // the inset but renders everything else.
    use atk_text::TextData;
    let mut world = atk_apps::standard_world();
    let inner = world.insert_data(Box::new(TextData::from_str("hidden")));
    let mut text = TextData::from_str("before  after");
    text.add_embedded(7, inner, "holographview");
    let doc = world.insert_data(Box::new(text));
    let (frame, _tv) = atk_apps::EzApp::build_tree(&mut world, doc).unwrap();
    let mut ws = atk_wm::x11sim::X11Sim::new();
    use atk_wm::WindowSystem as _;
    let win = ws.open_window("t", atk_graphics::Size::new(300, 120));
    let mut im = atk_core::InteractionManager::new(&mut world, win, frame);
    im.pump(&mut world);
    im.redraw_full(&mut world);
    let snap = im.snapshot().unwrap();
    let ink = snap.count_pixels(snap.bounds(), Color::BLACK);
    assert!(
        ink > 50,
        "document with an unknown inset must still render, ink {ink}"
    );
}

/// A Return in fig5's text repaints the elevator only where its thumb
/// changed: the damage region holds no bar pixel outside the thumb
/// before and after the Return, none at all while the thumb stays put,
/// and the screen still equals a full redraw.
#[test]
fn a_fig5_return_damages_the_elevator_thumb_not_its_bar() {
    use atk_components::scroll::{ScrollView, BAR_WIDTH};
    use atk_graphics::{Point, Rect, Region};
    use atk_wm::{Key, WindowEvent};

    let scenes::Scene {
        mut world, mut im, ..
    } = scenes::build_scene("fig5", "x11sim").unwrap();
    // The scroller around the document's text, and its window origin.
    let scroll = world
        .view_ids()
        .into_iter()
        .find(|&v| {
            let children = world.view_dyn(v).map(|s| s.children()).unwrap_or_default();
            world.view_dyn(v).map(|s| s.class_name()) == Some("scroll")
                && children
                    .iter()
                    .any(|&c| world.view_dyn(c).map(|t| t.class_name()) == Some("textview"))
        })
        .expect("fig5 scrolls its text");
    let mut origin = Point::ORIGIN;
    let mut at = Some(scroll);
    while let Some(v) = at {
        origin += world.view_bounds(v).origin();
        at = world.view_parent(v);
    }
    let height = world.view_bounds(scroll).height;
    let bar = Rect::new(origin.x, origin.y, BAR_WIDTH, height);
    let thumb = |world: &atk_core::World| {
        let sv = world.view_as::<ScrollView>(scroll).unwrap();
        sv.thumb_rect(world).unwrap().translate(origin.x, origin.y)
    };
    for ev in [WindowEvent::left_down(70, 70), WindowEvent::left_up(70, 70)] {
        im.dispatch(&mut world, ev);
        im.settle(&mut world);
    }
    let (mut still, mut moved) = (0, 0);
    for i in 0..30 * 24 {
        let key = if i % 24 == 23 {
            Key::Return
        } else {
            Key::Char('x')
        };
        let old = thumb(&world);
        im.dispatch(&mut world, WindowEvent::Key(key));
        im.flush_quiescent(&mut world);
        let region = world.take_damage_region_for(im.root());
        let new = thumb(&world);
        let in_bar = region.intersect_rect(bar);
        if key == Key::Return {
            let outside = in_bar.subtract(&Region::from_rects(vec![old, new]));
            assert!(outside.is_empty(), "Return {i}: bar damage {outside:?}");
            if old == new {
                assert!(in_bar.is_empty(), "Return {i}: {in_bar:?}, thumb still");
                still += 1;
            } else {
                assert!(!in_bar.is_empty(), "Return {i}: the thumb moved undamaged");
                moved += 1;
            }
        }
        for r in region.rects() {
            world.post_damage(im.root(), *r);
        }
        im.repaint_damage(&mut world);
    }
    assert!(still > 0 && moved > 0, "{still} still, {moved} moved");
    let incremental = im.snapshot().unwrap();
    im.redraw_full(&mut world);
    assert_eq!(im.snapshot().unwrap(), incremental);
}
