//! Experiment E5 (paper §8): window-system independence.
//!
//! * The porting surface is six classes / ~70 routines, ~50 of them
//!   graphics-layer transformations.
//! * The same drawing runs on both backends without recompilation and
//!   produces identical pixels.
//! * The backend is selected at run time by an environment variable.

use atk_graphics::{Color, FontDesc, Point, Rect, Size};
use atk_wm::{surface, Graphic, Window, WindowSystem};

#[test]
fn port_surface_is_six_classes_about_seventy_routines() {
    let classes = surface::port_surface();
    assert_eq!(classes.len(), 6, "paper: six classes must be written");
    let total = surface::total_routines();
    assert!(
        (55..=85).contains(&total),
        "paper: approximately 70 routines; surface has {total}"
    );
    let gfx = surface::graphics_routines();
    assert!(
        (35..=60).contains(&gfx),
        "paper: about 50 graphics-layer routines; surface has {gfx}"
    );
    // The six class names match the paper's list.
    let names: Vec<&str> = classes.iter().map(|c| c.name).collect();
    assert!(names.iter().any(|n| n.contains("windowsystem")));
    assert!(names.iter().any(|n| n.contains("im")));
    assert!(names.iter().any(|n| n.contains("cursor")));
    assert!(names.iter().any(|n| n.contains("graphic")));
    assert!(names.iter().any(|n| n.contains("fontdesc")));
    assert!(names.iter().any(|n| n.contains("offscreen")));
}

/// A representative drawing exercising most of the Graphic surface.
fn draw_scene(g: &mut dyn Graphic) {
    g.set_foreground(Color::BLACK);
    g.fill_rect(Rect::new(5, 5, 40, 20));
    g.draw_rect(Rect::new(50, 5, 40, 20));
    g.set_line_width(3);
    g.draw_line(Point::new(5, 35), Point::new(90, 45));
    g.set_line_width(1);
    g.draw_oval(Rect::new(5, 50, 30, 20));
    g.fill_oval(Rect::new(40, 50, 30, 20));
    g.fill_polygon(&[Point::new(80, 50), Point::new(95, 70), Point::new(75, 70)]);
    g.fill_wedge(Rect::new(5, 75, 30, 30), 0.0, 120.0);
    g.set_font(FontDesc::default_body());
    g.draw_string(Point::new(40, 80), "Andrew");
    g.draw_string_baseline(Point::new(40, 100), "Toolkit");
    g.gsave();
    g.translate(60, 75);
    g.clip_rect(Rect::new(0, 0, 20, 20));
    g.fill_rect(Rect::new(0, 0, 100, 100));
    g.grestore();
    g.move_to(Point::new(2, 110));
    g.line_to(Point::new(40, 110));
    g.invert_rect(Rect::new(10, 10, 20, 10));
    g.draw_bezel(Rect::new(70, 100, 24, 12), true);
}

#[test]
fn identical_pixels_on_both_backends() {
    let mut x11 = atk_wm::x11sim::X11Sim::new();
    let mut awm = atk_wm::awmsim::AwmSim::new();
    let mut wx = x11.open_window("t", Size::new(110, 120));
    let mut wa = awm.open_window("t", Size::new(110, 120));
    draw_scene(wx.graphic());
    draw_scene(wa.graphic());
    let fx = wx.snapshot();
    let fa = wa.snapshot();
    assert_eq!(fx, fa, "the two window systems disagree on pixels");
    // And the scene is non-trivial.
    assert!(fx.count_pixels(fx.bounds(), Color::BLACK) > 900);
}

#[test]
fn wire_protocol_round_trip_preserves_the_scene() {
    // Record the scene, ship it over the simulated network protocol,
    // replay the decoded stream, and compare pixels.
    let mut w = atk_wm::awmsim::AwmWindow::new("t", Size::new(110, 120));
    draw_scene(w.graphic());
    let ops = w.display_list();
    let direct = w.snapshot();
    let bytes = atk_wm::awmsim::encode(&ops);
    assert!(!bytes.is_empty());
    let decoded = atk_wm::awmsim::decode(&bytes).unwrap();
    assert_eq!(decoded, ops);
    let mut fb = atk_graphics::Framebuffer::new(110, 120, Color::WHITE);
    atk_wm::awmsim::replay(&decoded, &mut fb);
    assert_eq!(fb, direct);
}

#[test]
fn env_var_selects_backend() {
    // Explicit names win; the default is x11sim.
    assert_eq!(
        atk_wm::open_window_system(Some("awmsim")).unwrap().name(),
        "awmsim"
    );
    assert_eq!(
        atk_wm::open_window_system(Some("x11")).unwrap().name(),
        "x11sim"
    );
    assert!(atk_wm::open_window_system(Some("sunview")).is_err());
}

#[test]
fn printer_drawable_reuses_the_same_draw_code() {
    // §4: point a view's draw path at a printer drawable and get a page.
    let mut ps = atk_wm::printer::PostScriptGraphic::new(612, 792);
    draw_scene(&mut ps);
    let doc = ps.document();
    assert!(doc.starts_with("%!PS-Adobe-2.0"));
    assert!(doc.contains("(Andrew) show"));
    assert!(doc.contains("fill"));
    assert!(doc.contains("stroke"));
    assert!(ps.op_count() >= 10);
}

#[test]
fn offscreen_windows_compose_on_both_backends() {
    for name in ["x11sim", "awmsim"] {
        let mut ws = atk_wm::open_window_system(Some(name)).unwrap();
        let mut off = ws.open_offscreen(Size::new(20, 20));
        off.graphic().fill_oval(Rect::new(0, 0, 20, 20));
        let bits = off.bits();
        let mut win = ws.open_window("t", Size::new(60, 60));
        win.graphic()
            .bitblt(&bits, bits.bounds(), Point::new(20, 20));
        let snap = win.snapshot();
        assert!(
            snap.count_pixels(Rect::new(20, 20, 20, 20), Color::BLACK) > 200,
            "backend {name}"
        );
    }
}
