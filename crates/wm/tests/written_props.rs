//! Soundness of each backend's written bounds: every pixel a sequence
//! of `Graphic` operations changes lies inside what the window reports
//! through `take_written`. A frame diff bounded by that rect is then
//! exactly the full-frame diff.

use atk_graphics::{Color, FontDesc, FontStyle, Framebuffer, Point, RasterOp, Rect, Size};
use atk_wm::{open_window_system, Window};
use proptest::prelude::*;

const W: i32 = 120;
const H: i32 = 90;

/// One step of a random drawing script.
#[derive(Debug, Clone)]
enum Op {
    Fill(Rect, Color, bool),
    Clear(Rect),
    Outline(Rect),
    Line(Point, Point, i32),
    Text(Point, String, FontDesc, bool),
    Oval(Rect, bool),
    Polygon(Vec<Point>),
    Wedge(Rect, i32, i32),
    Bitblt(Rect, Point),
    CopyArea(Rect, Point),
    Clip(Rect),
    Translate(i32, i32),
    Save,
    Restore,
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-30i32..W + 30, -30i32..H + 30).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-30i32..W + 30, -30i32..H + 30, -4i32..70, -4i32..50)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

fn arb_style() -> impl Strategy<Value = FontStyle> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(bold, italic, underline)| FontStyle {
        bold,
        italic,
        underline,
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_rect(), any::<u32>(), any::<bool>()).prop_map(|(r, c, xor)| Op::Fill(
            r,
            Color(c),
            xor
        )),
        arb_rect().prop_map(Op::Clear),
        arb_rect().prop_map(Op::Outline),
        (arb_point(), arb_point(), 1i32..5).prop_map(|(a, b, w)| Op::Line(a, b, w)),
        (
            arb_point(),
            "[a-zA-Z0-9 ~é\u{2603}]{0,10}",
            prop_oneof![Just("andy"), Just("andytype")],
            prop_oneof![Just(12u32), Just(24u32)],
            arb_style(),
            any::<bool>(),
        )
            .prop_map(|(p, s, family, size, style, baseline)| {
                Op::Text(p, s, FontDesc::new(family, style, size), baseline)
            }),
        (arb_rect(), any::<bool>()).prop_map(|(r, fill)| Op::Oval(r, fill)),
        proptest::collection::vec(arb_point(), 0..7).prop_map(Op::Polygon),
        (arb_rect(), 0i32..360, 1i32..360).prop_map(|(r, a, sweep)| Op::Wedge(r, a, a + sweep)),
        (arb_rect(), arb_point()).prop_map(|(r, p)| Op::Bitblt(r, p)),
        (arb_rect(), arb_point()).prop_map(|(r, p)| Op::CopyArea(r, p)),
        arb_rect().prop_map(Op::Clip),
        (-20i32..20, -20i32..20).prop_map(|(dx, dy)| Op::Translate(dx, dy)),
        Just(Op::Save),
        Just(Op::Restore),
    ]
}

/// A 24×16 off-screen pattern for `bitblt` sources.
fn bits() -> Framebuffer {
    let mut fb = Framebuffer::new(24, 16, Color::WHITE);
    fb.fill_rect(Rect::new(2, 2, 12, 9), Color::RED);
    fb.draw_line(Point::new(0, 15), Point::new(23, 0), 1, Color::BLACK);
    fb
}

fn run(w: &mut dyn Window, op: &Op, bits: &Framebuffer) {
    let g = w.graphic();
    match op {
        Op::Fill(r, c, xor) => {
            g.set_foreground(*c);
            g.set_raster_op(if *xor { RasterOp::Xor } else { RasterOp::Copy });
            g.fill_rect(*r);
            g.set_raster_op(RasterOp::Copy);
        }
        Op::Clear(r) => g.clear_rect(*r),
        Op::Outline(r) => g.draw_rect(*r),
        Op::Line(a, b, width) => {
            g.set_line_width(*width);
            g.draw_line(*a, *b);
        }
        Op::Text(p, s, font, baseline) => {
            g.set_font(font.clone());
            if *baseline {
                g.draw_string_baseline(*p, s);
            } else {
                g.draw_string(*p, s);
            }
        }
        Op::Oval(r, true) => g.fill_oval(*r),
        Op::Oval(r, false) => g.draw_oval(*r),
        Op::Polygon(pts) => g.fill_polygon(pts),
        Op::Wedge(r, a, b) => g.fill_wedge(*r, *a as f64, *b as f64),
        Op::Bitblt(src, dst) => g.bitblt(bits, *src, *dst),
        Op::CopyArea(src, dst) => g.copy_area(*src, *dst),
        Op::Clip(r) => g.clip_rect(*r),
        Op::Translate(dx, dy) => g.translate(*dx, *dy),
        Op::Save => g.gsave(),
        Op::Restore => g.grestore(),
    }
}

const BACKENDS: [&str; 2] = ["x11sim", "awmsim"];

fn open(backend: &str) -> Box<dyn Window> {
    open_window_system(Some(backend))
        .unwrap()
        .open_window("written", Size::new(W, H))
}

/// Every pixel where `before` and `after` differ, as a list of points
/// outside `written`.
fn escaped(before: &Framebuffer, after: &Framebuffer, written: Rect) -> Vec<Point> {
    let mut out = Vec::new();
    for y in 0..before.height() {
        for x in 0..before.width() {
            let p = Point::new(x, y);
            if before.get(x, y) != after.get(x, y) && !written.contains(p) {
                out.push(p);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Scripts run in chunks; after each chunk the changed pixels must
    /// lie inside the reported rect, and asking again reports nothing.
    #[test]
    fn every_changed_pixel_lies_inside_the_written_bounds(
        backend in prop_oneof![Just(BACKENDS[0]), Just(BACKENDS[1])],
        chunks in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..8), 1..6),
    ) {
        let bits = bits();
        let mut w = open(backend);
        let _ = w.take_written();
        for chunk in &chunks {
            let before = w.snapshot();
            for op in chunk {
                run(w.as_mut(), op, &bits);
            }
            let written = w.take_written();
            let after = w.snapshot();
            let out = escaped(&before, &after, written);
            prop_assert!(
                out.is_empty(),
                "{}: {:?} outside {:?} after {:?}",
                backend, &out[..out.len().min(4)], written, chunk
            );
            prop_assert!(after.bounds().contains_rect(written), "{:?}", written);
            // So the server's bounds scan, which reads only inside the
            // written rect, finds what a whole-frame scan finds.
            prop_assert_eq!(
                before.diff_bounds_within(&after, written),
                before.diff_bounds_within(&after, after.bounds())
            );
            let again = w.take_written();
            prop_assert!(again.is_empty(), "{}: second take reported {:?}", backend, again);
        }
    }
}

#[test]
fn resize_and_adopt_frame_report_the_whole_window() {
    for backend in BACKENDS {
        let mut w = open(backend);
        assert_eq!(w.take_written(), Rect::new(0, 0, W, H), "{backend}: fresh");
        assert_eq!(w.take_written(), Rect::EMPTY);

        w.graphic().fill_rect(Rect::new(3, 3, 4, 4));
        w.resize(Size::new(70, 50));
        let whole = Rect::new(0, 0, 70, 50);
        assert_eq!(w.take_written(), whole, "{backend}: resize");
        assert_eq!(w.take_written(), Rect::EMPTY);

        let mut frame = Framebuffer::new(70, 50, Color::WHITE);
        frame.fill_rect(Rect::new(60, 40, 5, 5), Color::BLUE);
        w.adopt_frame(&frame);
        assert_eq!(w.take_written(), whole, "{backend}: adopt_frame");
        assert_eq!(w.take_written(), Rect::EMPTY);
        assert_eq!(w.snapshot(), frame, "{backend}: adopted pixels");

        // Drawing is reported as soon as it is drawn; a flush adds
        // nothing. The pixel store reports the clip, the display list
        // the whole window.
        let g = w.graphic();
        g.gsave();
        g.clip_rect(Rect::new(10, 12, 5, 6));
        g.fill_rect(Rect::new(0, 0, 40, 40));
        g.grestore();
        let clipped = match backend {
            "x11sim" => Rect::new(10, 12, 5, 6),
            _ => whole,
        };
        assert_eq!(w.take_written(), clipped, "{backend}: clipped fill");
        w.graphic().flush();
        assert_eq!(w.take_written(), Rect::EMPTY, "{backend}: flush");
    }
}

#[test]
fn written_bounds_follow_the_clip_and_translation() {
    let mut w = open("x11sim");
    let _ = w.take_written();
    let g = w.graphic();
    g.gsave();
    g.translate(10, 20);
    g.clip_rect(Rect::new(0, 0, 30, 5));
    g.fill_rect(Rect::new(-50, -50, 500, 500));
    g.grestore();
    assert_eq!(w.take_written(), Rect::new(10, 20, 30, 5));
    // The mark is the clip's bounds, however little of them the op
    // covers, and the whole window when there is no clip.
    let g = w.graphic();
    g.gsave();
    g.clip_rect(Rect::new(0, 0, 10, 10));
    g.fill_rect(Rect::new(2, 2, 1, 1));
    g.grestore();
    assert_eq!(w.take_written(), Rect::new(0, 0, 10, 10));
    w.graphic().fill_rect(Rect::new(2, 2, 1, 1));
    assert_eq!(w.take_written(), Rect::new(0, 0, W, H));
}
