//! Soundness of the written record a window's frame keeps, on both
//! backends: once the move a window reports through `take_written` is
//! made on the frame as it was, every pixel a sequence of `Graphic`
//! operations changed lies inside its band's written box. A frame diff
//! that reads only those boxes is then exactly the full-frame diff,
//! and the moved frame patched over them is the screen.

use atk_graphics::{
    band_copies, Color, FontDesc, FontStyle, Framebuffer, Point, RasterOp, Rect, Size, BAND_ROWS,
};
use atk_wm::{open_window_system, Window, Written};
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
/// outside the box `written` records for their band.
fn escaped(before: &Framebuffer, after: &Framebuffer, written: &Written) -> Vec<Point> {
    let mut out = Vec::new();
    for y in 0..before.height() {
        let band = written.bands.get((y / BAND_ROWS) as usize).copied();
        let band = band.unwrap_or(Rect::EMPTY);
        for x in 0..before.width() {
            let p = Point::new(x, y);
            if before.get(x, y) != after.get(x, y) && !band.contains(p) {
                out.push(p);
            }
        }
    }
    out
}

/// Runs `chunks` of ops on a fresh window of `backend`, checking after
/// each chunk that its reported move and band boxes rebuild the
/// screen from the frame before the chunk, the way a server brings its
/// copy of the client's frame along, and that asking again reports
/// nothing. Returns how many chunks reported a move.
fn check_chunks(backend: &str, chunks: &[Vec<Op>]) -> usize {
    let bits = bits();
    let mut w = open(backend);
    let _ = w.take_written();
    let mut moves = 0;
    for chunk in chunks {
        let mut base = w.snapshot();
        for op in chunk {
            run(w.as_mut(), op, &bits);
        }
        let written = w.take_written();
        let (moved, rect) = (written.moved, written.bounds());
        let after = w.snapshot();
        if let Some(m) = moved {
            prop_assert!(m.fits(base.bounds()), "{:?} leaves the frame", m);
            // As a client makes it: what the copy left behind is blank.
            base.apply_move(m);
            moves += 1;
        }
        let out = escaped(&base, &after, &written);
        prop_assert!(
            out.is_empty(),
            "{}: {:?} outside {:?} after {:?} and {:?}",
            backend,
            &out[..out.len().min(4)],
            written.bands,
            moved,
            chunk
        );
        prop_assert!(after.bounds().contains_rect(rect), "{:?}", rect);
        // So the server's band scan, which reads only inside the band
        // boxes, finds what a whole-frame scan finds...
        prop_assert_eq!(
            base.changed_boxes(&after, &written),
            base.changed_boxes(&after, &Written::covering(after.bounds()))
        );
        // ...and the moved frame patched over the boxes is the screen.
        for b in &written.bands {
            for y in b.y..b.bottom() {
                let row = &after.row(y)[b.x as usize..b.right() as usize];
                base.put_rect(Rect::new(b.x, y, b.width, 1), row);
            }
        }
        prop_assert!(
            base.same_pixels(&after),
            "{}: patched frame differs",
            backend
        );
        let again = w.take_written();
        prop_assert_eq!(again, Written::default(), "{}: second take", backend);
    }
    moves
}

/// An op mix where most ops copy within the window, clipped or not,
/// as scrolling, reflowing and typed-into views do.
fn arb_copy_heavy_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_op(),
        (arb_rect(), arb_point()).prop_map(|(r, p)| Op::CopyArea(r, p)),
        (0i32..H, -40i32..40).prop_map(|(top, dy)| Op::CopyArea(
            Rect::new(0, top, W, H - top),
            Point::new(0, top + dy)
        )),
        // A row's tail shifted sideways, past the right edge or not.
        (0i32..H, 1i32..30, 0i32..W, -30i32..30).prop_map(|(top, h, x, dx)| Op::CopyArea(
            Rect::new(x, top, W - x, h),
            Point::new(x + dx, top)
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Scripts run in chunks; after each chunk the changed pixels must
    /// lie inside their bands' reported boxes once the reported move is
    /// made, and asking again reports nothing.
    #[test]
    fn every_changed_pixel_lies_inside_the_band_boxes_or_the_move(
        backend in prop_oneof![Just(BACKENDS[0]), Just(BACKENDS[1])],
        chunks in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..8), 1..6),
    ) {
        check_chunks(backend, &chunks);
    }

    /// Writes and copies mixed: the frame before, moved as reported
    /// and patched over the band boxes, is the screen — the contract
    /// a server's update rests on.
    #[test]
    fn a_move_then_the_written_rect_rebuild_the_screen(
        backend in prop_oneof![Just(BACKENDS[0]), Just(BACKENDS[1])],
        chunks in proptest::collection::vec(
            proptest::collection::vec(arb_copy_heavy_op(), 1..8),
            1..6,
        ),
    ) {
        check_chunks(backend, &chunks);
    }
}

#[test]
fn the_first_unclipped_copy_is_the_move_and_carries_what_was_written() {
    for backend in BACKENDS {
        let mut w = open(backend);
        let _ = w.take_written();
        w.graphic().fill_rect(Rect::new(10, 10, 4, 4));
        let drawn = w.take_written();
        assert_eq!(drawn.bounds(), Rect::new(10, 10, 4, 4), "{backend}: a fill");
        // A clipped write, then a scroll of the rows below it by 5: the
        // written rows that move land 5 lower, and count as written
        // there.
        let g = w.graphic();
        g.gsave();
        g.clip_rect(Rect::new(0, 20, W, 8));
        g.fill_rect(Rect::new(0, 0, W, H));
        g.grestore();
        g.copy_area(Rect::new(0, 24, W, H - 24), Point::new(0, 29));
        let moved = Written {
            moved: Some(atk_graphics::Move {
                src: Rect::new(0, 24, W, H - 29),
                dst: Point::new(0, 29),
            }),
            ..Written::covering(Rect::new(0, 20, W, 13))
        };
        assert_eq!(w.take_written(), moved, "{backend}: a scroll");
        // A second copy in one take, or a clipped one, is a write of
        // where it lands. The move's source, which it did not land on,
        // counts as written.
        let g = w.graphic();
        g.copy_area(Rect::new(0, 0, 10, 10), Point::new(50, 50));
        g.copy_area(Rect::new(0, 0, 10, 10), Point::new(60, 70));
        let two = w.take_written();
        assert_eq!(two.moved.map(|m| m.dst), Some(Point::new(50, 50)));
        let mut want = Written::covering(Rect::new(0, 0, 10, 10));
        want.mark(Rect::new(60, 70, 10, 10));
        assert_eq!(two.bands, want.bands, "{backend}: two copies");
        let g = w.graphic();
        g.gsave();
        g.clip_rect(Rect::new(0, 0, 65, 65));
        g.copy_area(Rect::new(0, 0, 10, 10), Point::new(60, 60));
        g.grestore();
        assert_eq!(
            w.take_written(),
            Written::covering(Rect::new(60, 60, 5, 5)),
            "{backend}: a clipped copy"
        );
    }
}

#[test]
fn resize_and_open_window_on_report_the_whole_window() {
    for backend in BACKENDS {
        let mut w = open(backend);
        assert_eq!(
            w.take_written().bounds(),
            Rect::new(0, 0, W, H),
            "{backend}: fresh"
        );
        assert_eq!(w.take_written(), Written::default());

        w.graphic().fill_rect(Rect::new(3, 3, 4, 4));
        w.resize(Size::new(70, 50));
        let whole = Rect::new(0, 0, 70, 50);
        assert_eq!(w.take_written().bounds(), whole, "{backend}: resize");
        assert_eq!(w.take_written(), Written::default());

        let mut frame = Framebuffer::new(70, 50, Color::WHITE);
        frame.fill_rect(Rect::new(60, 40, 5, 5), Color::BLUE);
        let mut w = open_window_system(Some(backend))
            .unwrap()
            .open_window_on("fork", &frame);
        assert_eq!(
            w.take_written().bounds(),
            whole,
            "{backend}: open_window_on"
        );
        assert_eq!(w.take_written(), Written::default());
        assert_eq!(w.snapshot(), frame, "{backend}: the frame's pixels");

        // Drawing is reported as soon as it is drawn; a flush adds
        // nothing.
        let g = w.graphic();
        g.gsave();
        g.clip_rect(Rect::new(10, 12, 5, 6));
        g.fill_rect(Rect::new(0, 0, 40, 40));
        g.grestore();
        let clipped = Rect::new(10, 12, 5, 6);
        assert_eq!(
            w.take_written().bounds(),
            clipped,
            "{backend}: clipped fill"
        );
        w.graphic().flush();
        assert_eq!(w.take_written(), Written::default(), "{backend}: flush");
    }
}

/// A forked window opens on a clone of the template's frame: it shows
/// the frame's pixels, with no event queued and no drawing op recorded,
/// and shares the frame's bands, copying one only when it draws on it.
#[test]
fn a_window_opened_on_a_frame_shares_its_bands() {
    for backend in BACKENDS {
        let mut frame = Framebuffer::new(W, H, Color::WHITE);
        frame.fill_rect(Rect::new(60, 40, 5, 5), Color::BLUE);
        let mut ws = open_window_system(Some(backend)).unwrap();
        let copies = band_copies();
        let mut w = ws.open_window_on("fork", &frame);
        assert_eq!(w.op_count(), 0, "{backend}: ops recorded");
        let window: &dyn std::any::Any = w.as_ref();
        if let Some(awm) = window.downcast_ref::<atk_wm::awmsim::AwmWindow>() {
            assert!(awm.display_list().is_empty(), "{backend}: display list");
        }
        assert_eq!(w.next_event(), None, "{backend}: events queued");
        assert_eq!(w.snapshot(), frame, "{backend}: the frame's pixels");
        assert_eq!(band_copies(), copies, "{backend}: opening copied a band");
        w.graphic().fill_rect(Rect::new(0, 0, 1, 1));
        assert_eq!(w.take_written().bounds(), Rect::new(0, 0, W, H));
        assert_eq!(
            band_copies(),
            copies + 1,
            "{backend}: a draw copies its band"
        );
    }
}

/// A row's tail copied sideways, as a character typed mid-line shifts
/// the rest of its line: right and left inside the frame, and right
/// past its right edge, where what would land outside is dropped. Each
/// is the move, from exactly the pixels that land inside the frame,
/// and the only write is the strip of the source it left behind.
#[test]
fn a_sideways_copy_is_the_move() {
    for backend in BACKENDS {
        for (src, dst, from, left) in [
            (
                Rect::new(30, 10, 40, 20),
                Point::new(44, 10),
                Rect::new(30, 10, 40, 20),
                Rect::new(30, 10, 14, 20),
            ),
            (
                Rect::new(44, 10, 40, 20),
                Point::new(30, 10),
                Rect::new(44, 10, 40, 20),
                Rect::new(70, 10, 14, 20),
            ),
            (
                Rect::new(30, 10, W - 30, 20),
                Point::new(44, 10),
                Rect::new(30, 10, W - 44, 20),
                Rect::new(30, 10, 14, 20),
            ),
        ] {
            let mut w = open(backend);
            let g = w.graphic();
            g.set_font(FontDesc::new("andy", FontStyle::PLAIN, 24));
            g.draw_string(Point::new(2, 12), "Sideways tail");
            let _ = w.take_written();
            let mut base = w.snapshot();
            w.graphic().copy_area(src, dst);
            let written = w.take_written();
            let m = written.moved.expect("the copy is the move");
            assert_eq!((m.src, m.dst), (from, dst), "{backend}: {src} to {dst}");
            assert_eq!(written.bounds(), left, "{backend}: {src} to {dst}");
            base.copy_within(m.src, m.dst);
            assert_eq!(base, w.snapshot(), "{backend}: {src} to {dst}");
        }
    }
}

#[test]
fn written_bounds_follow_the_clip_and_translation() {
    for backend in BACKENDS {
        let mut w = open(backend);
        let _ = w.take_written();
        let g = w.graphic();
        g.gsave();
        g.translate(10, 20);
        g.clip_rect(Rect::new(0, 0, 30, 5));
        g.fill_rect(Rect::new(-50, -50, 500, 500));
        g.grestore();
        assert_eq!(
            w.take_written().bounds(),
            Rect::new(10, 20, 30, 5),
            "{backend}"
        );
        // The mark is what the op wrote, however wide the clip around
        // it, or the absence of one.
        let g = w.graphic();
        g.gsave();
        g.clip_rect(Rect::new(0, 0, 10, 10));
        g.fill_rect(Rect::new(2, 2, 1, 1));
        g.grestore();
        assert_eq!(
            w.take_written().bounds(),
            Rect::new(2, 2, 1, 1),
            "{backend}"
        );
        w.graphic().fill_rect(Rect::new(2, 2, 1, 1));
        assert_eq!(
            w.take_written().bounds(),
            Rect::new(2, 2, 1, 1),
            "{backend}"
        );
    }
}
