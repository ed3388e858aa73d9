//! Property tests for span clipping: every area write — fills under all
//! four raster ops, blits, `copy_within`, thick lines and text in every
//! style — must leave exactly the pixels a per-pixel reference leaves.
//! The reference, kept here, tests each pixel against every clip rect
//! in turn, as the rasterizer did before it walked the clip's bands. It
//! runs against a whole framebuffer — held as one band, as bands of
//! [`BAND_ROWS`] rows (a height that is a multiple of it and one that is
//! not), and as a clone sharing its bands with a frame that must not
//! change — and against one painted clip band by clip band.

use atk_graphics::{
    BitmapFont, Color, FontDesc, FontStyle, Framebuffer, Point, RasterOp, Rect, Region, BAND_ROWS,
};
use proptest::prelude::*;

const W: i32 = 64;
/// Three bands.
const H: i32 = 3 * BAND_ROWS;
/// Not a multiple of `BAND_ROWS`: the last band is short.
const SHORT: i32 = H - 3;

/// How the rasterized frame holds its pixels.
#[derive(Debug, Clone, Copy)]
enum Storage {
    /// One band, as [`Framebuffer::from_pixels`] holds a decoded frame.
    OneBand,
    /// Bands of `BAND_ROWS` rows, as [`Framebuffer::new`] builds them,
    /// this many rows high.
    Banded(i32),
    /// A clone of a banded frame, sharing all its bands: every write
    /// must copy the band it touches and leave the original as it was.
    Shared,
}

const STORAGES: [Storage; 4] = [
    Storage::OneBand,
    Storage::Banded(H),
    Storage::Banded(SHORT),
    Storage::Shared,
];

impl Storage {
    fn height(self) -> i32 {
        match self {
            Storage::Banded(h) => h,
            Storage::OneBand | Storage::Shared => H,
        }
    }
}

/// One drawing call, with the clip it runs under (`None`: bounds only).
#[derive(Debug, Clone)]
struct Cmd {
    clip: Option<Region>,
    op: Op,
}

#[derive(Debug, Clone)]
enum Op {
    Fill(Rect, u32, RasterOp),
    Blit(Rect, Point, RasterOp),
    CopyWithin(Rect, Point),
    Line(Point, Point, i32, u32),
    Text(Point, String, FontDesc, u32),
}

/// The start image, `h` rows high: every pixel differs from its
/// neighbours, so a misplaced copy or a missed XOR shows.
fn canvas(h: i32) -> Vec<u32> {
    (0..W * h)
        .map(|i| (i as u32).wrapping_mul(0x9E37_79B9) ^ 0x00A5_5A5A)
        .collect()
}

/// The blit source, smaller than the canvas and patterned the same way.
fn source() -> Framebuffer {
    let (w, h) = (24, 20);
    Framebuffer::from_pixels(
        w,
        h,
        (0..w * h)
            .map(|i| (i as u32).wrapping_mul(0x85EB_CA6B) | 1)
            .collect(),
    )
}

/// The per-pixel reference rasterizer.
struct Reference {
    px: Vec<u32>,
    h: i32,
    clip: Option<Region>,
}

impl Reference {
    fn writable(&self, x: i32, y: i32) -> bool {
        let p = Point::new(x, y);
        (0..W).contains(&x)
            && (0..self.h).contains(&y)
            && self
                .clip
                .as_ref()
                .is_none_or(|c| c.rects().iter().any(|r| r.contains(p)))
    }

    fn set_op(&mut self, x: i32, y: i32, c: u32, op: RasterOp) {
        if self.writable(x, y) {
            let p = &mut self.px[(y * W + x) as usize];
            *p = match op {
                RasterOp::Copy => c,
                RasterOp::Xor => *p ^ c,
                RasterOp::Or => *p | c,
                RasterOp::AndNot => *p & !c,
            };
        }
    }

    fn fill(&mut self, r: Rect, c: u32, op: RasterOp) {
        for y in r.y..r.bottom() {
            for x in r.x..r.right() {
                self.set_op(x, y, c, op);
            }
        }
    }

    fn outline(&mut self, r: Rect, c: u32) {
        if r.is_empty() {
            return;
        }
        self.fill(Rect::new(r.x, r.y, r.width, 1), c, RasterOp::Copy);
        self.fill(
            Rect::new(r.x, r.bottom() - 1, r.width, 1),
            c,
            RasterOp::Copy,
        );
        self.fill(Rect::new(r.x, r.y, 1, r.height), c, RasterOp::Copy);
        self.fill(
            Rect::new(r.right() - 1, r.y, 1, r.height),
            c,
            RasterOp::Copy,
        );
    }

    fn blit(&mut self, src: &Framebuffer, src_rect: Rect, dst: Point, op: RasterOp) {
        let sr = src_rect.intersect(src.bounds());
        for dy in 0..sr.height {
            for dx in 0..sr.width {
                let c = src.get(sr.x + dx, sr.y + dy).0;
                self.set_op(dst.x + dx, dst.y + dy, c, op);
            }
        }
    }

    fn copy_within(&mut self, src_rect: Rect, dst: Point) {
        let sr = src_rect.intersect(Rect::new(0, 0, W, self.h));
        let snapshot = self.px.clone();
        for dy in 0..sr.height {
            for dx in 0..sr.width {
                let c = snapshot[((sr.y + dy) * W + sr.x + dx) as usize];
                self.set_op(dst.x + dx, dst.y + dy, c, RasterOp::Copy);
            }
        }
    }

    /// Bresenham; a thick line stamps a square at every step.
    fn line(&mut self, a: Point, b: Point, thickness: i32, c: u32) {
        let (mut x0, mut y0) = (a.x, a.y);
        let dx = (b.x - x0).abs();
        let dy = -(b.y - y0).abs();
        let sx = if x0 < b.x { 1 } else { -1 };
        let sy = if y0 < b.y { 1 } else { -1 };
        let mut err = dx + dy;
        loop {
            let half = thickness / 2;
            self.fill(
                Rect::new(x0 - half, y0 - half, thickness, thickness),
                c,
                RasterOp::Copy,
            );
            if x0 == b.x && y0 == b.y {
                break;
            }
            let e2 = 2 * err;
            if e2 >= dy {
                err += dy;
                x0 += sx;
            }
            if e2 <= dx {
                err += dx;
                y0 += sy;
            }
        }
    }

    /// One `s`×`s` square per lit glyph pixel, a second one pixel to
    /// the right when bold.
    fn text(&mut self, origin: Point, text: &str, desc: &FontDesc, c: u32) {
        let s = desc.scale();
        let mut x = origin.x;
        for ch in text.chars() {
            let adv = desc.char_width(ch);
            match BitmapFont::glyph(ch) {
                Some(g) => {
                    for row in 0..7 {
                        let shear = if desc.style.italic && row < 3 { s } else { 0 };
                        for col in 0..5 {
                            if g.pixel(col, row) {
                                let (px, py) = (x + col * s + shear, origin.y + row * s);
                                self.fill(Rect::new(px, py, s, s), c, RasterOp::Copy);
                                if desc.style.bold {
                                    self.fill(Rect::new(px + s, py, s, s), c, RasterOp::Copy);
                                }
                            }
                        }
                    }
                }
                None => self.outline(Rect::new(x, origin.y, adv - s, 7 * s), c),
            }
            if desc.style.underline {
                self.fill(Rect::new(x, origin.y + 8 * s, adv, s), c, RasterOp::Copy);
            }
            x += adv;
        }
    }

    fn run(&mut self, cmd: &Cmd, src: &Framebuffer) {
        self.clip = cmd.clip.clone();
        match &cmd.op {
            Op::Fill(r, c, op) => self.fill(*r, *c, *op),
            Op::Blit(r, p, op) => self.blit(src, *r, *p, *op),
            Op::CopyWithin(r, p) => self.copy_within(*r, *p),
            Op::Line(a, b, t, c) => self.line(*a, *b, *t, *c),
            Op::Text(p, s, d, c) => self.text(*p, s, d, *c),
        }
    }
}

fn reference(cmds: &[Cmd], src: &Framebuffer, h: i32) -> Vec<u32> {
    let mut r = Reference {
        px: canvas(h),
        h,
        clip: None,
    };
    for cmd in cmds {
        r.run(cmd, src);
    }
    r.px
}

/// The start image held as `storage` holds it.
fn start(storage: Storage) -> Framebuffer {
    match storage {
        Storage::OneBand => Framebuffer::from_pixels(W, H, canvas(H)),
        Storage::Banded(h) => {
            let mut fb = Framebuffer::new(W, h, Color::WHITE);
            fb.put_rect(fb.bounds(), &canvas(h));
            fb
        }
        Storage::Shared => start(Storage::Banded(H)).clone(),
    }
}

/// Runs `cmds` through the span-clipping rasterizer on a frame held as
/// one band.
fn whole(cmds: &[Cmd], src: &Framebuffer) -> Framebuffer {
    stored(cmds, src, Storage::OneBand)
}

/// Runs `cmds` through the span-clipping rasterizer on a frame held as
/// `storage`. For [`Storage::Shared`] the frame it was cloned from is
/// checked unchanged after every command.
fn stored(cmds: &[Cmd], src: &Framebuffer, storage: Storage) -> Framebuffer {
    let original = match storage {
        Storage::Shared => Some(start(Storage::Banded(H))),
        _ => None,
    };
    let mut fb = original.clone().unwrap_or_else(|| start(storage));
    for cmd in cmds {
        fb.set_clip(cmd.clip.clone());
        match &cmd.op {
            Op::Fill(r, c, op) => fb.fill_rect_op(*r, Color(*c), *op),
            Op::Blit(r, p, op) => fb.blit(src, *r, *p, *op),
            Op::CopyWithin(r, p) => fb.copy_within(*r, *p),
            Op::Line(a, b, w, c) => fb.draw_line(*a, *b, *w, Color(*c)),
            Op::Text(p, s, d, c) => {
                BitmapFont::draw(&mut fb, *p, s, d, Color(*c));
            }
        }
        if let Some(original) = &original {
            assert_eq!(
                original.pixels(),
                &canvas(H)[..],
                "a shared band was written"
            );
        }
    }
    fb
}

/// Paints `cmds` band by band over `n` horizontal bands, each command
/// clipped to its own clip narrowed to the band, so every glyph, line
/// and fill that crosses a band edge is drawn in pieces.
fn banded(cmds: &[Cmd], src: &Framebuffer, n: i32) -> Framebuffer {
    let mut px = canvas(H);
    for i in 0..n {
        let band = Rect::new(0, H * i / n, W, H * (i + 1) / n - H * i / n);
        let narrowed: Vec<Cmd> = cmds
            .iter()
            .map(|cmd| Cmd {
                clip: Some(match &cmd.clip {
                    Some(clip) => clip.intersect_rect(band),
                    None => Region::from_rect(band),
                }),
                op: cmd.op.clone(),
            })
            .collect();
        let painted = whole(&narrowed, src);
        let rows = (band.y * W) as usize..((band.y + band.height) * W) as usize;
        px[rows.clone()].copy_from_slice(&painted.pixels()[rows]);
    }
    Framebuffer::from_pixels(W, H, px)
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-12i32..W + 4, -12i32..H + 4, 0i32..40, 0i32..30)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

/// Banded regions of every shape the paint path sees: empty, one rect,
/// a union of a few, and many thin bands with several rects each.
fn arb_region() -> impl Strategy<Value = Region> {
    let thin =
        (-4i32..W, -4i32..H, 1i32..12, 1i32..3).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h));
    prop_oneof![
        Just(Region::new()),
        arb_rect().prop_map(Region::from_rect),
        proptest::collection::vec(arb_rect(), 1..6).prop_map(Region::from_rects),
        proptest::collection::vec(thin, 8..40).prop_map(Region::from_rects),
    ]
}

fn arb_clip() -> impl Strategy<Value = Option<Region>> {
    prop_oneof![
        Just(None),
        arb_region().prop_map(Some),
        arb_region().prop_map(Some),
    ]
}

fn arb_rop() -> impl Strategy<Value = RasterOp> {
    prop_oneof![
        Just(RasterOp::Copy),
        Just(RasterOp::Xor),
        Just(RasterOp::Or),
        Just(RasterOp::AndNot),
    ]
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-16i32..W + 8, -16i32..H + 8).prop_map(|(x, y)| Point::new(x, y))
}

/// Text in every style combination at scales 1–3, proportional and
/// fixed, with unmapped characters (drawn as the hollow box) mixed in.
fn arb_text() -> impl Strategy<Value = Op> {
    (
        arb_point(),
        "[a-zA-Z0-9 .,!|#\t\u{e9}\u{fffc}]{1,10}",
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        1u32..4,
        any::<u32>(),
    )
        .prop_map(|(p, text, (bold, italic, underline, fixed), scale, c)| {
            let style = FontStyle {
                bold,
                italic,
                underline,
            };
            let family = if fixed { "andytype" } else { "andy" };
            Op::Text(p, text, FontDesc::new(family, style, scale * 10), c)
        })
}

/// Every op but `copy_within`.
fn arb_draw_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_rect(), any::<u32>(), arb_rop()).prop_map(|(r, c, op)| Op::Fill(r, c, op)),
        (
            (-4i32..24, -4i32..20, 0i32..30, 0i32..26),
            arb_point(),
            arb_rop()
        )
            .prop_map(|((x, y, w, h), p, op)| Op::Blit(Rect::new(x, y, w, h), p, op)),
        (arb_point(), arb_point(), 1i32..5, any::<u32>())
            .prop_map(|(a, b, t, c)| Op::Line(a, b, t, c)),
        arb_text(),
    ]
}

/// Overlapping self-copies: the destination is the source shifted a
/// little in any direction, or sometimes not at all.
fn arb_copy() -> impl Strategy<Value = Op> {
    (arb_rect(), -6i32..7, -6i32..7)
        .prop_map(|(r, dx, dy)| Op::CopyWithin(r, Point::new(r.x + dx, r.y + dy)))
}

fn cmds(op: impl Strategy<Value = Op>) -> impl Strategy<Value = Vec<Cmd>> {
    proptest::collection::vec(
        (arb_clip(), op).prop_map(|(clip, op)| Cmd { clip, op }),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every op, `copy_within` included, under every clip shape, on
    /// every storage.
    #[test]
    fn whole_framebuffer_matches_per_pixel_reference(
        cmds in cmds(prop_oneof![arb_draw_op(), arb_draw_op(), arb_copy()]),
    ) {
        let src = source();
        for storage in STORAGES {
            let want = reference(&cmds, &src, storage.height());
            prop_assert_eq!(stored(&cmds, &src, storage).pixels(), &want[..], "{:?}", storage);
        }
    }

    /// Band splits painted one band at a time, so glyphs, lines and
    /// fills straddle band edges as well as clip edges.
    #[test]
    fn band_splits_match_per_pixel_reference(cmds in cmds(arb_draw_op())) {
        let src = source();
        let want = reference(&cmds, &src, H);
        for n in [1, 4] {
            prop_assert_eq!(banded(&cmds, &src, n).pixels(), &want[..], "{} bands", n);
        }
    }

    /// The band search answers what a scan of every rect would.
    #[test]
    fn contains_equals_linear_scan(
        region in arb_region(),
        probes in proptest::collection::vec((-14i32..W + 8, -14i32..H + 8), 32..33),
    ) {
        for (x, y) in probes {
            let p = Point::new(x, y);
            prop_assert_eq!(region.contains(p), region.rects().iter().any(|r| r.contains(p)));
        }
    }
}

/// `copy_within` in all eight directions and in place, under a clip of
/// many bands with several rects per row: the overlap order matters
/// most when one row holds several spans.
#[test]
fn copy_within_is_overlap_safe_in_every_direction() {
    let clip = Region::from_rects((0..H / 2).flat_map(|i| {
        [
            Rect::new(i % 5, 2 * i, 9, 2),
            Rect::new(14 + i % 7, 2 * i, 20, 2),
        ]
    }));
    let src = source();
    for dy in -3..=3 {
        for dx in -3..=3 {
            for clip in [None, Some(clip.clone())] {
                let cmds = [Cmd {
                    clip,
                    op: Op::CopyWithin(Rect::new(4, 4, 40, 30), Point::new(4 + dx, 4 + dy)),
                }];
                assert_eq!(
                    whole(&cmds, &src).pixels(),
                    &reference(&cmds, &src, H)[..],
                    "shift ({dx}, {dy})"
                );
            }
        }
    }
}

/// Text slid one pixel at a time across a clip's left and right edges,
/// across the top and bottom edges of its bands and across band-split
/// edges, in every style at every scale: a glyph cell that is skipped must have had nothing
/// visible to draw.
#[test]
fn text_straddling_clip_and_band_edges_matches_reference() {
    let src = source();
    let clip = Some(Region::from_rects([
        Rect::new(20, 6, 20, 18),
        Rect::new(8, 30, 30, 10),
    ]));
    for bits in 0..16u8 {
        let style = FontStyle {
            bold: bits & 1 != 0,
            italic: bits & 2 != 0,
            underline: bits & 4 != 0,
        };
        let family = if bits & 8 != 0 { "andytype" } else { "andy" };
        for scale in 1..=3 {
            let desc = FontDesc::new(family, style, scale * 10);
            for x in -24..42 {
                for y in [4, 11, 26] {
                    let cmds = [Cmd {
                        clip: clip.clone(),
                        op: Op::Text(Point::new(x, y), "M#W\u{e9}".into(), desc.clone(), 7),
                    }];
                    let want = reference(&cmds, &src, H);
                    assert_eq!(whole(&cmds, &src).pixels(), &want[..], "{desc} at {x},{y}");
                    assert_eq!(
                        banded(&cmds, &src, 4).pixels(),
                        &want[..],
                        "{desc} at {x},{y}, 4 bands"
                    );
                }
            }
        }
    }
}

/// Scrolls of more than a band, up and down, with and without a clip of
/// many bands: each row copies from a row in another band, which the
/// walk must read before it writes it (the walk starts from the side
/// the copy moves toward) and, on a shared frame, read from the band
/// the original still holds.
#[test]
fn a_scroll_across_bands_matches_reference() {
    let clip = Region::from_rects((0..H / 3).map(|i| Rect::new(i % 4, 3 * i, 50, 2)));
    let src = source();
    for storage in STORAGES {
        for dy in [-33, -17, -16, -5, 5, 16, 17, 33] {
            for clip in [None, Some(clip.clone())] {
                let cmds = [Cmd {
                    clip,
                    op: Op::CopyWithin(Rect::new(2, 0, 56, H), Point::new(3, dy)),
                }];
                assert_eq!(
                    stored(&cmds, &src, storage).pixels(),
                    &reference(&cmds, &src, storage.height())[..],
                    "{storage:?} scroll by {dy}"
                );
            }
        }
    }
}
