//! Software framebuffer: the pixel store both simulated window systems
//! render into.
//!
//! Provides the primitive raster operations the toolkit's drawable layer
//! (paper §4) bottoms out in: clipped pixel writes, solid fills,
//! Bresenham lines with thickness, midpoint ovals, scanline polygon
//! fills, and rectangle blits with the classic raster ops (copy, XOR,
//! or, and-not). All drawing is clipped against an optional [`Region`].
//!
//! Clipping works on spans, as the X server's does. A write that covers
//! an area — fills, clears, blits, `copy_within`, glyph runs, thick
//! line squares — goes through one span clipper. That finds the clip's
//! bands under the target by binary search and walks them, so it does
//! one slice operation per clipped row span and its cost follows the
//! pixels written, not pixels × clip rects. The per-pixel test remains
//! only for point plotters: 1-pixel Bresenham lines and the oval
//! outlines built from them.
//!
//! Pixels are stored in bands of [`BAND_ROWS`] rows, each an `Arc`, so
//! a clone shares every band and costs no pixel copy (paper §7's
//! `runapp` shares one base image among its applications the same
//! way). A write copies a band only if another frame still shares it,
//! once per band per drawing call; [`band_copies`] counts those copies.
//! A frame built by [`Framebuffer::from_pixels`] — a decoded keyframe —
//! is held as one band, so [`Framebuffer::pixels`] on it is free.

use std::cell::Cell;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::color::Color;
use crate::geom::{Point, Rect};
use crate::region::Region;

/// Rows per band of a frame built by [`Framebuffer::new`]: the unit a
/// clone shares and a write copies.
pub const BAND_ROWS: i32 = 1 << BAND_SHIFT;

/// `log2(BAND_ROWS)`: a row's band is its index shifted right by this.
const BAND_SHIFT: u32 = 4;

/// The band shift of a frame held as one band: every row index a frame
/// can have (below `2^31`) lands in band 0.
const ONE_BAND_SHIFT: u32 = 31;

thread_local! {
    static BAND_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// How many bands writes on this thread have copied because another
/// frame shared them: the copy-on-write price of cheap clones.
pub fn band_copies() -> u64 {
    BAND_COPIES.with(Cell::get)
}

/// Band `band`'s pixels, writable: copied first (and counted in
/// [`band_copies`]) if another frame shares it.
fn band_mut(band: &mut Arc<Vec<u32>>) -> &mut Vec<u32> {
    let before = Arc::as_ptr(band);
    let px = Arc::make_mut(band);
    if !std::ptr::eq(before, px) {
        BAND_COPIES.with(|n| n.set(n.get() + 1));
    }
    px
}

/// How a blit combines source and destination pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RasterOp {
    /// Destination = source.
    Copy,
    /// Destination ^= source (self-inverse; used for selection feedback).
    Xor,
    /// Destination |= source.
    Or,
    /// Destination &= !source ("paint white through a mask").
    AndNot,
}

/// `dst` combined with `src` under `op`.
#[inline]
fn combine(dst: u32, src: u32, op: RasterOp) -> u32 {
    match op {
        RasterOp::Copy => src,
        RasterOp::Xor => dst ^ src,
        RasterOp::Or => dst | src,
        RasterOp::AndNot => dst & !src,
    }
}

/// A rectangular array of packed RGB pixels, stored as bands of rows
/// shared copy-on-write (see the module docs).
#[derive(Debug)]
pub struct Framebuffer {
    width: i32,
    height: i32,
    /// `log2` of the rows a band holds: [`BAND_SHIFT`], or
    /// [`ONE_BAND_SHIFT`] for a frame held as one band.
    shift: u32,
    /// The rows top down, `1 << shift` to a band (the last band may
    /// hold fewer), each band `rows * width` pixels.
    bands: Vec<Arc<Vec<u32>>>,
    clip: Option<Arc<Region>>,
    /// [`Framebuffer::pixels`] of a frame of several bands, joined on
    /// first call and dropped by the next write.
    joined: OnceLock<Vec<u32>>,
}

impl Clone for Framebuffer {
    /// Shares every band: no pixel is copied until one side writes.
    fn clone(&self) -> Framebuffer {
        Framebuffer {
            width: self.width,
            height: self.height,
            shift: self.shift,
            bands: self.bands.clone(),
            clip: self.clip.clone(),
            joined: OnceLock::new(),
        }
    }
}

impl PartialEq for Framebuffer {
    fn eq(&self, other: &Framebuffer) -> bool {
        self.clip == other.clip && self.same_pixels(other)
    }
}

impl Eq for Framebuffer {}

impl Framebuffer {
    /// Creates a framebuffer filled with `fill`. Its bands all share
    /// one filled band, so a fresh frame costs one band of memory until
    /// it is drawn on.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is negative.
    pub fn new(width: i32, height: i32, fill: Color) -> Framebuffer {
        assert!(width >= 0 && height >= 0, "negative framebuffer dimension");
        let (w, h, per) = (width as usize, height as usize, BAND_ROWS as usize);
        let mut bands = Vec::with_capacity(h.div_ceil(per));
        if h >= per {
            bands.resize(h / per, Arc::new(vec![fill.0; per * w]));
        }
        if h % per != 0 {
            bands.push(Arc::new(vec![fill.0; (h % per) * w]));
        }
        Framebuffer {
            width,
            height,
            shift: BAND_SHIFT,
            bands,
            clip: None,
            joined: OnceLock::new(),
        }
    }

    /// Adopts `pixels` (row-major, `width * height` of them) as a
    /// framebuffer held as one band, without copying them — how a
    /// decoded keyframe becomes a client's framebuffer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is negative or `pixels.len()` is not
    /// `width * height`.
    pub fn from_pixels(width: i32, height: i32, pixels: Vec<u32>) -> Framebuffer {
        assert!(width >= 0 && height >= 0, "negative framebuffer dimension");
        assert_eq!(
            pixels.len(),
            (width as usize) * (height as usize),
            "pixel count does not match {width}x{height}"
        );
        Framebuffer {
            width,
            height,
            shift: ONE_BAND_SHIFT,
            bands: vec![Arc::new(pixels)],
            clip: None,
            joined: OnceLock::new(),
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> i32 {
        self.height
    }

    /// The full bounds rectangle.
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    /// Sets the clip region; `None` clips only to the framebuffer bounds.
    pub fn set_clip(&mut self, clip: Option<Region>) {
        self.clip = clip.map(Arc::new);
    }

    /// Sets a shared clip region, so a drawable that keeps its clip
    /// interned hands it over without copying the rect vector per op.
    pub fn set_clip_shared(&mut self, clip: Option<Arc<Region>>) {
        self.clip = clip;
    }

    /// The current clip region, if any.
    pub fn clip(&self) -> Option<&Region> {
        self.clip.as_deref()
    }

    /// Reads a pixel; out-of-bounds reads return white.
    pub fn get(&self, x: i32, y: i32) -> Color {
        if x < 0 || y < 0 || x >= self.width || y >= self.height {
            return Color::WHITE;
        }
        Color(self.row(y)[x as usize])
    }

    /// Row `y` of pixels — how encoders and compares read a frame.
    ///
    /// # Panics
    ///
    /// Panics if `y` is outside the bounds.
    #[inline]
    pub fn row(&self, y: i32) -> &[u32] {
        let (w, y) = (self.width as usize, y as usize);
        let at = (y & ((1 << self.shift) - 1)) * w;
        &self.bands[y >> self.shift][at..at + w]
    }

    /// Rows `rows` (cut to the bounds) top down, writable, ignoring the
    /// clip; none when the width is 0. A band is taken for writing —
    /// copied if another frame shares it — only when the iteration
    /// reaches it, so stopping early copies no further band.
    pub fn rows_mut(&mut self, rows: Range<i32>) -> impl Iterator<Item = &mut [u32]> + '_ {
        let (top, bottom) = (rows.start.max(0), rows.end.min(self.height));
        let (top, bottom) = (top as usize, bottom.max(top) as usize);
        let (w, shift) = (self.width as usize, self.shift);
        let bands = if top < bottom {
            top >> shift..((bottom - 1) >> shift) + 1
        } else {
            0..0
        };
        let first = bands.start;
        self.bands_mut()[bands]
            .iter_mut()
            .enumerate()
            .flat_map(move |(i, band)| {
                let start = (first + i) << shift;
                let (lo, hi) = (
                    top.max(start) - start,
                    bottom.min(start + (1 << shift)) - start,
                );
                band_mut(band)[lo * w..hi * w].chunks_exact_mut(w.max(1))
            })
    }

    /// The bands, for writing: drops the joined copy
    /// [`Framebuffer::pixels`] may hold.
    fn bands_mut(&mut self) -> &mut [Arc<Vec<u32>>] {
        self.joined.take();
        &mut self.bands
    }

    /// The smallest rect holding every pixel drawing may write: the
    /// bounds cut to the clip's bounding box.
    pub(crate) fn writable_bounds(&self) -> Rect {
        match self.clip() {
            Some(region) => self.bounds().intersect(region.bounding_box()),
            None => self.bounds(),
        }
    }

    /// True when `(x, y)` is inside bounds and clip. The per-pixel
    /// test, for point plotters only (Bresenham lines, oval outlines);
    /// everything that covers an area goes through
    /// [`Framebuffer::for_each_span`].
    #[inline]
    fn writable(&self, x: i32, y: i32) -> bool {
        if x < 0 || y < 0 || x >= self.width || y >= self.height {
            return false;
        }
        self.clip()
            .is_none_or(|region| region.contains(Point::new(x, y)))
    }

    /// Pixel `(x, y)`, writable; it must be inside the bounds.
    fn pixel_mut(&mut self, x: i32, y: i32) -> &mut u32 {
        let (w, y, shift) = (self.width as usize, y as usize, self.shift);
        let at = (y & ((1 << shift) - 1)) * w + x as usize;
        &mut band_mut(&mut self.bands_mut()[y >> shift])[at]
    }

    /// Writes a pixel, honoring bounds and clip.
    #[inline]
    pub fn set(&mut self, x: i32, y: i32, color: Color) {
        if self.writable(x, y) {
            *self.pixel_mut(x, y) = color.0;
        }
    }

    /// Writes a pixel combining with the existing value via `op`.
    pub fn set_op(&mut self, x: i32, y: i32, color: Color, op: RasterOp) {
        if self.writable(x, y) {
            let px = self.pixel_mut(x, y);
            *px = combine(*px, color.0, op);
        }
    }

    /// Fills the whole buffer (ignoring clip). A band another frame
    /// shares is replaced rather than copied.
    pub fn clear(&mut self, color: Color) {
        for band in self.bands_mut() {
            match Arc::get_mut(band) {
                Some(px) => px.fill(color.0),
                None => *band = Arc::new(vec![color.0; band.len()]),
            }
        }
    }

    /// The span clipper: calls `f(rows, y, x0, x1)` once for each row
    /// span `[x0, x1)` of `r` that lies inside bounds and clip, where
    /// `rows.row(y)` is row `y`, writable.
    ///
    /// The clip's bands meeting `r` are found by binary search and
    /// walked row by row, each row's rects left to right; `backward`
    /// reverses bands, rows and spans alike. Clip rects are disjoint,
    /// so every pixel is visited at most once and a combining op such
    /// as XOR stays exact.
    fn for_each_span(
        &mut self,
        r: Rect,
        backward: bool,
        mut f: impl FnMut(&mut SpanRows<'_>, i32, i32, i32),
    ) {
        let r = r.intersect(self.bounds());
        if r.is_empty() {
            return;
        }
        self.joined.take();
        let whole = [r];
        let clip = self.clip.as_deref();
        let rects = clip.map_or(&whole[..], |c| c.rects_in_rows(r.y, r.bottom()));
        let mut rows = SpanRows {
            rest: &mut self.bands,
            first: 0,
            cur: None,
            backward,
            shift: self.shift,
            width: self.width as usize,
        };
        let mut band_spans = |band: &[Rect]| {
            // The band's rects that meet r's columns (x-sorted, so a
            // contiguous run), and the band's rows inside r.
            let band = &band[band.partition_point(|c| c.right() <= r.x)..];
            let band = &band[..band.partition_point(|c| c.x < r.right())];
            let Some(first) = band.first() else {
                return;
            };
            let (top, bot) = (first.y.max(r.y), first.bottom().min(r.bottom()));
            let mut row = |y: i32, c: &Rect| {
                f(&mut rows, y, c.x.max(r.x), c.right().min(r.right()));
            };
            if backward {
                for y in (top..bot).rev() {
                    band.iter().rev().for_each(|c| row(y, c));
                }
            } else {
                for y in top..bot {
                    band.iter().for_each(|c| row(y, c));
                }
            }
        };
        let bands = rects.chunk_by(|a, b| a.y == b.y);
        if backward {
            bands.rev().for_each(&mut band_spans);
        } else {
            bands.for_each(band_spans);
        }
    }

    /// Fills a rectangle.
    pub fn fill_rect(&mut self, r: Rect, color: Color) {
        self.fill_rect_op(r, color, RasterOp::Copy);
    }

    /// Fills a rectangle with a raster op: one slice op per clipped
    /// row span.
    pub fn fill_rect_op(&mut self, r: Rect, color: Color, op: RasterOp) {
        self.for_each_span(r, false, |rows, y, x0, x1| {
            let span = &mut rows.row(y)[x0 as usize..x1 as usize];
            match op {
                RasterOp::Copy => span.fill(color.0),
                _ => span
                    .iter_mut()
                    .for_each(|px| *px = combine(*px, color.0, op)),
            }
        });
    }

    /// Fills the runs of a shape inside `r`: `runs(y)` yields row `y`'s
    /// runs as half-open `(x0, x1)` column ranges, which are clipped
    /// like any fill. The whole shape is one span walk, so a glyph costs
    /// one call rather than one per run.
    pub fn fill_runs<I: IntoIterator<Item = (i32, i32)>>(
        &mut self,
        r: Rect,
        color: Color,
        runs: impl Fn(i32) -> I,
    ) {
        self.for_each_span(r, false, |rows, y, x0, x1| {
            for (a, b) in runs(y) {
                let (a, b) = (a.max(x0), b.min(x1));
                if a < b {
                    rows.row(y)[a as usize..b as usize].fill(color.0);
                }
            }
        });
    }

    /// Outlines a rectangle with 1-pixel lines just inside its bounds.
    pub fn draw_rect(&mut self, r: Rect, color: Color) {
        if r.is_empty() {
            return;
        }
        self.fill_rect(Rect::new(r.x, r.y, r.width, 1), color);
        self.fill_rect(Rect::new(r.x, r.bottom() - 1, r.width, 1), color);
        self.fill_rect(Rect::new(r.x, r.y, 1, r.height), color);
        self.fill_rect(Rect::new(r.right() - 1, r.y, 1, r.height), color);
    }

    /// Draws a line of the given thickness (Bresenham; thickness expands
    /// each plotted position into a small square).
    pub fn draw_line(&mut self, a: Point, b: Point, thickness: i32, color: Color) {
        let thickness = thickness.max(1);
        let (mut x0, mut y0) = (a.x, a.y);
        let (x1, y1) = (b.x, b.y);
        let dx = (x1 - x0).abs();
        let dy = -(y1 - y0).abs();
        let sx = if x0 < x1 { 1 } else { -1 };
        let sy = if y0 < y1 { 1 } else { -1 };
        let mut err = dx + dy;
        loop {
            if thickness == 1 {
                self.set(x0, y0, color);
            } else {
                let half = thickness / 2;
                self.fill_rect(Rect::new(x0 - half, y0 - half, thickness, thickness), color);
            }
            if x0 == x1 && y0 == y1 {
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

    /// Outlines an axis-aligned ellipse inscribed in `r` (scanline
    /// algorithm).
    pub fn draw_oval(&mut self, r: Rect, color: Color) {
        self.oval(r, color, false);
    }

    /// Fills an axis-aligned ellipse inscribed in `r`.
    pub fn fill_oval(&mut self, r: Rect, color: Color) {
        self.oval(r, color, true);
    }

    /// Shared scanline ellipse path behind [`Framebuffer::draw_oval`]
    /// / [`Framebuffer::fill_oval`].
    fn oval(&mut self, r: Rect, color: Color, fill: bool) {
        if r.is_empty() {
            return;
        }
        // Scanline ellipse: for each pixel row solve x^2/rx^2 + y^2/ry^2 = 1
        // about the (possibly half-integral) center. Robust over every
        // aspect ratio, unlike a naive midpoint walk.
        let cx = r.x as f64 + (r.width - 1) as f64 / 2.0;
        let cy = r.y as f64 + (r.height - 1) as f64 / 2.0;
        let rx = ((r.width - 1) as f64 / 2.0).max(0.5);
        let ry = ((r.height - 1) as f64 / 2.0).max(0.5);
        let mut left: Vec<Point> = Vec::new();
        let mut right: Vec<Point> = Vec::new();
        for y in r.y..r.bottom() {
            let fy = y as f64 - cy;
            let t = 1.0 - (fy / ry) * (fy / ry);
            if t < 0.0 {
                continue;
            }
            let half = rx * t.sqrt();
            let x0 = (cx - half).round() as i32;
            let x1 = (cx + half).round() as i32;
            if fill {
                self.fill_rect(Rect::new(x0, y, x1 - x0 + 1, 1), color);
            } else {
                left.push(Point::new(x0, y));
                right.push(Point::new(x1, y));
            }
        }
        if !fill {
            // Connect successive outline samples so steep sides are solid.
            for seq in [left, right] {
                for w in seq.windows(2) {
                    self.draw_line(w[0], w[1], 1, color);
                }
            }
        }
    }

    /// Fills an arbitrary polygon (even-odd rule, scanline algorithm).
    pub fn fill_polygon(&mut self, pts: &[Point], color: Color) {
        if pts.len() < 3 {
            return;
        }
        let min_y = pts.iter().map(|p| p.y).min().unwrap();
        let max_y = pts.iter().map(|p| p.y).max().unwrap();
        for y in min_y..=max_y {
            // Gather x-intersections of edges with the scanline center.
            let yc = y as f64 + 0.5;
            let mut xs: Vec<f64> = Vec::new();
            for i in 0..pts.len() {
                let p0 = pts[i];
                let p1 = pts[(i + 1) % pts.len()];
                let (y0, y1) = (p0.y as f64, p1.y as f64);
                if (y0 <= yc && y1 > yc) || (y1 <= yc && y0 > yc) {
                    let t = (yc - y0) / (y1 - y0);
                    xs.push(p0.x as f64 + t * (p1.x - p0.x) as f64);
                }
            }
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for pair in xs.chunks(2) {
                if pair.len() == 2 {
                    let x0 = pair[0].ceil() as i32;
                    let x1 = pair[1].floor() as i32;
                    if x1 >= x0 {
                        self.fill_rect(Rect::new(x0, y, x1 - x0 + 1, 1), color);
                    }
                }
            }
        }
    }

    /// Fills a pie-slice wedge of the ellipse inscribed in `r`, between
    /// `start_deg` and `end_deg` (clockwise from 12 o'clock). Used by the
    /// pie-chart view.
    pub fn fill_wedge(&mut self, r: Rect, start_deg: f64, end_deg: f64, color: Color) {
        if r.is_empty() || end_deg <= start_deg {
            return;
        }
        let c = r.center();
        let rx = r.width as f64 / 2.0;
        let ry = r.height as f64 / 2.0;
        let mut pts = vec![c];
        let steps = (((end_deg - start_deg).abs() / 3.0).ceil() as usize).max(2);
        for i in 0..=steps {
            let ang =
                (start_deg + (end_deg - start_deg) * i as f64 / steps as f64 - 90.0).to_radians();
            pts.push(Point::new(
                c.x + (rx * ang.cos()).round() as i32,
                c.y + (ry * ang.sin()).round() as i32,
            ));
        }
        self.fill_polygon(&pts, color);
    }

    /// Copies rectangle `src_rect` of `src` to `dst_origin` here, using
    /// `op`.
    pub fn blit(&mut self, src: &Framebuffer, src_rect: Rect, dst_origin: Point, op: RasterOp) {
        let src_rect = src_rect.intersect(src.bounds());
        let (dx, dy) = (src_rect.x - dst_origin.x, src_rect.y - dst_origin.y);
        self.for_each_span(
            Rect::at(dst_origin, src_rect.size()),
            false,
            |rows, y, x0, x1| {
                let from = &src.row(y + dy)[(x0 + dx) as usize..(x1 + dx) as usize];
                let span = &mut rows.row(y)[x0 as usize..x1 as usize];
                match op {
                    RasterOp::Copy => span.copy_from_slice(from),
                    _ => span
                        .iter_mut()
                        .zip(from)
                        .for_each(|(px, &c)| *px = combine(*px, c, op)),
                }
            },
        );
    }

    /// Overwrites rectangle `r` with `pixels` (row-major,
    /// `r.width * r.height` of them), one slice copy per row, ignoring
    /// the clip — how a server brings its copy of a client's frame up
    /// to date.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not inside the bounds or `pixels.len()` is not
    /// its area.
    pub fn put_rect(&mut self, r: Rect, pixels: &[u32]) {
        self.land_rect(r, pixels, |row, src| row.copy_from_slice(src));
    }

    /// XORs `pixels` (row-major, `r.width * r.height` of them) into
    /// rectangle `r`, ignoring the clip — how an update, the change
    /// against the frame a client holds, lands on that frame.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not inside the bounds or `pixels.len()` is not
    /// its area.
    pub fn xor_rect(&mut self, r: Rect, pixels: &[u32]) {
        self.land_rect(r, pixels, |row, src| {
            row.iter_mut().zip(src).for_each(|(p, s)| *p ^= s)
        });
    }

    /// Lands `pixels` on rect `r` one row at a time through `land`.
    fn land_rect(&mut self, r: Rect, pixels: &[u32], land: impl Fn(&mut [u32], &[u32])) {
        assert!(
            r.x >= 0 && r.y >= 0 && r.right() <= self.width && r.bottom() <= self.height,
            "rect {r:?} outside {}x{}",
            self.width,
            self.height
        );
        let w = r.width.max(0) as usize;
        assert_eq!(
            pixels.len(),
            w * r.height.max(0) as usize,
            "patch pixel count"
        );
        if w == 0 {
            return;
        }
        let x = r.x as usize;
        for (src, row) in pixels.chunks_exact(w).zip(self.rows_mut(r.y..r.bottom())) {
            land(&mut row[x..x + w], src);
        }
    }

    /// Copies a rectangle within this framebuffer (handles overlap),
    /// e.g. for scrolling. The destination is clipped like any other
    /// write.
    pub fn copy_within(&mut self, src_rect: Rect, dst_origin: Point) {
        let src_rect = src_rect.intersect(self.bounds());
        let (dx, dy) = (src_rect.x - dst_origin.x, src_rect.y - dst_origin.y);
        // Each pixel copies the one (dx, dy) away. Starting from the
        // side the copy moves toward reads every pixel before the walk
        // overwrites it.
        let backward = dy < 0 || (dy == 0 && dx < 0);
        self.for_each_span(
            Rect::at(dst_origin, src_rect.size()),
            backward,
            |rows, y, x0, x1| {
                let len = (x1 - x0) as usize;
                rows.copy(((x0 + dx) as usize, y + dy), (x0 as usize, y), len);
            },
        );
    }

    /// Counts pixels equal to `color` within `r` (test helper, also used
    /// by snapshot assertions).
    pub fn count_pixels(&self, r: Rect, color: Color) -> usize {
        let r = r.intersect(self.bounds());
        let mut n = 0;
        for y in r.y..r.bottom() {
            for x in r.x..r.right() {
                if self.get(x, y) == color {
                    n += 1;
                }
            }
        }
        n
    }

    /// Renders the buffer as ASCII art (`#` for dark pixels), for tests.
    pub fn ascii_art(&self) -> String {
        let mut s = String::with_capacity(((self.width + 1) * self.height) as usize);
        for y in 0..self.height {
            for x in 0..self.width {
                s.push(if self.get(x, y).luma() < 128 {
                    '#'
                } else {
                    '.'
                });
            }
            s.push('\n');
        }
        s
    }

    /// Gives back the pixels as one row-major store, for a decoder to
    /// reuse: a frame held as one band hands over that band's store
    /// (copied only if another frame shares it); any other is joined.
    pub fn into_pixels(mut self) -> Vec<u32> {
        if self.bands.len() == 1 {
            let band = self.bands.pop().expect("one band");
            return Arc::try_unwrap(band).unwrap_or_else(|shared| (*shared).clone());
        }
        self.joined.take().unwrap_or_else(|| self.join())
    }

    /// All pixels, row-major, as one slice. Free on a frame held as one
    /// band (a decoded keyframe, or one of at most [`BAND_ROWS`] rows);
    /// a frame of several bands joins them into a copy it keeps until
    /// the next write, so hot paths read [`Framebuffer::row`] instead.
    pub fn pixels(&self) -> &[u32] {
        match &self.bands[..] {
            [] => &[],
            [one] => one,
            _ => self.joined.get_or_init(|| self.join()),
        }
    }

    /// The bands' pixels in one store.
    fn join(&self) -> Vec<u32> {
        let mut px = Vec::with_capacity(self.width as usize * self.height as usize);
        self.bands
            .iter()
            .for_each(|band| px.extend_from_slice(band));
        px
    }

    /// Whether `other` has this frame's size and pixels, whatever either
    /// clip: bands the two share are not read.
    pub fn same_pixels(&self, other: &Framebuffer) -> bool {
        if (self.width, self.height) != (other.width, other.height) {
            return false;
        }
        if self.shift == other.shift {
            return self
                .bands
                .iter()
                .zip(&other.bands)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b);
        }
        (0..self.height).all(|y| self.row(y) == other.row(y))
    }

    /// The bounding box of the pixels where `self` and `other` differ
    /// inside `within` (clamped to the bounds; pass
    /// [`Framebuffer::bounds`] for the whole frame), or an empty rect
    /// when they agree there. Pixels outside `within` are never read,
    /// so a caller that knows every difference lies inside it gets the
    /// box a full scan would, at the cost of the rect. Each row costs
    /// one slice compare, and a changed row one more per side of the
    /// box found so far: only pixels outside the box can widen it, and
    /// a side that differs is scanned in from its far end.
    /// Returns `None` when the buffers have different dimensions —
    /// there is no meaningful diff across a resize, callers should
    /// fall back to shipping the whole frame.
    pub fn diff_bounds_within(&self, other: &Framebuffer, within: Rect) -> Option<Rect> {
        if self.width != other.width || self.height != other.height {
            return None;
        }
        let r = within.intersect(self.bounds());
        let (x0, x1) = (r.x as usize, r.right() as usize);
        let mut rows: Option<(i32, i32)> = None;
        // The box's columns so far, relative to `x0`: `lo..hi`.
        let (mut lo, mut hi) = (x1 - x0, 0);
        for y in r.y..r.bottom() {
            let a = &self.row(y)[x0..x1];
            let b = &other.row(y)[x0..x1];
            if a == b {
                continue;
            }
            if a[..lo] != b[..lo] {
                lo = a.iter().zip(b).position(|(p, q)| p != q).unwrap_or(lo);
            }
            if a[hi..] != b[hi..] {
                hi = a
                    .iter()
                    .zip(b)
                    .rposition(|(p, q)| p != q)
                    .map_or(hi, |p| p + 1);
            }
            rows = Some((rows.map_or(y, |(top, _)| top), y + 1));
        }
        Some(match rows {
            Some((top, bottom)) => Rect::new((x0 + lo) as i32, top, (hi - lo) as i32, bottom - top),
            None => Rect::EMPTY,
        })
    }
}

/// The rows one drawing call writes, handed out in the order the call
/// walks them (top down, or bottom up when backward): each band is
/// taken for writing ([`band_mut`]) once, when the walk enters it, and
/// a row's band is found by shift and mask.
struct SpanRows<'a> {
    /// The bands the walk has not entered: those below the current one,
    /// or above it when walking backward.
    rest: &'a mut [Arc<Vec<u32>>],
    /// The index of `rest[0]`.
    first: usize,
    /// The band being written: its index and pixels.
    cur: Option<(usize, &'a mut Vec<u32>)>,
    backward: bool,
    shift: u32,
    width: usize,
}

impl SpanRows<'_> {
    /// Enters the band holding row `y` unless the walk is in it, and
    /// gives the offset of row `y` in that band.
    #[inline]
    fn enter(&mut self, y: i32) -> usize {
        let (y, shift) = (y as usize, self.shift);
        let b = y >> shift;
        if !matches!(self.cur, Some((at, _)) if at == b) {
            let rest = std::mem::take(&mut self.rest);
            let (before, from) = rest.split_at_mut(b - self.first);
            let (band, after) = from
                .split_first_mut()
                .expect("a span walk moves one way through the bands");
            if self.backward {
                self.rest = before;
            } else {
                (self.rest, self.first) = (after, b + 1);
            }
            self.cur = Some((b, band_mut(band)));
        }
        (y & ((1 << shift) - 1)) * self.width
    }

    /// Row `y`, writable.
    #[inline]
    fn row(&mut self, y: i32) -> &mut [u32] {
        let (at, w) = (self.enter(y), self.width);
        let Some((_, px)) = &mut self.cur else {
            unreachable!("enter sets the current band")
        };
        &mut px[at..at + w]
    }

    /// Copies `len` pixels from `(sx, sy)` to `(x, y)`. A source row in
    /// another band lies in one the walk has not entered — the walk
    /// starts from the side the copy moves toward — so it still holds
    /// the pixels from before the copy.
    fn copy(&mut self, (sx, sy): (usize, i32), (x, y): (usize, i32), len: usize) {
        let at = self.enter(y) + x;
        let from = (sy as usize & ((1 << self.shift) - 1)) * self.width + sx;
        let Some((b, px)) = &mut self.cur else {
            unreachable!("enter sets the current band")
        };
        let source = sy as usize >> self.shift;
        if source == *b {
            px.copy_within(from..from + len, at);
        } else {
            px[at..at + len].copy_from_slice(&self.rest[source - self.first][from..from + len]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_filled() {
        let fb = Framebuffer::new(4, 3, Color::WHITE);
        assert_eq!(fb.count_pixels(fb.bounds(), Color::WHITE), 12);
    }

    #[test]
    fn set_get_round_trip_and_oob() {
        let mut fb = Framebuffer::new(4, 4, Color::WHITE);
        fb.set(1, 2, Color::BLACK);
        assert_eq!(fb.get(1, 2), Color::BLACK);
        fb.set(-1, 0, Color::BLACK); // Silently clipped.
        fb.set(4, 0, Color::BLACK);
        assert_eq!(fb.count_pixels(fb.bounds(), Color::BLACK), 1);
        assert_eq!(fb.get(99, 99), Color::WHITE);
    }

    #[test]
    fn fill_rect_clips_to_bounds() {
        let mut fb = Framebuffer::new(10, 10, Color::WHITE);
        fb.fill_rect(Rect::new(5, 5, 100, 100), Color::BLACK);
        assert_eq!(fb.count_pixels(fb.bounds(), Color::BLACK), 25);
    }

    #[test]
    fn clip_region_restricts_drawing() {
        let mut fb = Framebuffer::new(10, 10, Color::WHITE);
        fb.set_clip(Some(Region::from_rect(Rect::new(0, 0, 3, 3))));
        fb.fill_rect(Rect::new(0, 0, 10, 10), Color::BLACK);
        assert_eq!(fb.count_pixels(fb.bounds(), Color::BLACK), 9);
        fb.set_clip(None);
        fb.fill_rect(Rect::new(0, 0, 10, 10), Color::BLACK);
        assert_eq!(fb.count_pixels(fb.bounds(), Color::BLACK), 100);
    }

    #[test]
    fn horizontal_and_vertical_lines() {
        let mut fb = Framebuffer::new(10, 10, Color::WHITE);
        fb.draw_line(Point::new(0, 5), Point::new(9, 5), 1, Color::BLACK);
        assert_eq!(fb.count_pixels(Rect::new(0, 5, 10, 1), Color::BLACK), 10);
        fb.draw_line(Point::new(3, 0), Point::new(3, 9), 1, Color::BLACK);
        assert_eq!(fb.count_pixels(Rect::new(3, 0, 1, 10), Color::BLACK), 10);
    }

    #[test]
    fn diagonal_line_endpoints() {
        let mut fb = Framebuffer::new(10, 10, Color::WHITE);
        fb.draw_line(Point::new(0, 0), Point::new(9, 9), 1, Color::BLACK);
        assert_eq!(fb.get(0, 0), Color::BLACK);
        assert_eq!(fb.get(9, 9), Color::BLACK);
        assert_eq!(fb.get(5, 5), Color::BLACK);
    }

    #[test]
    fn thick_line_is_wider() {
        let mut thin = Framebuffer::new(20, 20, Color::WHITE);
        let mut thick = Framebuffer::new(20, 20, Color::WHITE);
        thin.draw_line(Point::new(2, 10), Point::new(18, 10), 1, Color::BLACK);
        thick.draw_line(Point::new(2, 10), Point::new(18, 10), 3, Color::BLACK);
        assert!(
            thick.count_pixels(thick.bounds(), Color::BLACK)
                > 2 * thin.count_pixels(thin.bounds(), Color::BLACK)
        );
    }

    #[test]
    fn draw_rect_outline_only() {
        let mut fb = Framebuffer::new(10, 10, Color::WHITE);
        fb.draw_rect(Rect::new(2, 2, 6, 6), Color::BLACK);
        // Perimeter of a 6x6 square = 20 pixels.
        assert_eq!(fb.count_pixels(fb.bounds(), Color::BLACK), 20);
        assert_eq!(fb.get(4, 4), Color::WHITE);
    }

    #[test]
    fn fill_oval_covers_center_not_corners() {
        let mut fb = Framebuffer::new(20, 20, Color::WHITE);
        fb.fill_oval(Rect::new(0, 0, 20, 20), Color::BLACK);
        assert_eq!(fb.get(10, 10), Color::BLACK);
        assert_eq!(fb.get(0, 0), Color::WHITE);
        assert_eq!(fb.get(19, 19), Color::WHITE);
        let area = fb.count_pixels(fb.bounds(), Color::BLACK) as f64;
        // Area of a circle of radius ~10 is ~314; allow raster slop.
        assert!(area > 250.0 && area < 340.0, "oval area {area}");
    }

    #[test]
    fn polygon_triangle_fill() {
        let mut fb = Framebuffer::new(20, 20, Color::WHITE);
        fb.fill_polygon(
            &[Point::new(1, 1), Point::new(17, 1), Point::new(1, 17)],
            Color::BLACK,
        );
        assert_eq!(fb.get(3, 3), Color::BLACK);
        assert_eq!(fb.get(16, 16), Color::WHITE);
        let area = fb.count_pixels(fb.bounds(), Color::BLACK) as f64;
        assert!(area > 90.0 && area < 145.0, "triangle area {area}");
    }

    #[test]
    fn xor_fill_is_self_inverse() {
        let mut fb = Framebuffer::new(10, 10, Color::WHITE);
        fb.fill_rect(Rect::new(0, 0, 5, 10), Color::BLACK);
        let before = fb.clone();
        let sel = Rect::new(2, 2, 6, 6);
        fb.fill_rect_op(sel, Color::WHITE, RasterOp::Xor);
        assert_ne!(fb, before);
        fb.fill_rect_op(sel, Color::WHITE, RasterOp::Xor);
        assert_eq!(fb, before);
    }

    #[test]
    fn blit_copies_rect() {
        let mut src = Framebuffer::new(10, 10, Color::WHITE);
        src.fill_rect(Rect::new(0, 0, 4, 4), Color::BLACK);
        let mut dst = Framebuffer::new(10, 10, Color::WHITE);
        dst.blit(
            &src,
            Rect::new(0, 0, 4, 4),
            Point::new(5, 5),
            RasterOp::Copy,
        );
        assert_eq!(dst.count_pixels(Rect::new(5, 5, 4, 4), Color::BLACK), 16);
        assert_eq!(dst.count_pixels(dst.bounds(), Color::BLACK), 16);
    }

    #[test]
    fn copy_within_handles_overlap() {
        let mut fb = Framebuffer::new(10, 1, Color::WHITE);
        for x in 0..5 {
            fb.set(x, 0, Color::rgb(x as u8, 0, 0));
        }
        // Shift right by 2 with overlapping ranges.
        fb.copy_within(Rect::new(0, 0, 5, 1), Point::new(2, 0));
        for x in 0..5 {
            assert_eq!(fb.get(x + 2, 0), Color::rgb(x as u8, 0, 0));
        }
    }

    #[test]
    fn wedge_quarters_cover_quarter_area() {
        let mut fb = Framebuffer::new(40, 40, Color::WHITE);
        fb.fill_wedge(Rect::new(0, 0, 40, 40), 0.0, 90.0, Color::BLACK);
        // Top-right quadrant should be mostly black, bottom-left all white.
        assert!(fb.count_pixels(Rect::new(20, 0, 20, 20), Color::BLACK) > 200);
        assert_eq!(fb.count_pixels(Rect::new(0, 20, 18, 18), Color::BLACK), 0);
    }

    #[test]
    fn ascii_art_shape() {
        let mut fb = Framebuffer::new(3, 2, Color::WHITE);
        fb.set(1, 0, Color::BLACK);
        assert_eq!(fb.ascii_art(), ".#.\n...\n");
    }

    #[test]
    fn diff_region_of_identical_buffers_is_empty() {
        let a = Framebuffer::new(8, 8, Color::WHITE);
        let b = a.clone();
        assert!(a.diff_bounds_within(&b, a.bounds()).unwrap().is_empty());
    }

    #[test]
    fn diff_region_merges_adjacent_rows_into_bands() {
        let a = Framebuffer::new(16, 16, Color::WHITE);
        let mut b = a.clone();
        b.fill_rect(Rect::new(3, 2, 5, 4), Color::BLACK);
        let diff = a.diff_bounds_within(&b, a.bounds()).unwrap();
        assert_eq!(diff, Rect::new(3, 2, 5, 4));
        // A second block below a gap row widens the box over the gap.
        b.fill_rect(Rect::new(1, 7, 2, 1), Color::BLACK);
        let diff = a.diff_bounds_within(&b, a.bounds()).unwrap();
        assert_eq!(diff, Rect::new(1, 2, 7, 6));
    }

    #[test]
    fn diff_region_finds_scattered_spans() {
        let a = Framebuffer::new(10, 3, Color::WHITE);
        let mut b = a.clone();
        b.set(0, 0, Color::BLACK);
        b.set(1, 0, Color::BLACK);
        b.set(9, 0, Color::BLACK);
        b.set(4, 2, Color::BLACK);
        let diff = a.diff_bounds_within(&b, a.bounds()).unwrap();
        assert_eq!(diff, a.bounds());
        // Inside a rect that leaves out column 9, the box ends at 4.
        let diff = a.diff_bounds_within(&b, Rect::new(0, 0, 9, 3)).unwrap();
        assert_eq!(diff, Rect::new(0, 0, 5, 3));
    }

    #[test]
    fn from_pixels_adopts_row_major_pixels() {
        let fb = Framebuffer::from_pixels(3, 2, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(fb.get(2, 0), Color(3));
        assert_eq!(fb.get(0, 1), Color(4));
        assert_eq!(fb.clip(), None);
        assert_eq!(Framebuffer::from_pixels(0, 5, Vec::new()).height(), 5);
    }

    #[test]
    #[should_panic(expected = "pixel count")]
    fn from_pixels_rejects_a_length_mismatch() {
        let _ = Framebuffer::from_pixels(3, 2, vec![0; 5]);
    }

    #[test]
    fn put_rect_lands_on_every_edge() {
        let (w, h) = (7, 5);
        let mut fb = Framebuffer::new(w, h, Color::WHITE);
        let mut want = fb.clone();
        let rects = [
            Rect::new(0, 0, 3, 2), // top-left corner
            Rect::new(4, 0, 3, 1), // top edge, right corner
            Rect::new(0, 2, 1, 3), // left edge, bottom corner
            Rect::new(6, 1, 1, 4), // right edge
            Rect::new(2, 4, 4, 1), // bottom edge
            Rect::new(0, 0, w, h), // the whole frame
            Rect::new(3, 2, 0, 0), // empty
        ];
        for (k, r) in rects.into_iter().enumerate() {
            let pixels: Vec<u32> = (0..r.width * r.height)
                .map(|i| (k as u32) << 8 | i as u32)
                .collect();
            fb.put_rect(r, &pixels);
            let mut i = 0;
            for y in r.y..r.bottom() {
                for x in r.x..r.right() {
                    want.set(x, y, Color(pixels[i]));
                    i += 1;
                }
            }
            assert_eq!(fb, want, "rect {r:?}");
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn put_rect_rejects_a_rect_past_the_edge() {
        let mut fb = Framebuffer::new(4, 4, Color::WHITE);
        fb.put_rect(Rect::new(2, 0, 3, 1), &[0; 3]);
    }

    #[test]
    fn a_write_copies_only_the_shared_bands_it_touches() {
        assert_eq!(BAND_ROWS, 16, "the band size DESIGN.md prices");
        // Four bands, the last 5 rows short; the three full ones share
        // one fill band, so filling copies two and finds the third
        // alone.
        let (w, h) = (8, 3 * BAND_ROWS + 5);
        let mut a = Framebuffer::new(w, h, Color::WHITE);
        let before = band_copies();
        a.fill_rect(a.bounds(), Color::BLACK);
        assert_eq!(band_copies() - before, 2);
        // A clone shares all four; a write across the edge of bands 0
        // and 1 copies those two, once each, and never again.
        let mut b = a.clone();
        let before = band_copies();
        b.fill_rect(Rect::new(0, BAND_ROWS - 1, w, 2), Color::WHITE);
        assert_eq!(band_copies() - before, 2);
        b.fill_rect(Rect::new(0, 0, w, 2 * BAND_ROWS), Color::RED);
        b.set(3, 2, Color::BLUE);
        assert_eq!(band_copies() - before, 2);
        assert_eq!(a.count_pixels(a.bounds(), Color::BLACK), (w * h) as usize);
        assert_eq!(
            b.count_pixels(b.bounds(), Color::BLACK),
            (w * (h - 2 * BAND_ROWS)) as usize
        );
    }

    #[test]
    fn pixels_of_a_banded_frame_follow_its_writes() {
        let mut fb = Framebuffer::new(3, 40, Color::WHITE);
        assert_eq!(fb.pixels(), &[Color::WHITE.0; 120][..]);
        fb.set(1, 39, Color::BLACK);
        fb.copy_within(Rect::new(0, 39, 3, 1), Point::new(0, 0));
        let px = fb.pixels();
        assert_eq!((px[1], px[39 * 3 + 1], px[2]), (0, 0, Color::WHITE.0));
        let flat = Framebuffer::from_pixels(3, 40, fb.clone().into_pixels());
        assert!(flat.same_pixels(&fb) && fb.same_pixels(&flat));
        assert_eq!(flat, fb);
        fb.set(0, 20, Color::BLACK);
        assert!(!flat.same_pixels(&fb));
        assert_eq!(Framebuffer::new(5, 0, Color::WHITE).pixels(), &[] as &[u32]);
    }

    #[test]
    fn rows_mut_stops_copying_where_the_caller_stops() {
        let a = Framebuffer::new(4, 4 * BAND_ROWS, Color::WHITE);
        let mut b = a.clone();
        let before = band_copies();
        for (y, row) in (BAND_ROWS - 2..).zip(b.rows_mut(BAND_ROWS - 2..100)) {
            row.fill(y as u32);
            if y == BAND_ROWS {
                break;
            }
        }
        assert_eq!(band_copies() - before, 2, "bands 0 and 1, not 2 and 3");
        assert_eq!(
            (b.get(0, BAND_ROWS - 2), b.get(3, BAND_ROWS)),
            (Color(14), Color(16))
        );
        assert_eq!(b.get(0, BAND_ROWS + 1), Color::WHITE);
        assert_eq!(b.rows_mut(-5..0).count() + b.rows_mut(70..90).count(), 0);
    }

    #[test]
    fn diff_region_rejects_size_mismatch() {
        let a = Framebuffer::new(4, 4, Color::WHITE);
        let b = Framebuffer::new(5, 4, Color::WHITE);
        assert!(a.diff_bounds_within(&b, a.bounds()).is_none());
    }
}

/// The bounds scan against the reference construction: the bounding
/// box of every maximal differing row span of a full per-pixel scan,
/// unioned through [`Region::from_rects`].
#[cfg(test)]
mod diff_props {
    use super::*;
    use proptest::prelude::*;

    fn reference(a: &Framebuffer, b: &Framebuffer) -> Region {
        let mut spans = Vec::new();
        for y in 0..a.height() {
            let mut x = 0;
            while x < a.width() {
                if a.get(x, y) == b.get(x, y) {
                    x += 1;
                    continue;
                }
                let start = x;
                while x < a.width() && a.get(x, y) != b.get(x, y) {
                    x += 1;
                }
                spans.push(Rect::new(start, y, x - start, 1));
            }
        }
        Region::from_rects(spans)
    }

    /// Asserts the bounds scan equals the reference's bounding box over
    /// the whole frame and over that box itself.
    fn check(a: &Framebuffer, b: &Framebuffer) {
        let want = reference(a, b).bounding_box();
        assert_eq!(a.diff_bounds_within(b, a.bounds()).unwrap(), want);
        assert_eq!(a.diff_bounds_within(b, want).unwrap(), want);
    }

    /// A frame pair of the given size whose second frame differs from
    /// the first on pixels where `mark(x, y)` holds.
    fn pair(w: i32, h: i32, mark: impl Fn(i32, i32) -> bool) -> (Framebuffer, Framebuffer) {
        let a = Framebuffer::new(w, h, Color::WHITE);
        let mut b = a.clone();
        for y in 0..h {
            for x in 0..w {
                if mark(x, y) {
                    b.set(x, y, Color::BLACK);
                }
            }
        }
        (a, b)
    }

    #[test]
    fn empty_frames_diff_to_nothing() {
        for (w, h) in [(0, 0), (0, 7), (7, 0)] {
            let (a, b) = pair(w, h, |_, _| true);
            let d = a.diff_bounds_within(&b, Rect::new(-3, -3, 20, 20)).unwrap();
            assert!(d.is_empty(), "{w}x{h}");
            check(&a, &b);
        }
    }

    #[test]
    fn a_frame_that_differs_everywhere_is_one_rect() {
        let (a, b) = pair(13, 9, |_, _| true);
        check(&a, &b);
        assert_eq!(a.diff_bounds_within(&b, a.bounds()).unwrap(), a.bounds());
    }

    #[test]
    fn alternating_pixels_make_many_spans_per_row() {
        // Checkerboard: every row has width/2 spans, and the first and
        // last differing columns alternate between rows.
        let (a, b) = pair(31, 12, |x, y| (x + y) % 2 == 0);
        check(&a, &b);
        // Column stripes: the box runs from the first odd column to
        // the last.
        let (a, b) = pair(31, 12, |x, _| x % 2 == 1);
        check(&a, &b);
        assert_eq!(
            a.diff_bounds_within(&b, a.bounds()).unwrap(),
            Rect::new(1, 0, 29, 12)
        );
    }

    #[test]
    fn pixels_outside_the_rect_are_not_compared() {
        let (a, b) = pair(10, 10, |x, y| (x, y) == (1, 1) || (x, y) == (8, 8));
        let d = a.diff_bounds_within(&b, Rect::new(0, 0, 5, 5)).unwrap();
        assert_eq!(d, Rect::new(1, 1, 1, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sparse, dense and blocky differences on random
        /// sizes; `within` is any rect covering every difference.
        #[test]
        fn one_pass_diff_equals_from_rects(
            w in 0i32..40,
            h in 0i32..30,
            dots in proptest::collection::vec((0i32..40, 0i32..30, 1u32..4), 0..60),
            blocks in proptest::collection::vec((0i32..40, 0i32..30, 1i32..12, 1i32..8), 0..4),
            pad in (0i32..6, 0i32..6, 0i32..6, 0i32..6),
        ) {
            let a = Framebuffer::new(w, h, Color::WHITE);
            let mut b = a.clone();
            for (x, y, c) in dots {
                b.set(x, y, Color(c));
            }
            for (x, y, bw, bh) in blocks {
                b.fill_rect(Rect::new(x, y, bw, bh), Color(7));
            }
            let want = reference(&a, &b).bounding_box();
            let within = Rect::new(
                want.x - pad.0,
                want.y - pad.1,
                want.width + pad.0 + pad.2,
                want.height + pad.1 + pad.3,
            );
            let within = if want.is_empty() { Rect::new(pad.0, pad.1, pad.2, pad.3) } else { within };
            prop_assert_eq!(a.diff_bounds_within(&b, within).unwrap(), want);
            prop_assert_eq!(a.diff_bounds_within(&b, a.bounds()).unwrap(), want);
        }
    }
}
