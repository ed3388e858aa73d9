//! Deferred paint commands and the parallel band replayer.
//!
//! After PR 2's region work the damage rectangles handed to an update
//! pass are disjoint by construction, so the rasterization of one frame
//! is embarrassingly parallel *by rows*: partition the painted extent
//! into horizontal bands, hand each band a disjoint mutable slice of
//! the framebuffer (via [`Framebuffer::bands_mut`], which uses
//! `split_at_mut` so the borrow checker proves disjointness), and replay
//! the same command list into every band on a scoped thread pool.
//!
//! Because bands implement the same [`Raster`] trait as the whole
//! framebuffer — differing only in the rows they accept writes to — the
//! banded replay is byte-identical to the serial one by construction.
//! A window at one paint thread (the default) rasterizes immediately
//! and serially; that path is the oracle reference the banded replay is
//! checked against.

use std::sync::Arc;
use std::thread;

use atk_graphics::font::GLYPH_ROWS;
use atk_graphics::{
    BitmapFont, Color, FontDesc, Framebuffer, Point, Raster, RasterOp, Rect, Region,
};

/// Counters accumulated by a recording backend across flushes; polled
/// by the interaction manager after each update pass and folded into
/// the `paint.*` stats.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PaintStats {
    /// Parallel flushes executed (command batches replayed on bands).
    pub flushes: u64,
    /// Total bands rasterized across all flushes.
    pub bands: u64,
    /// Wall-clock microseconds spent inside banded replay.
    pub par_us: u64,
    /// Operations that forced a serial fallback (self-copies, which
    /// read rows other bands may be writing).
    pub serial_fallbacks: u64,
}

impl PaintStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: PaintStats) {
        self.flushes += other.flushes;
        self.bands += other.bands;
        self.par_us += other.par_us;
        self.serial_fallbacks += other.serial_fallbacks;
    }
}

/// One recorded drawing operation, in device coordinates with all
/// graphics state already resolved.
#[derive(Debug, Clone)]
pub enum DrawOp {
    /// A line segment of the given thickness.
    Line {
        /// Start point.
        a: Point,
        /// End point.
        b: Point,
        /// Pen thickness.
        width: i32,
        /// Pen color.
        color: Color,
    },
    /// A 1-pixel rectangle outline.
    RectOutline {
        /// The rectangle.
        r: Rect,
        /// Pen color.
        color: Color,
    },
    /// A filled rectangle combined with the destination via `rop`.
    FillRect {
        /// The rectangle.
        r: Rect,
        /// Fill color.
        color: Color,
        /// Transfer op.
        rop: RasterOp,
    },
    /// The ellipse inscribed in `r`, outlined or filled.
    Oval {
        /// Bounding rectangle.
        r: Rect,
        /// Pen color.
        color: Color,
        /// Fill (true) or outline (false).
        fill: bool,
    },
    /// A filled polygon (even-odd rule).
    Polygon {
        /// Vertices in device coordinates.
        pts: Vec<Point>,
        /// Fill color.
        color: Color,
    },
    /// A pie wedge of the ellipse inscribed in `r`.
    Wedge {
        /// Bounding rectangle.
        r: Rect,
        /// Start angle, degrees clockwise from 12 o'clock.
        start_deg: f64,
        /// End angle.
        end_deg: f64,
        /// Fill color.
        color: Color,
    },
    /// Text with its top-left corner at `origin` (baseline draws are
    /// converted at record time).
    Text {
        /// Top-left corner.
        origin: Point,
        /// The string.
        text: String,
        /// Resolved font.
        font: FontDesc,
        /// Text color.
        color: Color,
    },
    /// A blit from pre-rendered bits.
    Blit {
        /// Source pixels (shared so the command list is `Send`).
        bits: Arc<Framebuffer>,
        /// Source rectangle within `bits`.
        src: Rect,
        /// Destination top-left.
        dst: Point,
        /// Transfer op.
        rop: RasterOp,
    },
}

/// A recorded command: a resolved [`DrawOp`] plus the clip in force and
/// a conservative vertical extent used to skip bands it cannot touch.
#[derive(Debug, Clone)]
pub struct PaintCmd {
    /// Device-space clip in force when the op was issued.
    pub clip: Option<Arc<Region>>,
    /// Inclusive lower bound on rows the op may write.
    pub y_lo: i32,
    /// Exclusive upper bound on rows the op may write.
    pub y_hi: i32,
    /// The operation.
    pub op: DrawOp,
}

impl PaintCmd {
    /// Builds a command, computing the conservative y-extent (clamped
    /// to the clip's bounding box when a clip is set).
    pub fn new(clip: Option<Arc<Region>>, op: DrawOp) -> PaintCmd {
        let (mut y_lo, mut y_hi) = y_extent(&op);
        if let Some(c) = &clip {
            let bb = c.bounding_box();
            y_lo = y_lo.max(bb.y);
            y_hi = y_hi.min(bb.bottom());
        }
        PaintCmd {
            clip,
            y_lo,
            y_hi,
            op,
        }
    }
}

/// Conservative half-open row range an op may write (before clipping).
fn y_extent(op: &DrawOp) -> (i32, i32) {
    match op {
        DrawOp::Line { a, b, width, .. } => {
            let w = (*width).max(1);
            (a.y.min(b.y) - w, a.y.max(b.y) + w + 1)
        }
        DrawOp::RectOutline { r, .. } | DrawOp::FillRect { r, .. } => (r.y, r.bottom()),
        // The scanline ellipse only emits rows inside `r`; pad one row
        // for the outline's connecting segments.
        DrawOp::Oval { r, .. } => (r.y - 1, r.bottom() + 1),
        DrawOp::Polygon { pts, .. } => {
            let lo = pts.iter().map(|p| p.y).min().unwrap_or(0);
            let hi = pts.iter().map(|p| p.y).max().unwrap_or(0);
            (lo, hi + 1)
        }
        // Wedge vertices are rounded points on the ellipse; pad for the
        // rounding.
        DrawOp::Wedge { r, .. } => (r.y - 1, r.bottom() + 2),
        DrawOp::Text { origin, font, .. } => {
            // Glyph rows span GLYPH_ROWS * scale; an underline adds up
            // to two more scaled rows below.
            let s = font.scale();
            (origin.y, origin.y + (GLYPH_ROWS + 2) * s + 1)
        }
        DrawOp::Blit { src, dst, .. } => (dst.y, dst.y + src.height.max(0)),
    }
}

/// Replays one op into any [`Raster`] surface. This is the single code
/// path both serial and banded replay go through, which is what makes
/// them byte-identical by construction.
fn apply<R: Raster>(t: &mut R, op: &DrawOp) {
    match op {
        DrawOp::Line { a, b, width, color } => t.draw_line(*a, *b, *width, *color),
        DrawOp::RectOutline { r, color } => t.draw_rect(*r, *color),
        DrawOp::FillRect { r, color, rop } => t.fill_rect_op(*r, *color, *rop),
        DrawOp::Oval { r, color, fill } => {
            if *fill {
                t.fill_oval(*r, *color);
            } else {
                t.draw_oval(*r, *color);
            }
        }
        DrawOp::Polygon { pts, color } => t.fill_polygon(pts, *color),
        DrawOp::Wedge {
            r,
            start_deg,
            end_deg,
            color,
        } => t.fill_wedge(*r, *start_deg, *end_deg, *color),
        DrawOp::Text {
            origin,
            text,
            font,
            color,
        } => {
            BitmapFont::draw(t, *origin, text, font, *color);
        }
        DrawOp::Blit {
            bits,
            src,
            dst,
            rop,
        } => t.blit(bits, *src, *dst, *rop),
    }
}

/// Replays a command list serially into the whole framebuffer — the
/// oracle reference path.
pub fn replay_serial(fb: &mut Framebuffer, cmds: &[PaintCmd]) {
    for cmd in cmds {
        fb.set_clip_shared(cmd.clip.clone());
        apply(fb, &cmd.op);
    }
    fb.set_clip(None);
}

/// Replays a command list into up to `threads` disjoint horizontal
/// bands on a scoped thread pool. Returns the number of bands actually
/// rasterized (0 when the extent is empty, 1 when it degenerates to a
/// single band — in which case the replay runs on the calling thread).
pub fn replay_parallel(fb: &mut Framebuffer, cmds: &[PaintCmd], threads: usize) -> usize {
    if cmds.is_empty() {
        return 0;
    }
    let mut lo = i32::MAX;
    let mut hi = i32::MIN;
    for cmd in cmds {
        lo = lo.min(cmd.y_lo);
        hi = hi.max(cmd.y_hi);
    }
    let mut bands = fb.bands_mut(lo, hi, threads.max(1));
    let n = bands.len();
    match n {
        0 => {}
        1 => replay_band(&mut bands[0], cmds),
        _ => {
            thread::scope(|scope| {
                for band in &mut bands {
                    scope.spawn(|| replay_band(band, cmds));
                }
            });
        }
    }
    n
}

/// Replays the same banded partition as [`replay_parallel`], but runs
/// the bands sequentially on the calling thread and returns each band's
/// rasterization cost in microseconds. The pixels produced are
/// byte-identical to both other replay paths.
///
/// This is the measurement harness for the partition itself:
/// `serial_time / max(costs)` is the critical-path speedup a fully
/// parallel replay approaches as cores become available. E14 reports it
/// on hosts with fewer cores than bands, where wall-clock would only
/// measure the scheduler time-slicing one core.
pub fn replay_bands_timed(fb: &mut Framebuffer, cmds: &[PaintCmd], threads: usize) -> Vec<u64> {
    if cmds.is_empty() {
        return Vec::new();
    }
    let mut lo = i32::MAX;
    let mut hi = i32::MIN;
    for cmd in cmds {
        lo = lo.min(cmd.y_lo);
        hi = hi.max(cmd.y_hi);
    }
    let mut bands = fb.bands_mut(lo, hi, threads.max(1));
    let mut costs = Vec::with_capacity(bands.len());
    for band in &mut bands {
        let t0 = std::time::Instant::now();
        replay_band(band, cmds);
        costs.push(t0.elapsed().as_micros() as u64);
    }
    costs
}

/// Replays the commands that can touch `band`'s rows.
fn replay_band(band: &mut atk_graphics::FbBand<'_>, cmds: &[PaintCmd]) {
    let (y0, y1) = band.y_range();
    for cmd in cmds {
        if cmd.y_hi <= y0 || cmd.y_lo >= y1 {
            continue;
        }
        band.set_clip_shared(cmd.clip.clone());
        apply(band, &cmd.op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atk_graphics::FontStyle;

    fn sample_cmds() -> Vec<PaintCmd> {
        let clip = Some(Arc::new(Region::from_rect(Rect::new(0, 0, 200, 150))));
        let mut off = Framebuffer::new(16, 16, Color::BLACK);
        Raster::fill_rect(&mut off, Rect::new(4, 4, 8, 8), Color::RED);
        vec![
            PaintCmd::new(
                None,
                DrawOp::FillRect {
                    r: Rect::new(0, 0, 200, 150),
                    color: Color::WHITE,
                    rop: RasterOp::Copy,
                },
            ),
            PaintCmd::new(
                clip.clone(),
                DrawOp::Line {
                    a: Point::new(3, 140),
                    b: Point::new(190, 5),
                    width: 3,
                    color: Color::BLACK,
                },
            ),
            PaintCmd::new(
                clip.clone(),
                DrawOp::Oval {
                    r: Rect::new(20, 30, 90, 70),
                    color: Color::BLUE,
                    fill: true,
                },
            ),
            PaintCmd::new(
                clip.clone(),
                DrawOp::Wedge {
                    r: Rect::new(100, 60, 60, 60),
                    start_deg: 20.0,
                    end_deg: 240.0,
                    color: Color::DARK_GRAY,
                },
            ),
            PaintCmd::new(
                clip.clone(),
                DrawOp::Polygon {
                    pts: vec![
                        Point::new(10, 100),
                        Point::new(60, 120),
                        Point::new(35, 145),
                    ],
                    color: Color::RED,
                },
            ),
            PaintCmd::new(
                clip.clone(),
                DrawOp::Text {
                    origin: Point::new(8, 8),
                    text: "parallel bands".to_string(),
                    font: FontDesc::new("andy", FontStyle::BOLD, 12),
                    color: Color::BLACK,
                },
            ),
            PaintCmd::new(
                clip,
                DrawOp::Blit {
                    bits: Arc::new(off),
                    src: Rect::new(0, 0, 16, 16),
                    dst: Point::new(170, 120),
                    rop: RasterOp::Copy,
                },
            ),
        ]
    }

    #[test]
    fn parallel_replay_matches_serial_replay() {
        let cmds = sample_cmds();
        let mut serial = Framebuffer::new(200, 150, Color::WHITE);
        replay_serial(&mut serial, &cmds);
        for threads in [1, 2, 3, 4, 8, 64] {
            let mut par = Framebuffer::new(200, 150, Color::WHITE);
            let bands = replay_parallel(&mut par, &cmds, threads);
            assert_eq!(par, serial, "threads={threads} bands={bands}");
        }
    }

    #[test]
    fn timed_banded_replay_matches_serial_replay() {
        let cmds = sample_cmds();
        let mut serial = Framebuffer::new(200, 150, Color::WHITE);
        replay_serial(&mut serial, &cmds);
        let mut timed = Framebuffer::new(200, 150, Color::WHITE);
        let costs = replay_bands_timed(&mut timed, &cmds, 4);
        assert!(costs.len() <= 4 && !costs.is_empty());
        assert_eq!(timed, serial);
    }

    #[test]
    fn banded_replay_honors_narrow_clips() {
        // A clip far from a command's natural extent: the extent clamp
        // must not lose pixels the clip admits.
        let clip = Some(Arc::new(Region::from_rect(Rect::new(0, 40, 100, 10))));
        let cmds = vec![PaintCmd::new(
            clip,
            DrawOp::FillRect {
                r: Rect::new(0, 0, 100, 100),
                color: Color::BLACK,
                rop: RasterOp::Copy,
            },
        )];
        let mut serial = Framebuffer::new(100, 100, Color::WHITE);
        replay_serial(&mut serial, &cmds);
        let mut par = Framebuffer::new(100, 100, Color::WHITE);
        replay_parallel(&mut par, &cmds, 4);
        assert_eq!(par, serial);
        assert_eq!(serial.count_pixels(serial.bounds(), Color::BLACK), 1000);
    }

    #[test]
    fn empty_extent_rasterizes_no_bands() {
        let cmds = vec![PaintCmd::new(
            None,
            DrawOp::FillRect {
                r: Rect::new(0, -50, 100, 10),
                color: Color::BLACK,
                rop: RasterOp::Copy,
            },
        )];
        let mut fb = Framebuffer::new(100, 100, Color::WHITE);
        assert_eq!(replay_parallel(&mut fb, &cmds, 4), 0);
        assert_eq!(fb.count_pixels(fb.bounds(), Color::BLACK), 0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = PaintStats {
            flushes: 1,
            bands: 4,
            par_us: 10,
            serial_fallbacks: 0,
        };
        a.merge(PaintStats {
            flushes: 2,
            bands: 8,
            par_us: 5,
            serial_fallbacks: 1,
        });
        assert_eq!(
            a,
            PaintStats {
                flushes: 3,
                bands: 12,
                par_us: 15,
                serial_fallbacks: 1,
            }
        );
    }
}
