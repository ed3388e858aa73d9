//! The six porting classes (paper §8), as Rust traits.
//!
//! To bring the toolkit up on a new window system, implement
//! [`WindowSystem`], [`Window`], [`Graphic`], and [`OffscreenWindow`]
//! (plus the cursor and font-driver hooks those traits carry). The
//! [`surface`](crate::surface) module records the exact routine list and
//! its size.

use atk_graphics::{
    Color, FontDesc, FontMetrics, Framebuffer, Point, RasterOp, Rect, Region, Size,
};

use crate::event::WindowEvent;

/// Stock cursor shapes (paper §8: "this class provides an interface to
/// defining cursors on the underlying window system").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CursorShape {
    /// The default pointer.
    #[default]
    Arrow,
    /// Text insertion bar.
    IBeam,
    /// Precision crosshair (drawing editor).
    Crosshair,
    /// Busy indicator (dynamic loading in progress!).
    Wait,
    /// Horizontal drag (the frame's divider line).
    HorizontalDrag,
    /// Vertical drag.
    VerticalDrag,
    /// Link/hand pointer (help system references).
    Hand,
}

/// A backend-defined cursor, returned by [`WindowSystem::define_cursor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CursorHandle {
    /// The shape this handle was defined with.
    pub shape: CursorShape,
    /// Backend-assigned identifier.
    pub id: u32,
}

/// Font resolution service; both bundled backends rasterize through the
/// shared [`atk_graphics::BitmapFont`], but a port to a real server would map
/// [`FontDesc`]s to server fonts here.
pub trait FontDriver {
    /// Metrics for a descriptor.
    fn metrics(&self, desc: &FontDesc) -> FontMetrics;
    /// Advance width of `s` in the described font.
    fn string_width(&self, desc: &FontDesc, s: &str) -> i32;
    /// Advance width of a single character.
    fn char_width(&self, desc: &FontDesc, ch: char) -> i32;
}

/// The default font driver over the built-in bitmap font.
#[derive(Debug, Default, Clone, Copy)]
pub struct BuiltinFontDriver;

impl FontDriver for BuiltinFontDriver {
    fn metrics(&self, desc: &FontDesc) -> FontMetrics {
        desc.metrics()
    }
    fn string_width(&self, desc: &FontDesc, s: &str) -> i32 {
        desc.string_width(s)
    }
    fn char_width(&self, desc: &FontDesc, ch: char) -> i32 {
        desc.char_width(ch)
    }
}

/// Class 1 of 6 — the handle on everything else.
///
/// "This class exists to allow the toolkit to get a handle on the other
/// window system classes."
pub trait WindowSystem {
    /// Backend name (`"x11sim"` or `"awmsim"`).
    fn name(&self) -> &str;
    /// Opens a top-level window.
    fn open_window(&mut self, title: &str, size: Size) -> Box<dyn Window>;
    /// Opens an off-screen drawable.
    fn open_offscreen(&mut self, size: Size) -> Box<dyn OffscreenWindow>;
    /// Defines a cursor for later use with [`Window::set_cursor`].
    fn define_cursor(&mut self, shape: CursorShape) -> CursorHandle;
    /// The backend's font service.
    fn font_driver(&self) -> &dyn FontDriver;
}

/// Class 2 of 6 — a top-level window: event source and drawable owner.
///
/// This is the window-system half of the paper's *interaction manager*:
/// it yields translated input events and owns the [`Graphic`] the view
/// tree draws through.
pub trait Window {
    /// Current size.
    fn size(&self) -> Size;
    /// Resizes the window (posts a `Resize` event).
    fn resize(&mut self, size: Size);
    /// Window title.
    fn title(&self) -> &str;
    /// Changes the title bar.
    fn set_title(&mut self, title: &str);
    /// The drawable for this window.
    fn graphic(&mut self) -> &mut dyn Graphic;
    /// Sets the displayed cursor.
    fn set_cursor(&mut self, cursor: CursorHandle);
    /// The displayed cursor.
    fn cursor(&self) -> CursorHandle;
    /// Injects an event (synthetic input, used by scripts and tests).
    fn post_event(&mut self, event: WindowEvent);
    /// Dequeues the next pending event.
    fn next_event(&mut self) -> Option<WindowEvent>;
    /// Number of drawing operations performed (instrumentation for the
    /// window-system-independence benchmarks).
    fn op_count(&self) -> u64;

    /// Runs `f` once over the current frame's pixels. A backend that
    /// keeps a pixel store lends it without cloning; a display-list
    /// backend first replays the ops it recorded since the last call
    /// onto the frame it keeps, and lends that.
    fn with_frame(&self, f: &mut dyn FnMut(&Framebuffer));

    /// Takes the device-space bounds of every pixel written since the
    /// last call, leaving them empty. Every frame pixel that changed
    /// since the last call lies inside the returned rect; a resize or an
    /// adopted frame counts as the whole window. How tight the bounds
    /// are is the backend's choice: a pixel store adds each drawing
    /// call's clip bounds, a display list reports the whole window
    /// whenever it recorded anything.
    fn take_written(&mut self) -> Rect;

    /// A copy of the current frame's pixels.
    fn snapshot(&self) -> Framebuffer {
        let mut snap = Framebuffer::new(0, 0, Color::WHITE);
        self.with_frame(&mut |fb| snap = fb.clone());
        snap
    }

    /// Replaces the window's contents with `frame` wholesale — the
    /// session-fork fast path. `frame` must match the window's size.
    /// Backends that own a pixel store share `frame`'s bands (no pixel
    /// is copied until the fork draws); this default falls back to one
    /// blit through the drawable, which is a single recorded op for
    /// display-list backends.
    fn adopt_frame(&mut self, frame: &Framebuffer) {
        let g = self.graphic();
        g.bitblt(frame, frame.bounds(), Point::ORIGIN);
        g.flush();
    }
}

/// Class 6 of 6 — an off-screen drawable whose contents "can be later
/// included on screen".
pub trait OffscreenWindow {
    /// Size of the off-screen plane.
    fn size(&self) -> Size;
    /// The drawable for rendering into the plane.
    fn graphic(&mut self) -> &mut dyn Graphic;
    /// The rendered bits.
    fn bits(&self) -> Framebuffer;
}

/// Classes 3–5 of 6 — the drawable: the output interface every view draws
/// through (paper §4).
///
/// "A drawable contains information about the underlying graphics medium
/// … the window to draw in, the location of the drawable in that window,
/// a small graphics state (e.g. current point, line thickness, current
/// font), the coordinate system for the drawable."
///
/// Methods with default bodies are the derived conveniences the toolkit
/// layered over the primitive set; a port only implements the primitives.
pub trait Graphic {
    // --- Graphics state -------------------------------------------------

    /// Sets the drawing (foreground) color.
    fn set_foreground(&mut self, color: Color);
    /// Current foreground color.
    fn foreground(&self) -> Color;
    /// Sets the background color (used by [`Graphic::clear_rect`]).
    fn set_background(&mut self, color: Color);
    /// Current background color.
    fn background(&self) -> Color;
    /// Sets the pen thickness for line drawing.
    fn set_line_width(&mut self, width: i32);
    /// Current pen thickness.
    fn line_width(&self) -> i32;
    /// Sets the current font.
    fn set_font(&mut self, font: FontDesc);
    /// Current font.
    fn font(&self) -> &FontDesc;
    /// Sets the transfer (raster) op for subsequent painting.
    fn set_raster_op(&mut self, op: RasterOp);
    /// Current transfer op.
    fn raster_op(&self) -> RasterOp;

    // --- Coordinate system and clipping ----------------------------------

    /// Pushes the coordinate/clip/graphics state.
    fn gsave(&mut self);
    /// Pops the state pushed by the matching [`Graphic::gsave`].
    fn grestore(&mut self);
    /// Moves the local origin by `(dx, dy)`.
    fn translate(&mut self, dx: i32, dy: i32);
    /// Intersects the clip with `r` (local coordinates).
    fn clip_rect(&mut self, r: Rect);
    /// Intersects the clip with a region (local coordinates).
    fn clip_region(&mut self, region: &Region);
    /// Bounding box of the current clip, in local coordinates.
    fn clip_bounds(&self) -> Rect;

    // --- Pen ------------------------------------------------------------

    /// Sets the current point.
    fn move_to(&mut self, p: Point);
    /// Draws from the current point to `p` and moves there.
    fn line_to(&mut self, p: Point);
    /// The current point.
    fn current_point(&self) -> Point;

    // --- Primitives -----------------------------------------------------

    /// Draws a line segment with the current pen.
    fn draw_line(&mut self, a: Point, b: Point);
    /// Outlines a rectangle.
    fn draw_rect(&mut self, r: Rect);
    /// Fills a rectangle with the foreground.
    fn fill_rect(&mut self, r: Rect);
    /// Fills a rectangle with the background.
    fn clear_rect(&mut self, r: Rect);
    /// Outlines the ellipse inscribed in `r`.
    fn draw_oval(&mut self, r: Rect);
    /// Fills the ellipse inscribed in `r`.
    fn fill_oval(&mut self, r: Rect);
    /// Fills a polygon (even-odd rule).
    fn fill_polygon(&mut self, pts: &[Point]);
    /// Fills a pie wedge of the ellipse in `r` from `start_deg` to
    /// `end_deg`, clockwise from 12 o'clock.
    fn fill_wedge(&mut self, r: Rect, start_deg: f64, end_deg: f64);
    /// Draws text with its top-left corner at `p` in the current font.
    fn draw_string(&mut self, p: Point, s: &str);
    /// Draws text with its baseline at `p.y`.
    fn draw_string_baseline(&mut self, p: Point, s: &str);
    /// Copies pre-rendered bits (an off-screen plane or raster image).
    fn bitblt(&mut self, bits: &Framebuffer, src: Rect, dst: Point);
    /// Copies a rectangle of the drawable onto itself (scrolling).
    fn copy_area(&mut self, src: Rect, dst: Point);
    /// Ensures all drawing has reached the medium.
    fn flush(&mut self);

    // --- Queries ---------------------------------------------------------

    /// Advance width of `s` in the current font.
    fn string_width(&self, s: &str) -> i32;
    /// Metrics of the current font.
    fn font_metrics(&self) -> FontMetrics;

    // --- Derived conveniences (default implementations) -------------------

    /// Draws `s` horizontally centered in `r`, baseline-aligned.
    fn draw_string_centered(&mut self, r: Rect, s: &str) {
        let w = self.string_width(s);
        let m = self.font_metrics();
        let x = r.x + (r.width - w) / 2;
        let y = r.y + (r.height - m.ascent - m.descent) / 2 + m.ascent;
        self.draw_string_baseline(Point::new(x, y), s);
    }

    /// Draws `s` right-aligned against `r`'s right edge.
    fn draw_string_right(&mut self, r: Rect, s: &str) {
        let w = self.string_width(s);
        let m = self.font_metrics();
        let y = r.y + (r.height - m.ascent - m.descent) / 2 + m.ascent;
        self.draw_string_baseline(Point::new(r.right() - w - 2, y), s);
    }

    /// Outlines `r` with a double line, the classic Andrew border.
    fn draw_border(&mut self, r: Rect) {
        self.draw_rect(r);
        self.draw_rect(r.inset(2));
    }

    /// Draws a raised or sunken 3D bezel (buttons, scrollbar thumbs).
    fn draw_bezel(&mut self, r: Rect, raised: bool) {
        let saved = self.foreground();
        let (tl, br) = if raised {
            (Color::WHITE, Color::DARK_GRAY)
        } else {
            (Color::DARK_GRAY, Color::WHITE)
        };
        self.set_foreground(tl);
        self.draw_line(Point::new(r.x, r.bottom() - 1), Point::new(r.x, r.y));
        self.draw_line(Point::new(r.x, r.y), Point::new(r.right() - 1, r.y));
        self.set_foreground(br);
        self.draw_line(
            Point::new(r.right() - 1, r.y + 1),
            Point::new(r.right() - 1, r.bottom() - 1),
        );
        self.draw_line(
            Point::new(r.x + 1, r.bottom() - 1),
            Point::new(r.right() - 1, r.bottom() - 1),
        );
        self.set_foreground(saved);
    }

    /// Inverts a rectangle (XOR with white) — selection feedback.
    fn invert_rect(&mut self, r: Rect) {
        let saved_op = self.raster_op();
        let saved_fg = self.foreground();
        self.set_raster_op(RasterOp::Xor);
        self.set_foreground(Color::WHITE);
        self.fill_rect(r);
        self.set_raster_op(saved_op);
        self.set_foreground(saved_fg);
    }

    /// Draws a dashed horizontal line (the frame's divider).
    fn draw_hline_dashed(&mut self, y: i32, x0: i32, x1: i32, dash: i32) {
        let dash = dash.max(1);
        let mut x = x0;
        while x < x1 {
            let seg_end = (x + dash).min(x1);
            self.draw_line(Point::new(x, y), Point::new(seg_end - 1, y));
            x += 2 * dash;
        }
    }
}

/// Shared bookkeeping for [`Graphic`] implementations: the coordinate
/// origin, the clip (kept in *device* coordinates), and the small graphics
/// state, with a save/restore stack.
///
/// Both bundled backends embed one of these so their ~50 primitive
/// methods really are "simple transformations" as the paper promises.
#[derive(Debug, Clone)]
pub struct GraphicState {
    /// Local-to-device translation.
    pub origin: Point,
    /// Clip in device coordinates (`None` = whole drawable).
    pub clip: Option<Region>,
    /// Foreground color.
    pub fg: Color,
    /// Background color.
    pub bg: Color,
    /// Pen thickness.
    pub line_width: i32,
    /// Current font.
    pub font: FontDesc,
    /// Transfer op.
    pub rop: RasterOp,
    /// Pen position (local coordinates).
    pub pen: Point,
    stack: Vec<SavedState>,
}

#[derive(Debug, Clone)]
struct SavedState {
    origin: Point,
    clip: Option<Region>,
    fg: Color,
    bg: Color,
    line_width: i32,
    font: FontDesc,
    rop: RasterOp,
    pen: Point,
}

impl GraphicState {
    /// A fresh state: origin at the device origin, no clip, black on
    /// white, hairline pen, default body font.
    pub fn new() -> GraphicState {
        GraphicState {
            origin: Point::ORIGIN,
            clip: None,
            fg: Color::BLACK,
            bg: Color::WHITE,
            line_width: 1,
            font: FontDesc::default_body(),
            rop: RasterOp::Copy,
            pen: Point::ORIGIN,
            stack: Vec::new(),
        }
    }

    /// Converts a local point to device coordinates.
    pub fn to_device(&self, p: Point) -> Point {
        p + self.origin
    }

    /// Converts a local rect to device coordinates.
    pub fn rect_to_device(&self, r: Rect) -> Rect {
        r.translate(self.origin.x, self.origin.y)
    }

    /// Pushes the full state.
    pub fn save(&mut self) {
        self.stack.push(SavedState {
            origin: self.origin,
            clip: self.clip.clone(),
            fg: self.fg,
            bg: self.bg,
            line_width: self.line_width,
            font: self.font.clone(),
            rop: self.rop,
            pen: self.pen,
        });
    }

    /// Pops the most recent save; does nothing on an empty stack.
    pub fn restore(&mut self) {
        if let Some(s) = self.stack.pop() {
            self.origin = s.origin;
            self.clip = s.clip;
            self.fg = s.fg;
            self.bg = s.bg;
            self.line_width = s.line_width;
            self.font = s.font;
            self.rop = s.rop;
            self.pen = s.pen;
        }
    }

    /// Moves the local origin.
    pub fn translate(&mut self, dx: i32, dy: i32) {
        self.origin += Point::new(dx, dy);
    }

    /// Intersects the clip with a local-coordinate rect.
    pub fn clip_rect(&mut self, r: Rect) {
        let dev = Region::from_rect(self.rect_to_device(r));
        self.clip = Some(match self.clip.take() {
            Some(c) => c.intersect(&dev),
            None => dev,
        });
    }

    /// Intersects the clip with a local-coordinate region.
    pub fn clip_region(&mut self, region: &Region) {
        let dev = region.translate(self.origin.x, self.origin.y);
        self.clip = Some(match self.clip.take() {
            Some(c) => c.intersect(&dev),
            None => dev,
        });
    }

    /// Bounding box of the clip in local coordinates (or `whole` if no
    /// clip is set).
    pub fn clip_bounds_local(&self, whole: Rect) -> Rect {
        match &self.clip {
            Some(region) => region
                .bounding_box()
                .translate(-self.origin.x, -self.origin.y),
            None => whole.translate(-self.origin.x, -self.origin.y),
        }
    }
}

impl Default for GraphicState {
    fn default() -> Self {
        GraphicState::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_restore_round_trips_everything() {
        let mut st = GraphicState::new();
        st.save();
        st.translate(10, 20);
        st.fg = Color::RED;
        st.line_width = 5;
        st.clip_rect(Rect::new(0, 0, 4, 4));
        st.pen = Point::new(7, 7);
        st.restore();
        assert_eq!(st.origin, Point::ORIGIN);
        assert_eq!(st.fg, Color::BLACK);
        assert_eq!(st.line_width, 1);
        assert!(st.clip.is_none());
        assert_eq!(st.pen, Point::ORIGIN);
    }

    #[test]
    fn nested_translate_compounds() {
        let mut st = GraphicState::new();
        st.translate(5, 5);
        st.save();
        st.translate(10, 0);
        assert_eq!(st.to_device(Point::ORIGIN), Point::new(15, 5));
        st.restore();
        assert_eq!(st.to_device(Point::ORIGIN), Point::new(5, 5));
    }

    #[test]
    fn clip_intersects_in_device_space() {
        let mut st = GraphicState::new();
        st.clip_rect(Rect::new(0, 0, 10, 10));
        st.translate(5, 5);
        st.clip_rect(Rect::new(0, 0, 10, 10)); // Device: 5,5,10,10.
        let clip = st.clip.clone().unwrap();
        assert_eq!(clip.bounding_box(), Rect::new(5, 5, 5, 5));
        assert_eq!(
            st.clip_bounds_local(Rect::new(0, 0, 100, 100)),
            Rect::new(0, 0, 5, 5)
        );
    }

    #[test]
    fn restore_on_empty_stack_is_noop() {
        let mut st = GraphicState::new();
        st.translate(3, 3);
        st.restore();
        assert_eq!(st.origin, Point::new(3, 3));
    }
}
