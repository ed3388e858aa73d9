//! `x11sim`: the immediate-mode simulated window system.
//!
//! Stands in for the X.11 server of paper §8. Every drawing operation is
//! rasterized immediately into a per-window [`Framebuffer`]; snapshots are
//! therefore free. Input is a synthetic event queue filled by
//! [`Window::post_event`] — the scripted equivalent of a user at the
//! display.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use atk_graphics::{
    BitmapFont, Color, FontDesc, FontMetrics, Framebuffer, Point, RasterOp, Rect, Region, Size,
};

use crate::event::WindowEvent;
use crate::traits::{
    BuiltinFontDriver, CursorHandle, CursorShape, FontDriver, Graphic, GraphicState,
    OffscreenWindow, Window, WindowSystem, Written,
};

/// The simulated X.11 window system.
#[derive(Debug, Default)]
pub struct X11Sim {
    fonts: BuiltinFontDriver,
    next_cursor: u32,
    windows_opened: u32,
}

impl X11Sim {
    /// Creates the backend.
    pub fn new() -> X11Sim {
        X11Sim::default()
    }

    /// Number of windows opened so far (instrumentation).
    pub fn windows_opened(&self) -> u32 {
        self.windows_opened
    }
}

impl WindowSystem for X11Sim {
    fn name(&self) -> &str {
        "x11sim"
    }

    fn open_window(&mut self, title: &str, size: Size) -> Box<dyn Window> {
        self.windows_opened += 1;
        let frame = Framebuffer::new(size.width.max(0), size.height.max(0), Color::WHITE);
        let mut window = X11Window::on_frame(title, size, frame);
        // A fresh window is born exposed, as under a real server.
        window
            .events
            .push_back(WindowEvent::Expose(Rect::at(Point::ORIGIN, size)));
        Box::new(window)
    }

    fn open_window_on(&mut self, title: &str, frame: &Framebuffer) -> Box<dyn Window> {
        self.windows_opened += 1;
        let mut frame = frame.clone();
        frame.set_clip(None);
        Box::new(X11Window::on_frame(title, frame.bounds().size(), frame))
    }

    fn open_offscreen(&mut self, size: Size) -> Box<dyn OffscreenWindow> {
        Box::new(X11Offscreen::new(size))
    }

    fn define_cursor(&mut self, shape: CursorShape) -> CursorHandle {
        self.next_cursor += 1;
        CursorHandle {
            shape,
            id: self.next_cursor,
        }
    }

    fn font_driver(&self) -> &dyn FontDriver {
        &self.fonts
    }
}

/// A simulated X window: a framebuffer plus an event queue.
pub struct X11Window {
    title: String,
    size: Size,
    fb: Rc<RefCell<Framebuffer>>,
    graphic: X11Graphic,
    events: VecDeque<WindowEvent>,
    cursor: CursorHandle,
}

impl X11Window {
    /// A window of `size` showing `frame`, with no event queued.
    fn on_frame(title: &str, size: Size, frame: Framebuffer) -> X11Window {
        let fb = Rc::new(RefCell::new(frame));
        let graphic = X11Graphic::new(fb.clone());
        X11Window {
            title: title.to_string(),
            size,
            fb,
            graphic,
            events: VecDeque::new(),
            cursor: CursorHandle {
                shape: CursorShape::Arrow,
                id: 0,
            },
        }
    }
}

impl Window for X11Window {
    fn size(&self) -> Size {
        self.size
    }

    fn resize(&mut self, size: Size) {
        self.size = size;
        *self.fb.borrow_mut() =
            Framebuffer::new(size.width.max(0), size.height.max(0), Color::WHITE);
        self.events.push_back(WindowEvent::Resize(size));
        self.events
            .push_back(WindowEvent::Expose(Rect::at(Point::ORIGIN, size)));
    }

    fn title(&self) -> &str {
        &self.title
    }

    fn set_title(&mut self, title: &str) {
        self.title = title.to_string();
    }

    fn graphic(&mut self) -> &mut dyn Graphic {
        &mut self.graphic
    }

    fn set_cursor(&mut self, cursor: CursorHandle) {
        self.cursor = cursor;
    }

    fn cursor(&self) -> CursorHandle {
        self.cursor
    }

    fn post_event(&mut self, event: WindowEvent) {
        self.events.push_back(event);
    }

    fn next_event(&mut self) -> Option<WindowEvent> {
        self.events.pop_front()
    }

    fn op_count(&self) -> u64 {
        self.graphic.ops.get()
    }

    fn with_frame(&self, f: &mut dyn FnMut(&Framebuffer)) {
        f(&self.fb.borrow());
    }

    fn take_written(&mut self) -> Written {
        self.fb.borrow_mut().take_written()
    }
}

/// An off-screen pixel plane.
pub struct X11Offscreen {
    size: Size,
    fb: Rc<RefCell<Framebuffer>>,
    graphic: X11Graphic,
}

impl X11Offscreen {
    fn new(size: Size) -> X11Offscreen {
        let fb = Rc::new(RefCell::new(Framebuffer::new(
            size.width.max(0),
            size.height.max(0),
            Color::WHITE,
        )));
        let graphic = X11Graphic::new(fb.clone());
        X11Offscreen { size, fb, graphic }
    }
}

impl OffscreenWindow for X11Offscreen {
    fn size(&self) -> Size {
        self.size
    }

    fn graphic(&mut self) -> &mut dyn Graphic {
        &mut self.graphic
    }

    fn bits(&self) -> Framebuffer {
        self.fb.borrow().clone()
    }
}

/// The rasterizing drawable.
pub struct X11Graphic {
    fb: Rc<RefCell<Framebuffer>>,
    st: GraphicState,
    ops: Rc<Cell<u64>>,
    /// The state's clip as a shared region, interned by the first
    /// drawing op after the clip changes, so successive ops under one
    /// clip hand the framebuffer the same `Arc` instead of copying the
    /// rect vector per op.
    cur_clip: Option<Arc<Region>>,
    clip_dirty: bool,
}

impl X11Graphic {
    fn new(fb: Rc<RefCell<Framebuffer>>) -> X11Graphic {
        X11Graphic {
            fb,
            st: GraphicState::new(),
            ops: Rc::new(Cell::new(0)),
            cur_clip: None,
            clip_dirty: false,
        }
    }

    #[inline]
    fn tick(&self) {
        self.ops.set(self.ops.get() + 1);
    }

    /// Runs one drawing call on the framebuffer under the state's clip.
    fn with_fb<R>(&mut self, f: impl FnOnce(&mut Framebuffer) -> R) -> R {
        if self.clip_dirty {
            self.cur_clip = self.st.clip.clone().map(Arc::new);
            self.clip_dirty = false;
        }
        let mut fb = self.fb.borrow_mut();
        fb.set_clip_shared(self.cur_clip.clone());
        let r = f(&mut fb);
        fb.set_clip(None);
        r
    }
}

impl Graphic for X11Graphic {
    fn set_foreground(&mut self, color: Color) {
        self.st.fg = color;
    }
    fn foreground(&self) -> Color {
        self.st.fg
    }
    fn set_background(&mut self, color: Color) {
        self.st.bg = color;
    }
    fn background(&self) -> Color {
        self.st.bg
    }
    fn set_line_width(&mut self, width: i32) {
        self.st.line_width = width.max(1);
    }
    fn line_width(&self) -> i32 {
        self.st.line_width
    }
    fn set_font(&mut self, font: FontDesc) {
        self.st.font = font;
    }
    fn font(&self) -> &FontDesc {
        &self.st.font
    }
    fn set_raster_op(&mut self, op: RasterOp) {
        self.st.rop = op;
    }
    fn raster_op(&self) -> RasterOp {
        self.st.rop
    }

    fn gsave(&mut self) {
        self.st.save();
    }
    fn grestore(&mut self) {
        self.st.restore();
        self.clip_dirty = true;
    }
    fn translate(&mut self, dx: i32, dy: i32) {
        self.st.translate(dx, dy);
    }
    fn clip_rect(&mut self, r: Rect) {
        self.st.clip_rect(r);
        self.clip_dirty = true;
    }
    fn clip_region(&mut self, region: &Region) {
        self.st.clip_region(region);
        self.clip_dirty = true;
    }
    fn clip_bounds(&self) -> Rect {
        let whole = self.fb.borrow().bounds();
        self.st.clip_bounds_local(whole)
    }
    fn clip_touches(&self, r: Rect) -> bool {
        self.st.clip_touches_local(r)
    }

    fn move_to(&mut self, p: Point) {
        self.st.pen = p;
    }
    fn line_to(&mut self, p: Point) {
        let from = self.st.pen;
        self.draw_line(from, p);
        self.st.pen = p;
    }
    fn current_point(&self) -> Point {
        self.st.pen
    }

    fn draw_line(&mut self, a: Point, b: Point) {
        self.tick();
        let (da, db) = (self.st.to_device(a), self.st.to_device(b));
        let (w, fg) = (self.st.line_width, self.st.fg);
        self.with_fb(|fb| fb.draw_line(da, db, w, fg));
    }

    fn draw_rect(&mut self, r: Rect) {
        self.tick();
        let dr = self.st.rect_to_device(r);
        let fg = self.st.fg;
        self.with_fb(|fb| fb.draw_rect(dr, fg));
    }

    fn fill_rect(&mut self, r: Rect) {
        self.tick();
        let dr = self.st.rect_to_device(r);
        let (fg, rop) = (self.st.fg, self.st.rop);
        self.with_fb(|fb| fb.fill_rect_op(dr, fg, rop));
    }

    fn clear_rect(&mut self, r: Rect) {
        self.tick();
        let dr = self.st.rect_to_device(r);
        let bg = self.st.bg;
        self.with_fb(|fb| fb.fill_rect(dr, bg));
    }

    fn draw_oval(&mut self, r: Rect) {
        self.tick();
        let dr = self.st.rect_to_device(r);
        let fg = self.st.fg;
        self.with_fb(|fb| fb.draw_oval(dr, fg));
    }

    fn fill_oval(&mut self, r: Rect) {
        self.tick();
        let dr = self.st.rect_to_device(r);
        let fg = self.st.fg;
        self.with_fb(|fb| fb.fill_oval(dr, fg));
    }

    fn fill_polygon(&mut self, pts: &[Point]) {
        self.tick();
        let dev: Vec<Point> = pts.iter().map(|p| self.st.to_device(*p)).collect();
        let fg = self.st.fg;
        self.with_fb(|fb| fb.fill_polygon(&dev, fg));
    }

    fn fill_wedge(&mut self, r: Rect, start_deg: f64, end_deg: f64) {
        self.tick();
        let dr = self.st.rect_to_device(r);
        let fg = self.st.fg;
        self.with_fb(|fb| fb.fill_wedge(dr, start_deg, end_deg, fg));
    }

    fn draw_string(&mut self, p: Point, s: &str) {
        self.tick();
        let dp = self.st.to_device(p);
        let (font, fg) = (self.st.font.clone(), self.st.fg);
        self.with_fb(|fb| {
            BitmapFont::draw(fb, dp, s, &font, fg);
        });
    }

    fn draw_string_baseline(&mut self, p: Point, s: &str) {
        self.tick();
        let dp = self.st.to_device(p);
        let (font, fg) = (self.st.font.clone(), self.st.fg);
        self.with_fb(|fb| {
            BitmapFont::draw_baseline(fb, dp, s, &font, fg);
        });
    }

    fn bitblt(&mut self, bits: &Framebuffer, src: Rect, dst: Point) {
        self.tick();
        let ddst = self.st.to_device(dst);
        let rop = self.st.rop;
        self.with_fb(|fb| fb.blit(bits, src, ddst, rop));
    }

    fn copy_area(&mut self, src: Rect, dst: Point) {
        self.tick();
        let (src, dst) = (self.st.rect_to_device(src), self.st.to_device(dst));
        self.with_fb(|fb| fb.copy_within(src, dst));
    }

    fn flush(&mut self) {
        // Immediate mode: every op is already in the framebuffer.
    }

    fn string_width(&self, s: &str) -> i32 {
        self.st.font.string_width(s)
    }

    fn font_metrics(&self) -> FontMetrics {
        self.st.font.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> Box<dyn Window> {
        let mut ws = X11Sim::new();
        ws.open_window("test", Size::new(100, 80))
    }

    #[test]
    fn fresh_window_gets_expose_event() {
        let mut w = window();
        assert_eq!(
            w.next_event(),
            Some(WindowEvent::Expose(Rect::new(0, 0, 100, 80)))
        );
        assert_eq!(w.next_event(), None);
    }

    #[test]
    fn drawing_lands_in_snapshot() {
        let mut w = window();
        w.graphic().fill_rect(Rect::new(10, 10, 5, 5));
        let snap = w.snapshot();
        assert_eq!(snap.count_pixels(Rect::new(10, 10, 5, 5), Color::BLACK), 25);
        assert_eq!(w.op_count(), 1);
    }

    #[test]
    fn translate_offsets_drawing() {
        let mut w = window();
        let g = w.graphic();
        g.gsave();
        g.translate(20, 30);
        g.fill_rect(Rect::new(0, 0, 2, 2));
        g.grestore();
        g.fill_rect(Rect::new(0, 0, 2, 2));
        let snap = w.snapshot();
        assert_eq!(snap.count_pixels(Rect::new(20, 30, 2, 2), Color::BLACK), 4);
        assert_eq!(snap.count_pixels(Rect::new(0, 0, 2, 2), Color::BLACK), 4);
    }

    #[test]
    fn clip_confines_drawing() {
        let mut w = window();
        let g = w.graphic();
        g.gsave();
        g.clip_rect(Rect::new(0, 0, 10, 10));
        g.fill_rect(Rect::new(0, 0, 100, 100));
        g.grestore();
        let snap = w.snapshot();
        assert_eq!(snap.count_pixels(snap.bounds(), Color::BLACK), 100);
    }

    #[test]
    fn nested_clip_and_translate_interact_correctly() {
        let mut w = window();
        let g = w.graphic();
        g.clip_rect(Rect::new(0, 0, 50, 50));
        g.translate(40, 40);
        // Local (0,0,20,20) is device (40,40,20,20); clip leaves 10x10.
        g.fill_rect(Rect::new(0, 0, 20, 20));
        let snap = w.snapshot();
        assert_eq!(snap.count_pixels(snap.bounds(), Color::BLACK), 100);
    }

    #[test]
    fn pen_tracks_line_to() {
        let mut w = window();
        let g = w.graphic();
        g.move_to(Point::new(5, 5));
        g.line_to(Point::new(10, 5));
        assert_eq!(g.current_point(), Point::new(10, 5));
        let snap = w.snapshot();
        assert_eq!(snap.count_pixels(Rect::new(5, 5, 6, 1), Color::BLACK), 6);
    }

    #[test]
    fn clear_rect_uses_background() {
        let mut w = window();
        let g = w.graphic();
        g.fill_rect(Rect::new(0, 0, 20, 20));
        g.set_background(Color::WHITE);
        g.clear_rect(Rect::new(5, 5, 5, 5));
        let snap = w.snapshot();
        assert_eq!(snap.count_pixels(Rect::new(5, 5, 5, 5), Color::WHITE), 25);
    }

    #[test]
    fn offscreen_bits_can_be_blitted_in() {
        let mut ws = X11Sim::new();
        let mut off = ws.open_offscreen(Size::new(10, 10));
        off.graphic().fill_rect(Rect::new(0, 0, 10, 10));
        let bits = off.bits();
        let mut w = ws.open_window("t", Size::new(40, 40));
        w.graphic()
            .bitblt(&bits, Rect::new(0, 0, 10, 10), Point::new(15, 15));
        let snap = w.snapshot();
        assert_eq!(
            snap.count_pixels(Rect::new(15, 15, 10, 10), Color::BLACK),
            100
        );
    }

    #[test]
    fn copy_area_scrolls_content() {
        let mut w = window();
        w.graphic().fill_rect(Rect::new(0, 0, 100, 10));
        w.graphic()
            .copy_area(Rect::new(0, 0, 100, 10), Point::new(0, 40));
        let snap = w.snapshot();
        assert_eq!(
            snap.count_pixels(Rect::new(0, 40, 100, 10), Color::BLACK),
            1000
        );
    }

    #[test]
    fn resize_clears_and_reexposes() {
        let mut w = window();
        let _ = w.next_event();
        w.graphic().fill_rect(Rect::new(0, 0, 10, 10));
        w.resize(Size::new(50, 50));
        assert_eq!(w.next_event(), Some(WindowEvent::Resize(Size::new(50, 50))));
        assert!(matches!(w.next_event(), Some(WindowEvent::Expose(_))));
        let snap = w.snapshot();
        assert_eq!(snap.count_pixels(snap.bounds(), Color::BLACK), 0);
    }

    #[test]
    fn invert_rect_is_self_inverse_through_trait() {
        let mut w = window();
        w.graphic().fill_rect(Rect::new(0, 0, 10, 20));
        let before = w.snapshot();
        w.graphic().invert_rect(Rect::new(5, 5, 10, 10));
        assert_ne!(w.snapshot(), before);
        w.graphic().invert_rect(Rect::new(5, 5, 10, 10));
        assert_eq!(w.snapshot(), before);
    }

    /// The address of the region the framebuffer clips a drawing call
    /// to, if any.
    fn fb_clip(g: &mut X11Graphic) -> Option<*const Region> {
        g.with_fb(|fb| fb.clip().map(|r| r as *const Region))
    }

    #[test]
    fn ops_under_one_clip_share_one_interned_region() {
        let mut w = X11Window::on_frame(
            "t",
            Size::new(100, 80),
            Framebuffer::new(100, 80, Color::WHITE),
        );
        let g = &mut w.graphic;
        assert_eq!(fb_clip(g), None);
        g.gsave();
        g.clip_rect(Rect::new(0, 0, 50, 40));
        g.fill_rect(Rect::new(0, 0, 100, 80));
        let outer = g.cur_clip.clone().expect("interned by the first op");
        g.draw_line(Point::new(0, 0), Point::new(99, 79));
        g.draw_string(Point::new(2, 2), "same clip");
        assert!(Arc::ptr_eq(&outer, g.cur_clip.as_ref().unwrap()));
        assert_eq!(fb_clip(g), Some(Arc::as_ptr(&outer)));

        // Narrowing the clip interns a new region on the next op.
        g.gsave();
        g.clip_rect(Rect::new(10, 10, 5, 5));
        g.set_foreground(Color::RED);
        g.fill_rect(Rect::new(0, 0, 100, 80));
        let inner = g.cur_clip.clone().unwrap();
        assert!(!Arc::ptr_eq(&outer, &inner));
        assert_eq!(*inner, Region::from_rect(Rect::new(10, 10, 5, 5)));
        assert_eq!(fb_clip(g), Some(Arc::as_ptr(&inner)));

        // So does a clip region, even one that leaves the clip as it was.
        g.clip_region(&Region::from_rect(Rect::new(0, 0, 100, 80)));
        g.fill_rect(Rect::new(0, 0, 100, 80));
        let same = g.cur_clip.clone().unwrap();
        assert!(!Arc::ptr_eq(&inner, &same));
        assert_eq!(*same, *inner);

        // grestore brings the outer clip back as a fresh region, and
        // drawing lands under it.
        g.grestore();
        g.set_foreground(Color::BLUE);
        g.fill_rect(Rect::new(40, 30, 20, 20));
        let restored = g.cur_clip.clone().unwrap();
        assert!(!Arc::ptr_eq(&restored, &inner) && !Arc::ptr_eq(&restored, &outer));
        assert_eq!(*restored, *outer);

        // The last grestore leaves no clip at all.
        g.grestore();
        g.set_foreground(Color::BLUE);
        g.fill_rect(Rect::new(90, 70, 5, 5));
        assert_eq!(g.cur_clip, None);
        assert_eq!(fb_clip(g), None);

        let snap = w.snapshot();
        assert_eq!(snap.count_pixels(snap.bounds(), Color::RED), 25);
        assert_eq!(snap.count_pixels(Rect::new(10, 10, 5, 5), Color::RED), 25);
        assert_eq!(
            snap.count_pixels(Rect::new(40, 30, 10, 10), Color::BLUE),
            100
        );
        assert_eq!(snap.count_pixels(Rect::new(90, 70, 5, 5), Color::BLUE), 25);
        assert_eq!(snap.count_pixels(snap.bounds(), Color::BLUE), 125);
        assert_eq!(
            snap.count_pixels(Rect::new(50, 0, 50, 70), Color::WHITE),
            3500
        );
    }

    #[test]
    fn with_frame_borrows_without_cloning() {
        let mut ws = X11Sim::new();
        let mut w = ws.open_window("t", Size::new(100, 80));
        w.graphic().fill_rect(Rect::new(0, 0, 3, 3));
        let mut seen = 0usize;
        let mut calls = 0;
        w.with_frame(&mut |fb| {
            seen = fb.count_pixels(Rect::new(0, 0, 3, 3), Color::BLACK);
            calls += 1;
        });
        assert_eq!((calls, seen), (1, 9));
    }

    #[test]
    fn cursor_definition_and_assignment() {
        let mut ws = X11Sim::new();
        let c = ws.define_cursor(CursorShape::IBeam);
        let mut w = ws.open_window("t", Size::new(10, 10));
        w.set_cursor(c);
        assert_eq!(w.cursor().shape, CursorShape::IBeam);
    }
}
