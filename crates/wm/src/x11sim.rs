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
use std::time::Instant;

use atk_graphics::{
    BitmapFont, Color, FontDesc, FontMetrics, Framebuffer, Point, RasterOp, Rect, Region, Size,
};

use crate::event::WindowEvent;
use crate::paint::{replay_parallel, DrawOp, PaintCmd, PaintStats};
use crate::traits::{
    BuiltinFontDriver, CursorHandle, CursorShape, FontDriver, Graphic, GraphicState,
    OffscreenWindow, Window, WindowSystem,
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
        Box::new(X11Window::new(title, size))
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
    fn new(title: &str, size: Size) -> X11Window {
        let fb = Rc::new(RefCell::new(Framebuffer::new(
            size.width.max(0),
            size.height.max(0),
            Color::WHITE,
        )));
        let graphic = X11Graphic::new(fb.clone());
        let mut events = VecDeque::new();
        // A fresh window is born exposed, as under a real server.
        events.push_back(WindowEvent::Expose(Rect::at(Point::ORIGIN, size)));
        X11Window {
            title: title.to_string(),
            size,
            fb,
            graphic,
            events,
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

    fn snapshot(&self) -> Option<Framebuffer> {
        self.graphic.flush_pending();
        Some(self.fb.borrow().clone())
    }

    fn op_count(&self) -> u64 {
        self.graphic.ops.get()
    }

    fn set_paint_threads(&mut self, threads: usize) {
        self.graphic.set_threads(threads);
    }

    fn paint_threads(&self) -> usize {
        self.graphic.threads()
    }

    fn take_paint_stats(&mut self) -> PaintStats {
        self.graphic.take_stats()
    }

    fn with_frame(&self, f: &mut dyn FnMut(&Framebuffer)) -> bool {
        self.graphic.flush_pending();
        f(&self.fb.borrow());
        true
    }

    fn adopt_frame(&mut self, frame: &Framebuffer) {
        // Flush first so no buffered command lands on top of the
        // adopted pixels, then row-copy into the buffer open_window
        // already allocated (and just warmed with its white fill) —
        // no per-pixel walk, no second allocation per fork.
        self.graphic.flush_pending();
        let mut fb = self.fb.borrow_mut();
        fb.set_clip(None);
        if fb.width() == frame.width() && fb.height() == frame.height() {
            fb.blit(frame, frame.bounds(), Point::ORIGIN, RasterOp::Copy);
        } else {
            *fb = frame.clone();
            fb.set_clip(None);
        }
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
        self.graphic.flush_pending();
        self.fb.borrow().clone()
    }
}

/// Buffered state for the opt-in parallel-paint mode: recorded
/// commands awaiting a banded flush, plus an interned copy of the clip
/// so successive commands under one clip share a single `Arc`.
#[derive(Default)]
struct RecState {
    /// Configured band threads; 0 or 1 means immediate serial mode.
    threads: usize,
    cmds: Vec<PaintCmd>,
    cur_clip: Option<Arc<Region>>,
    clip_dirty: bool,
    stats: PaintStats,
}

/// The rasterizing drawable.
pub struct X11Graphic {
    fb: Rc<RefCell<Framebuffer>>,
    st: GraphicState,
    ops: Rc<Cell<u64>>,
    rec: RefCell<RecState>,
}

impl X11Graphic {
    fn new(fb: Rc<RefCell<Framebuffer>>) -> X11Graphic {
        X11Graphic {
            fb,
            st: GraphicState::new(),
            ops: Rc::new(Cell::new(0)),
            rec: RefCell::new(RecState::default()),
        }
    }

    #[inline]
    fn tick(&self) {
        self.ops.set(self.ops.get() + 1);
    }

    /// Applies the state's clip to the framebuffer for the duration of a
    /// drawing call.
    fn with_fb<R>(&self, f: impl FnOnce(&mut Framebuffer) -> R) -> R {
        let mut fb = self.fb.borrow_mut();
        fb.set_clip(self.st.clip.clone());
        let r = f(&mut fb);
        fb.set_clip(None);
        r
    }

    /// True when drawing should be recorded for a banded flush rather
    /// than rasterized immediately.
    #[inline]
    fn deferring(&self) -> bool {
        self.rec.borrow().threads > 1
    }

    /// Records a command under the current clip (interned on change).
    fn record(&self, op: DrawOp) {
        let mut rec = self.rec.borrow_mut();
        if rec.clip_dirty {
            rec.cur_clip = self.st.clip.clone().map(Arc::new);
            rec.clip_dirty = false;
        }
        let clip = rec.cur_clip.clone();
        rec.cmds.push(PaintCmd::new(clip, op));
    }

    fn mark_clip_dirty(&self) {
        self.rec.borrow_mut().clip_dirty = true;
    }

    /// Replays any recorded commands into the framebuffer on banded
    /// worker threads. Callable from `&self` paths (snapshots).
    fn flush_pending(&self) {
        let mut rec = self.rec.borrow_mut();
        if rec.cmds.is_empty() {
            return;
        }
        let cmds = std::mem::take(&mut rec.cmds);
        let threads = rec.threads.max(1);
        let mut fb = self.fb.borrow_mut();
        let t0 = Instant::now();
        let bands = replay_parallel(&mut fb, &cmds, threads);
        rec.stats.par_us += t0.elapsed().as_micros() as u64;
        rec.stats.flushes += 1;
        rec.stats.bands += bands as u64;
    }

    fn set_threads(&self, threads: usize) {
        self.flush_pending();
        let mut rec = self.rec.borrow_mut();
        rec.threads = threads;
        rec.clip_dirty = true;
    }

    fn threads(&self) -> usize {
        self.rec.borrow().threads.max(1)
    }

    fn take_stats(&self) -> PaintStats {
        std::mem::take(&mut self.rec.borrow_mut().stats)
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
        self.mark_clip_dirty();
    }
    fn translate(&mut self, dx: i32, dy: i32) {
        self.st.translate(dx, dy);
    }
    fn clip_rect(&mut self, r: Rect) {
        self.st.clip_rect(r);
        self.mark_clip_dirty();
    }
    fn clip_region(&mut self, region: &Region) {
        self.st.clip_region(region);
        self.mark_clip_dirty();
    }
    fn clip_bounds(&self) -> Rect {
        let whole = self.fb.borrow().bounds();
        self.st.clip_bounds_local(whole)
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
        if self.deferring() {
            self.record(DrawOp::Line {
                a: da,
                b: db,
                width: w,
                color: fg,
            });
        } else {
            self.with_fb(|fb| fb.draw_line(da, db, w, fg));
        }
    }

    fn draw_rect(&mut self, r: Rect) {
        self.tick();
        let dr = self.st.rect_to_device(r);
        let fg = self.st.fg;
        if self.deferring() {
            self.record(DrawOp::RectOutline { r: dr, color: fg });
        } else {
            self.with_fb(|fb| fb.draw_rect(dr, fg));
        }
    }

    fn fill_rect(&mut self, r: Rect) {
        self.tick();
        let dr = self.st.rect_to_device(r);
        let (fg, rop) = (self.st.fg, self.st.rop);
        if self.deferring() {
            self.record(DrawOp::FillRect {
                r: dr,
                color: fg,
                rop,
            });
        } else {
            self.with_fb(|fb| fb.fill_rect_op(dr, fg, rop));
        }
    }

    fn clear_rect(&mut self, r: Rect) {
        self.tick();
        let dr = self.st.rect_to_device(r);
        let bg = self.st.bg;
        if self.deferring() {
            self.record(DrawOp::FillRect {
                r: dr,
                color: bg,
                rop: RasterOp::Copy,
            });
        } else {
            self.with_fb(|fb| fb.fill_rect(dr, bg));
        }
    }

    fn draw_oval(&mut self, r: Rect) {
        self.tick();
        let dr = self.st.rect_to_device(r);
        let fg = self.st.fg;
        if self.deferring() {
            self.record(DrawOp::Oval {
                r: dr,
                color: fg,
                fill: false,
            });
        } else {
            self.with_fb(|fb| fb.draw_oval(dr, fg));
        }
    }

    fn fill_oval(&mut self, r: Rect) {
        self.tick();
        let dr = self.st.rect_to_device(r);
        let fg = self.st.fg;
        if self.deferring() {
            self.record(DrawOp::Oval {
                r: dr,
                color: fg,
                fill: true,
            });
        } else {
            self.with_fb(|fb| fb.fill_oval(dr, fg));
        }
    }

    fn fill_polygon(&mut self, pts: &[Point]) {
        self.tick();
        let dev: Vec<Point> = pts.iter().map(|p| self.st.to_device(*p)).collect();
        let fg = self.st.fg;
        if self.deferring() {
            self.record(DrawOp::Polygon {
                pts: dev,
                color: fg,
            });
        } else {
            self.with_fb(|fb| fb.fill_polygon(&dev, fg));
        }
    }

    fn fill_wedge(&mut self, r: Rect, start_deg: f64, end_deg: f64) {
        self.tick();
        let dr = self.st.rect_to_device(r);
        let fg = self.st.fg;
        if self.deferring() {
            self.record(DrawOp::Wedge {
                r: dr,
                start_deg,
                end_deg,
                color: fg,
            });
        } else {
            self.with_fb(|fb| fb.fill_wedge(dr, start_deg, end_deg, fg));
        }
    }

    fn draw_string(&mut self, p: Point, s: &str) {
        self.tick();
        let dp = self.st.to_device(p);
        let (font, fg) = (self.st.font.clone(), self.st.fg);
        if self.deferring() {
            self.record(DrawOp::Text {
                origin: dp,
                text: s.to_string(),
                font,
                color: fg,
            });
        } else {
            self.with_fb(|fb| {
                BitmapFont::draw(fb, dp, s, &font, fg);
            });
        }
    }

    fn draw_string_baseline(&mut self, p: Point, s: &str) {
        self.tick();
        let dp = self.st.to_device(p);
        let (font, fg) = (self.st.font.clone(), self.st.fg);
        if self.deferring() {
            // Resolve the baseline to a top-left origin at record time;
            // BitmapFont::draw_baseline does exactly this conversion.
            let top = Point::new(dp.x, dp.y - font.metrics().ascent);
            self.record(DrawOp::Text {
                origin: top,
                text: s.to_string(),
                font,
                color: fg,
            });
        } else {
            self.with_fb(|fb| {
                BitmapFont::draw_baseline(fb, dp, s, &font, fg);
            });
        }
    }

    fn bitblt(&mut self, bits: &Framebuffer, src: Rect, dst: Point) {
        self.tick();
        let ddst = self.st.to_device(dst);
        let rop = self.st.rop;
        if self.deferring() {
            self.record(DrawOp::Blit {
                bits: Arc::new(bits.clone()),
                src,
                dst: ddst,
                rop,
            });
        } else {
            self.with_fb(|fb| fb.blit(bits, src, ddst, rop));
        }
    }

    fn copy_area(&mut self, src: Rect, dst: Point) {
        self.tick();
        let dsrc = self.st.rect_to_device(src);
        let ddst = self.st.to_device(dst);
        // A self-copy reads rows other bands may be mid-write, so it
        // cannot be banded: drain anything recorded, then run it
        // serially in order.
        if self.deferring() {
            self.flush_pending();
            self.rec.borrow_mut().stats.serial_fallbacks += 1;
        }
        self.with_fb(|fb| fb.copy_within(dsrc, ddst));
    }

    fn flush(&mut self) {
        self.flush_pending();
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
        let snap = w.snapshot().unwrap();
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
        let snap = w.snapshot().unwrap();
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
        let snap = w.snapshot().unwrap();
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
        let snap = w.snapshot().unwrap();
        assert_eq!(snap.count_pixels(snap.bounds(), Color::BLACK), 100);
    }

    #[test]
    fn pen_tracks_line_to() {
        let mut w = window();
        let g = w.graphic();
        g.move_to(Point::new(5, 5));
        g.line_to(Point::new(10, 5));
        assert_eq!(g.current_point(), Point::new(10, 5));
        let snap = w.snapshot().unwrap();
        assert_eq!(snap.count_pixels(Rect::new(5, 5, 6, 1), Color::BLACK), 6);
    }

    #[test]
    fn clear_rect_uses_background() {
        let mut w = window();
        let g = w.graphic();
        g.fill_rect(Rect::new(0, 0, 20, 20));
        g.set_background(Color::WHITE);
        g.clear_rect(Rect::new(5, 5, 5, 5));
        let snap = w.snapshot().unwrap();
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
        let snap = w.snapshot().unwrap();
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
        let snap = w.snapshot().unwrap();
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
        let snap = w.snapshot().unwrap();
        assert_eq!(snap.count_pixels(snap.bounds(), Color::BLACK), 0);
    }

    #[test]
    fn invert_rect_is_self_inverse_through_trait() {
        let mut w = window();
        w.graphic().fill_rect(Rect::new(0, 0, 10, 20));
        let before = w.snapshot().unwrap();
        w.graphic().invert_rect(Rect::new(5, 5, 10, 10));
        assert_ne!(w.snapshot().unwrap(), before);
        w.graphic().invert_rect(Rect::new(5, 5, 10, 10));
        assert_eq!(w.snapshot().unwrap(), before);
    }

    /// A scene exercising every primitive, clips, translations, a
    /// baseline string, a bitblt, and a mid-stream scroll.
    fn busy_scene(w: &mut dyn Window, bits: &Framebuffer) {
        let g = w.graphic();
        g.fill_rect(Rect::new(0, 0, 200, 160));
        g.set_foreground(Color::WHITE);
        g.gsave();
        g.translate(10, 10);
        g.clip_rect(Rect::new(0, 0, 120, 100));
        g.fill_oval(Rect::new(5, 5, 80, 60));
        g.set_foreground(Color::RED);
        g.draw_oval(Rect::new(20, 15, 60, 40));
        g.fill_wedge(Rect::new(40, 30, 50, 50), 10.0, 200.0);
        g.grestore();
        g.set_foreground(Color::BLUE);
        g.set_line_width(3);
        g.draw_line(Point::new(2, 150), Point::new(195, 8));
        g.fill_polygon(&[
            Point::new(150, 20),
            Point::new(190, 60),
            Point::new(140, 70),
        ]);
        g.set_foreground(Color::BLACK);
        g.draw_string(Point::new(8, 120), "band paint");
        g.draw_string_baseline(Point::new(90, 140), "baseline");
        g.draw_bezel(Rect::new(60, 90, 40, 20), true);
        g.invert_rect(Rect::new(30, 100, 50, 30));
        g.bitblt(bits, Rect::new(0, 0, 10, 10), Point::new(170, 120));
        g.copy_area(Rect::new(0, 0, 60, 30), Point::new(120, 100));
        g.draw_rect(Rect::new(1, 1, 198, 158));
        g.flush();
    }

    #[test]
    fn parallel_paint_is_byte_identical_to_serial() {
        let mut ws = X11Sim::new();
        let mut off = ws.open_offscreen(Size::new(10, 10));
        off.graphic().fill_rect(Rect::new(0, 0, 10, 10));
        let bits = off.bits();

        let mut serial = ws.open_window("serial", Size::new(200, 160));
        busy_scene(serial.as_mut(), &bits);
        let want = serial.snapshot().unwrap();

        for threads in [2, 4, 8] {
            let mut par = ws.open_window("par", Size::new(200, 160));
            par.set_paint_threads(threads);
            assert_eq!(par.paint_threads(), threads);
            busy_scene(par.as_mut(), &bits);
            let got = par.snapshot().unwrap();
            assert_eq!(got, want, "threads={threads}");
            let stats = par.take_paint_stats();
            assert!(stats.flushes >= 1, "expected at least one banded flush");
            assert!(stats.bands >= stats.flushes);
            // The copy_area mid-scene must have forced a serial drain.
            assert_eq!(stats.serial_fallbacks, 1);
            // Drained means drained.
            assert_eq!(par.take_paint_stats(), PaintStats::default());
        }
    }

    #[test]
    fn snapshot_flushes_pending_banded_commands() {
        let mut ws = X11Sim::new();
        let mut w = ws.open_window("t", Size::new(100, 80));
        w.set_paint_threads(4);
        w.graphic().fill_rect(Rect::new(10, 10, 5, 5));
        // No explicit flush: the snapshot itself must drain the queue.
        let snap = w.snapshot().unwrap();
        assert_eq!(snap.count_pixels(Rect::new(10, 10, 5, 5), Color::BLACK), 25);
        assert_eq!(w.take_paint_stats().flushes, 1);
    }

    #[test]
    fn with_frame_borrows_without_cloning() {
        let mut ws = X11Sim::new();
        let mut w = ws.open_window("t", Size::new(100, 80));
        w.graphic().fill_rect(Rect::new(0, 0, 3, 3));
        let mut seen = 0usize;
        let ok = w.with_frame(&mut |fb| {
            seen = fb.count_pixels(Rect::new(0, 0, 3, 3), Color::BLACK);
        });
        assert!(ok);
        assert_eq!(seen, 9);
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
