//! `awmsim`: the simulated ITC/Andrew window manager backend.
//!
//! The original Andrew window system (Gosling & Rosenthal's *network
//! window manager*) was a display server reached over a byte-stream
//! protocol. This backend models that: drawing operations are **recorded**
//! as a display list of [`DrawOp`]s (and can be encoded to and decoded
//! from a wire-format byte stream), then **replayed** to pixels on demand
//! — which is how [`crate::Window::with_frame`] lends a frame here. Like
//! a display server, each window keeps the pixels it has replayed and
//! drops the ops it replayed, as a server does not keep the wire it has
//! consumed. The replay writes through a [`Framebuffer`], whose record
//! of what was written is what [`crate::Window::take_written`] reports:
//! the backend keeps no record of its own.
//!
//! Running the same application on `x11sim` and `awmsim` and comparing
//! snapshots is how the integration tests demonstrate the paper's §8
//! claim: *"we are currently able to run applications on two different
//! window systems without any recompilation."*

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use atk_graphics::{
    BitmapFont, Color, FontDesc, FontMetrics, FontStyle, Framebuffer, Point, RasterOp, Rect,
    Region, Size,
};

use crate::event::WindowEvent;
use crate::traits::{
    BuiltinFontDriver, CursorHandle, CursorShape, FontDriver, Graphic, GraphicState,
    OffscreenWindow, Window, WindowSystem, Written,
};

/// One recorded drawing operation — an entry in the display list and a
/// message in the simulated wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum DrawOp {
    /// Set foreground color.
    SetFg(Color),
    /// Set background color.
    SetBg(Color),
    /// Set pen width.
    SetLineWidth(i32),
    /// Set current font.
    SetFont(FontDesc),
    /// Set transfer op.
    SetRop(RasterOp),
    /// Push state.
    GSave,
    /// Pop state.
    GRestore,
    /// Translate the origin.
    Translate(i32, i32),
    /// Intersect clip with a rect.
    ClipRect(Rect),
    /// Intersect clip with a region (as its banded rects).
    ClipRegion(Vec<Rect>),
    /// Line segment.
    Line(Point, Point),
    /// Rectangle outline.
    RectOutline(Rect),
    /// Filled rectangle.
    RectFill(Rect),
    /// Background-filled rectangle.
    RectClear(Rect),
    /// Ellipse outline.
    OvalOutline(Rect),
    /// Filled ellipse.
    OvalFill(Rect),
    /// Filled polygon.
    PolyFill(Vec<Point>),
    /// Filled pie wedge (angles in centidegrees for wire encoding).
    WedgeFill(Rect, i32, i32),
    /// Top-aligned string.
    Text(Point, String),
    /// Baseline-aligned string.
    TextBaseline(Point, String),
    /// Raster image copy (bits flattened row-major).
    Blit {
        /// Image width.
        width: i32,
        /// Image height.
        height: i32,
        /// Packed RGB pixels, row-major.
        pixels: Vec<u32>,
        /// Destination in local coordinates.
        dst: Point,
    },
    /// On-drawable copy (scroll).
    CopyArea(Rect, Point),
}

/// The simulated Andrew window manager.
#[derive(Debug, Default)]
pub struct AwmSim {
    fonts: BuiltinFontDriver,
    next_cursor: u32,
}

impl AwmSim {
    /// Creates the backend.
    pub fn new() -> AwmSim {
        AwmSim::default()
    }
}

impl WindowSystem for AwmSim {
    fn name(&self) -> &str {
        "awmsim"
    }

    fn open_window(&mut self, title: &str, size: Size) -> Box<dyn Window> {
        Box::new(AwmWindow::new(title, size))
    }

    fn open_window_on(&mut self, title: &str, frame: &Framebuffer) -> Box<dyn Window> {
        Box::new(AwmWindow::on_frame(title, frame.clone()))
    }

    fn open_offscreen(&mut self, size: Size) -> Box<dyn OffscreenWindow> {
        Box::new(AwmOffscreen::new(size))
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

/// A window on the simulated Andrew display server.
pub struct AwmWindow {
    title: String,
    size: Size,
    graphic: AwmGraphic,
    events: VecDeque<WindowEvent>,
    cursor: CursorHandle,
    /// What the display server shows: every op replayed so far.
    screen: RefCell<Screen>,
}

/// A window's replayed display list: its pixels and the replay state
/// the last op left.
struct Screen {
    fb: Framebuffer,
    st: GraphicState,
}

impl Screen {
    /// A screen showing `fb`, unclipped, in the initial replay state.
    fn on(mut fb: Framebuffer) -> Screen {
        fb.set_clip(None);
        Screen {
            fb,
            st: GraphicState::new(),
        }
    }

    /// Replays `ops` onto the screen and drops them.
    fn consume(&mut self, ops: &mut Vec<DrawOp>) {
        replay_from(&mut self.st, ops, &mut self.fb);
        ops.clear();
    }
}

impl AwmWindow {
    /// Creates a window directly (the window system's `open_window` is
    /// the normal path; this is public for protocol-level tests).
    pub fn new(title: &str, size: Size) -> AwmWindow {
        let frame = Framebuffer::new(size.width, size.height, Color::WHITE);
        let mut window = AwmWindow::on_frame(title, frame);
        // A fresh window is born exposed, as under a real server.
        window
            .events
            .push_back(WindowEvent::Expose(Rect::at(Point::ORIGIN, size)));
        window
    }

    /// A window showing `frame`, with no op recorded and no event
    /// queued.
    fn on_frame(title: &str, frame: Framebuffer) -> AwmWindow {
        AwmWindow {
            title: title.to_string(),
            size: frame.bounds().size(),
            graphic: AwmGraphic::new(),
            events: VecDeque::new(),
            cursor: CursorHandle {
                shape: CursorShape::Arrow,
                id: 0,
            },
            screen: RefCell::new(Screen::on(frame)),
        }
    }

    /// The ops recorded since the window last replayed its display list
    /// (what is still on its way down the network connection): lending
    /// or taking a frame consumes them.
    pub fn display_list(&self) -> Vec<DrawOp> {
        self.graphic.ops.borrow().clone()
    }
}

impl Window for AwmWindow {
    fn size(&self) -> Size {
        self.size
    }

    fn resize(&mut self, size: Size) {
        self.size = size;
        self.graphic.ops.get_mut().clear();
        *self.screen.get_mut() =
            Screen::on(Framebuffer::new(size.width, size.height, Color::WHITE));
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
        self.graphic.recorded
    }

    fn with_frame(&self, f: &mut dyn FnMut(&Framebuffer)) {
        let mut screen = self.screen.borrow_mut();
        screen.consume(&mut self.graphic.ops.borrow_mut());
        f(&screen.fb);
    }

    fn take_written(&mut self) -> Written {
        let screen = self.screen.get_mut();
        screen.consume(self.graphic.ops.get_mut());
        screen.fb.take_written()
    }
}

/// Off-screen plane on the display-list backend.
pub struct AwmOffscreen {
    size: Size,
    graphic: AwmGraphic,
}

impl AwmOffscreen {
    fn new(size: Size) -> AwmOffscreen {
        AwmOffscreen {
            size,
            graphic: AwmGraphic::new(),
        }
    }
}

impl OffscreenWindow for AwmOffscreen {
    fn size(&self) -> Size {
        self.size
    }

    fn graphic(&mut self) -> &mut dyn Graphic {
        &mut self.graphic
    }

    fn bits(&self) -> Framebuffer {
        let mut fb = Framebuffer::new(self.size.width, self.size.height, Color::WHITE);
        replay(&self.graphic.ops.borrow(), &mut fb);
        fb
    }
}

/// The recording drawable: every call appends a [`DrawOp`]; queries are
/// answered from a mirrored [`GraphicState`].
pub struct AwmGraphic {
    st: GraphicState,
    ops: RefCell<Vec<DrawOp>>,
    /// Ops recorded so far, replayed or not.
    recorded: u64,
}

impl AwmGraphic {
    fn new() -> AwmGraphic {
        AwmGraphic {
            st: GraphicState::new(),
            ops: RefCell::new(Vec::new()),
            recorded: 0,
        }
    }

    fn push(&mut self, op: DrawOp) {
        self.recorded += 1;
        self.ops.get_mut().push(op);
    }
}

impl Graphic for AwmGraphic {
    fn set_foreground(&mut self, color: Color) {
        self.st.fg = color;
        self.push(DrawOp::SetFg(color));
    }
    fn foreground(&self) -> Color {
        self.st.fg
    }
    fn set_background(&mut self, color: Color) {
        self.st.bg = color;
        self.push(DrawOp::SetBg(color));
    }
    fn background(&self) -> Color {
        self.st.bg
    }
    fn set_line_width(&mut self, width: i32) {
        self.st.line_width = width.max(1);
        self.push(DrawOp::SetLineWidth(width.max(1)));
    }
    fn line_width(&self) -> i32 {
        self.st.line_width
    }
    fn set_font(&mut self, font: FontDesc) {
        self.st.font = font.clone();
        self.push(DrawOp::SetFont(font));
    }
    fn font(&self) -> &FontDesc {
        &self.st.font
    }
    fn set_raster_op(&mut self, op: RasterOp) {
        self.st.rop = op;
        self.push(DrawOp::SetRop(op));
    }
    fn raster_op(&self) -> RasterOp {
        self.st.rop
    }

    fn gsave(&mut self) {
        self.st.save();
        self.push(DrawOp::GSave);
    }
    fn grestore(&mut self) {
        self.st.restore();
        self.push(DrawOp::GRestore);
    }
    fn translate(&mut self, dx: i32, dy: i32) {
        self.st.translate(dx, dy);
        self.push(DrawOp::Translate(dx, dy));
    }
    fn clip_rect(&mut self, r: Rect) {
        self.st.clip_rect(r);
        self.push(DrawOp::ClipRect(r));
    }
    fn clip_region(&mut self, region: &Region) {
        self.st.clip_region(region);
        self.push(DrawOp::ClipRegion(region.rects().to_vec()));
    }
    fn clip_bounds(&self) -> Rect {
        self.st
            .clip_bounds_local(Rect::new(0, 0, i32::MAX / 4, i32::MAX / 4))
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
        self.push(DrawOp::Line(a, b));
    }
    fn draw_rect(&mut self, r: Rect) {
        self.push(DrawOp::RectOutline(r));
    }
    fn fill_rect(&mut self, r: Rect) {
        self.push(DrawOp::RectFill(r));
    }
    fn clear_rect(&mut self, r: Rect) {
        self.push(DrawOp::RectClear(r));
    }
    fn draw_oval(&mut self, r: Rect) {
        self.push(DrawOp::OvalOutline(r));
    }
    fn fill_oval(&mut self, r: Rect) {
        self.push(DrawOp::OvalFill(r));
    }
    fn fill_polygon(&mut self, pts: &[Point]) {
        self.push(DrawOp::PolyFill(pts.to_vec()));
    }
    fn fill_wedge(&mut self, r: Rect, start_deg: f64, end_deg: f64) {
        self.push(DrawOp::WedgeFill(
            r,
            (start_deg * 100.0).round() as i32,
            (end_deg * 100.0).round() as i32,
        ));
    }
    fn draw_string(&mut self, p: Point, s: &str) {
        self.push(DrawOp::Text(p, s.to_string()));
    }
    fn draw_string_baseline(&mut self, p: Point, s: &str) {
        self.push(DrawOp::TextBaseline(p, s.to_string()));
    }
    fn bitblt(&mut self, bits: &Framebuffer, src: Rect, dst: Point) {
        // Flatten the source rect so the display list is self-contained.
        let src = src.intersect(bits.bounds());
        let mut pixels = Vec::with_capacity((src.width * src.height).max(0) as usize);
        for y in src.y..src.bottom() {
            for x in src.x..src.right() {
                pixels.push(bits.get(x, y).0);
            }
        }
        self.push(DrawOp::Blit {
            width: src.width,
            height: src.height,
            pixels,
            dst,
        });
    }
    fn copy_area(&mut self, src: Rect, dst: Point) {
        self.push(DrawOp::CopyArea(src, dst));
    }
    fn flush(&mut self) {
        // The wire would be flushed here; recording needs nothing.
    }

    fn string_width(&self, s: &str) -> i32 {
        self.st.font.string_width(s)
    }
    fn font_metrics(&self) -> FontMetrics {
        self.st.font.metrics()
    }
}

/// Executes a display list into a framebuffer.
pub fn replay(ops: &[DrawOp], fb: &mut Framebuffer) {
    replay_from(&mut GraphicState::new(), ops, fb);
}

/// Executes `ops` into `fb` from the replay state `st`, leaving `st` as
/// the last op left it — so a display list can be replayed in pieces.
fn replay_from(st: &mut GraphicState, ops: &[DrawOp], fb: &mut Framebuffer) {
    // The clip is shared with the framebuffer and copied only when it
    // changes, not once per drawing op.
    let mut shared: Option<Arc<Region>> = None;
    for op in ops {
        match op {
            DrawOp::SetFg(c) => st.fg = *c,
            DrawOp::SetBg(c) => st.bg = *c,
            DrawOp::SetLineWidth(w) => st.line_width = *w,
            DrawOp::SetFont(f) => st.font = f.clone(),
            DrawOp::SetRop(r) => st.rop = *r,
            DrawOp::GSave => st.save(),
            DrawOp::GRestore => st.restore(),
            DrawOp::Translate(dx, dy) => st.translate(*dx, *dy),
            DrawOp::ClipRect(r) => st.clip_rect(*r),
            DrawOp::ClipRegion(rects) => {
                let mut region = Region::new();
                for r in rects {
                    region.add_rect(*r);
                }
                st.clip_region(&region);
            }
            _ => {
                if shared.as_deref() != st.clip.as_ref() {
                    shared = st.clip.clone().map(Arc::new);
                }
                fb.set_clip_shared(shared.clone());
                draw(st, op, fb);
            }
        }
    }
    fb.set_clip(None);
}

/// Executes drawing op `op` into `fb` under the state `st`.
fn draw(st: &GraphicState, op: &DrawOp, fb: &mut Framebuffer) {
    let (fg, dev) = (st.fg, |r: &Rect| st.rect_to_device(*r));
    match op {
        DrawOp::Line(a, b) => fb.draw_line(st.to_device(*a), st.to_device(*b), st.line_width, fg),
        DrawOp::RectOutline(r) => fb.draw_rect(dev(r), fg),
        DrawOp::RectFill(r) => fb.fill_rect_op(dev(r), fg, st.rop),
        DrawOp::RectClear(r) => fb.fill_rect(dev(r), st.bg),
        DrawOp::OvalOutline(r) => fb.draw_oval(dev(r), fg),
        DrawOp::OvalFill(r) => fb.fill_oval(dev(r), fg),
        DrawOp::PolyFill(pts) => {
            let pts: Vec<Point> = pts.iter().map(|p| st.to_device(*p)).collect();
            fb.fill_polygon(&pts, fg);
        }
        DrawOp::WedgeFill(r, a0, a1) => {
            fb.fill_wedge(dev(r), *a0 as f64 / 100.0, *a1 as f64 / 100.0, fg)
        }
        DrawOp::Text(p, s) => {
            BitmapFont::draw(fb, st.to_device(*p), s, &st.font, fg);
        }
        DrawOp::TextBaseline(p, s) => {
            BitmapFont::draw_baseline(fb, st.to_device(*p), s, &st.font, fg);
        }
        DrawOp::Blit {
            width,
            height,
            pixels,
            dst,
        } => {
            let src = Framebuffer::from_pixels(*width, *height, pixels.clone());
            fb.blit(&src, src.bounds(), st.to_device(*dst), st.rop);
        }
        DrawOp::CopyArea(src, dst) => fb.copy_within(dev(src), st.to_device(*dst)),
        _ => unreachable!("{op:?} sets state and draws nothing"),
    }
}

// --- Wire protocol ---------------------------------------------------------

/// Encodes a display list as the simulated network protocol byte stream.
pub fn encode(ops: &[DrawOp]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        encode_op(op, &mut out);
    }
    out
}

/// Largest magnitude a decoded coordinate, size, pen width or
/// `Translate` offset may have, and the replay origin may reach through
/// the translations: 2²⁴ px, far past any window. Replay adds at most a
/// coordinate, a size and the origin, or a glyph run's advance, so no
/// sum a replay forms can pass `i32`.
pub const MAX_COORD: i32 = 1 << 24;
/// Largest font size a decoded stream may set.
pub const MAX_FONT_SIZE: u32 = 1 << 12;
/// Most characters in one decoded string: a run of the widest glyphs
/// at [`MAX_FONT_SIZE`] advances less than [`MAX_COORD`].
pub const MAX_TEXT_CHARS: usize = 1 << 12;

/// Decodes a protocol byte stream back into a display list.
///
/// A stream is refused where replaying it could overflow `i32`: a
/// coordinate, size, pen width or translation past [`MAX_COORD`], an
/// origin the translations carry past it, a font size past
/// [`MAX_FONT_SIZE`] or a string past [`MAX_TEXT_CHARS`].
///
/// # Errors
///
/// Returns a description of the first malformed or out-of-bounds
/// message.
pub fn decode(bytes: &[u8]) -> Result<Vec<DrawOp>, String> {
    let mut ops = Vec::new();
    let mut cur = Cursor { buf: bytes, pos: 0 };
    let mut origin = Origin::default();
    while !cur.done() {
        let op = decode_op(&mut cur)?;
        origin.admit(&op)?;
        ops.push(op);
    }
    Ok(ops)
}

/// The replay origin a decoded stream reaches, saved and restored as
/// [`GraphicState`] does, to refuse a stream that carries it past
/// [`MAX_COORD`].
#[derive(Default)]
struct Origin {
    at: (i64, i64),
    saved: Vec<(i64, i64)>,
}

impl Origin {
    /// Checks `op`'s bounds and moves the origin as replaying it would.
    fn admit(&mut self, op: &DrawOp) -> Result<(), String> {
        let rect = |r: &Rect| [r.x, r.y, r.width, r.height];
        let point = |p: &Point| [p.x, p.y];
        let coords: Vec<i32> = match op {
            DrawOp::SetLineWidth(w) => vec![*w],
            DrawOp::SetFont(f) if f.size > MAX_FONT_SIZE => {
                return Err(format!("font size {} past the bound", f.size));
            }
            DrawOp::GSave => {
                self.saved.push(self.at);
                Vec::new()
            }
            DrawOp::GRestore => {
                if let Some(at) = self.saved.pop() {
                    self.at = at;
                }
                Vec::new()
            }
            DrawOp::Translate(dx, dy) => {
                self.at = (self.at.0 + *dx as i64, self.at.1 + *dy as i64);
                let limit = MAX_COORD as i64;
                if self.at.0.abs() > limit || self.at.1.abs() > limit {
                    return Err(format!("translation to {:?} past the bound", self.at));
                }
                vec![*dx, *dy]
            }
            DrawOp::ClipRect(r)
            | DrawOp::RectOutline(r)
            | DrawOp::RectFill(r)
            | DrawOp::RectClear(r)
            | DrawOp::OvalOutline(r)
            | DrawOp::OvalFill(r)
            | DrawOp::WedgeFill(r, ..) => rect(r).to_vec(),
            DrawOp::ClipRegion(rects) => rects.iter().flat_map(rect).collect(),
            DrawOp::Line(a, b) => [point(a), point(b)].concat(),
            DrawOp::PolyFill(pts) => pts.iter().flat_map(point).collect(),
            DrawOp::Text(_, s) | DrawOp::TextBaseline(_, s)
                if s.chars().count() > MAX_TEXT_CHARS =>
            {
                return Err(format!(
                    "a {}-char string past the bound",
                    s.chars().count()
                ));
            }
            DrawOp::Text(p, _) | DrawOp::TextBaseline(p, _) => point(p).to_vec(),
            DrawOp::Blit {
                width, height, dst, ..
            } => [[*width, *height], point(dst)].concat(),
            DrawOp::CopyArea(r, p) => rect(r).into_iter().chain(point(p)).collect(),
            _ => Vec::new(),
        };
        match coords
            .into_iter()
            .find(|v| v.unsigned_abs() > MAX_COORD as u32)
        {
            Some(v) => Err(format!("coordinate {v} past the bound")),
            None => Ok(()),
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }
    fn u8(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or("truncated stream")?;
        self.pos += 1;
        Ok(b)
    }
    fn i32(&mut self) -> Result<i32, String> {
        let end = self.pos + 4;
        let bytes = self.buf.get(self.pos..end).ok_or("truncated i32")?;
        self.pos = end;
        Ok(i32::from_le_bytes(bytes.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(self.i32()? as u32)
    }
    /// A capacity for `n` items of `size` bytes each, cut to what the
    /// bytes left could hold, so a hostile count allocates nothing
    /// past the stream's own size.
    fn room(&self, n: i32, size: usize) -> usize {
        (n.max(0) as usize).min((self.buf.len() - self.pos) / size)
    }
    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let end = self.pos + len;
        let bytes = self.buf.get(self.pos..end).ok_or("truncated string")?;
        self.pos = end;
        String::from_utf8(bytes.to_vec()).map_err(|e| e.to_string())
    }
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_i32(out, p.x);
    put_i32(out, p.y);
}

fn put_rect(out: &mut Vec<u8>, r: Rect) {
    put_i32(out, r.x);
    put_i32(out, r.y);
    put_i32(out, r.width);
    put_i32(out, r.height);
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_i32(out, s.len() as i32);
    out.extend_from_slice(s.as_bytes());
}

fn rop_code(r: RasterOp) -> u8 {
    match r {
        RasterOp::Copy => 0,
        RasterOp::Xor => 1,
        RasterOp::Or => 2,
        RasterOp::AndNot => 3,
    }
}

fn rop_from(code: u8) -> Result<RasterOp, String> {
    Ok(match code {
        0 => RasterOp::Copy,
        1 => RasterOp::Xor,
        2 => RasterOp::Or,
        3 => RasterOp::AndNot,
        other => return Err(format!("bad raster op {other}")),
    })
}

fn encode_op(op: &DrawOp, out: &mut Vec<u8>) {
    match op {
        DrawOp::SetFg(c) => {
            out.push(1);
            put_i32(out, c.0 as i32);
        }
        DrawOp::SetBg(c) => {
            out.push(2);
            put_i32(out, c.0 as i32);
        }
        DrawOp::SetLineWidth(w) => {
            out.push(3);
            put_i32(out, *w);
        }
        DrawOp::SetFont(f) => {
            out.push(4);
            put_string(out, &f.family);
            out.push(f.style.bold as u8);
            out.push(f.style.italic as u8);
            out.push(f.style.underline as u8);
            put_i32(out, f.size as i32);
        }
        DrawOp::SetRop(r) => {
            out.push(5);
            out.push(rop_code(*r));
        }
        DrawOp::GSave => out.push(6),
        DrawOp::GRestore => out.push(7),
        DrawOp::Translate(dx, dy) => {
            out.push(8);
            put_i32(out, *dx);
            put_i32(out, *dy);
        }
        DrawOp::ClipRect(r) => {
            out.push(9);
            put_rect(out, *r);
        }
        DrawOp::ClipRegion(rects) => {
            out.push(10);
            put_i32(out, rects.len() as i32);
            for r in rects {
                put_rect(out, *r);
            }
        }
        DrawOp::Line(a, b) => {
            out.push(11);
            put_point(out, *a);
            put_point(out, *b);
        }
        DrawOp::RectOutline(r) => {
            out.push(12);
            put_rect(out, *r);
        }
        DrawOp::RectFill(r) => {
            out.push(13);
            put_rect(out, *r);
        }
        DrawOp::RectClear(r) => {
            out.push(14);
            put_rect(out, *r);
        }
        DrawOp::OvalOutline(r) => {
            out.push(15);
            put_rect(out, *r);
        }
        DrawOp::OvalFill(r) => {
            out.push(16);
            put_rect(out, *r);
        }
        DrawOp::PolyFill(pts) => {
            out.push(17);
            put_i32(out, pts.len() as i32);
            for p in pts {
                put_point(out, *p);
            }
        }
        DrawOp::WedgeFill(r, a0, a1) => {
            out.push(18);
            put_rect(out, *r);
            put_i32(out, *a0);
            put_i32(out, *a1);
        }
        DrawOp::Text(p, s) => {
            out.push(19);
            put_point(out, *p);
            put_string(out, s);
        }
        DrawOp::TextBaseline(p, s) => {
            out.push(20);
            put_point(out, *p);
            put_string(out, s);
        }
        DrawOp::Blit {
            width,
            height,
            pixels,
            dst,
        } => {
            out.push(21);
            put_i32(out, *width);
            put_i32(out, *height);
            put_point(out, *dst);
            for px in pixels {
                put_i32(out, *px as i32);
            }
        }
        DrawOp::CopyArea(src, dst) => {
            out.push(22);
            put_rect(out, *src);
            put_point(out, *dst);
        }
    }
}

fn decode_op(cur: &mut Cursor<'_>) -> Result<DrawOp, String> {
    let code = cur.u8()?;
    let point =
        |cur: &mut Cursor<'_>| -> Result<Point, String> { Ok(Point::new(cur.i32()?, cur.i32()?)) };
    let rect = |cur: &mut Cursor<'_>| -> Result<Rect, String> {
        Ok(Rect::new(cur.i32()?, cur.i32()?, cur.i32()?, cur.i32()?))
    };
    Ok(match code {
        1 => DrawOp::SetFg(Color(cur.u32()?)),
        2 => DrawOp::SetBg(Color(cur.u32()?)),
        3 => DrawOp::SetLineWidth(cur.i32()?),
        4 => {
            let family = cur.string()?;
            let bold = cur.u8()? != 0;
            let italic = cur.u8()? != 0;
            let underline = cur.u8()? != 0;
            let size = cur.u32()?;
            DrawOp::SetFont(FontDesc::new(
                &family,
                FontStyle {
                    bold,
                    italic,
                    underline,
                },
                size,
            ))
        }
        5 => DrawOp::SetRop(rop_from(cur.u8()?)?),
        6 => DrawOp::GSave,
        7 => DrawOp::GRestore,
        8 => DrawOp::Translate(cur.i32()?, cur.i32()?),
        9 => DrawOp::ClipRect(rect(cur)?),
        10 => {
            let n = cur.i32()?;
            let mut rects = Vec::with_capacity(cur.room(n, 16));
            for _ in 0..n {
                rects.push(rect(cur)?);
            }
            DrawOp::ClipRegion(rects)
        }
        11 => DrawOp::Line(point(cur)?, point(cur)?),
        12 => DrawOp::RectOutline(rect(cur)?),
        13 => DrawOp::RectFill(rect(cur)?),
        14 => DrawOp::RectClear(rect(cur)?),
        15 => DrawOp::OvalOutline(rect(cur)?),
        16 => DrawOp::OvalFill(rect(cur)?),
        17 => {
            let n = cur.i32()?;
            let mut pts = Vec::with_capacity(cur.room(n, 8));
            for _ in 0..n {
                pts.push(point(cur)?);
            }
            DrawOp::PolyFill(pts)
        }
        18 => DrawOp::WedgeFill(rect(cur)?, cur.i32()?, cur.i32()?),
        19 => DrawOp::Text(point(cur)?, cur.string()?),
        20 => DrawOp::TextBaseline(point(cur)?, cur.string()?),
        21 => {
            let width = cur.i32()?;
            let height = cur.i32()?;
            let dst = point(cur)?;
            let n = width
                .checked_mul(height)
                .filter(|_| width >= 0 && height >= 0)
                .ok_or_else(|| format!("bad blit size {width}x{height}"))?;
            let mut pixels = Vec::with_capacity(cur.room(n, 4));
            for _ in 0..n {
                pixels.push(cur.u32()?);
            }
            DrawOp::Blit {
                width,
                height,
                pixels,
                dst,
            }
        }
        22 => DrawOp::CopyArea(rect(cur)?, point(cur)?),
        other => return Err(format!("unknown opcode {other}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_and_replay_match_direct_rasterization() {
        let mut ws = AwmSim::new();
        let mut w = ws.open_window("t", Size::new(60, 40));
        let g = w.graphic();
        g.fill_rect(Rect::new(5, 5, 20, 10));
        g.gsave();
        g.translate(30, 0);
        g.draw_line(Point::new(0, 0), Point::new(10, 10));
        g.grestore();
        g.draw_string(Point::new(2, 20), "hi");

        let snap = w.snapshot();

        // Same ops straight into a framebuffer.
        let mut direct = Framebuffer::new(60, 40, Color::WHITE);
        direct.fill_rect(Rect::new(5, 5, 20, 10), Color::BLACK);
        direct.draw_line(Point::new(30, 0), Point::new(40, 10), 1, Color::BLACK);
        BitmapFont::draw(
            &mut direct,
            Point::new(2, 20),
            "hi",
            &FontDesc::default_body(),
            Color::BLACK,
        );
        assert_eq!(snap, direct);
    }

    #[test]
    fn op_count_counts_recorded_ops() {
        let mut ws = AwmSim::new();
        let mut w = ws.open_window("t", Size::new(10, 10));
        w.graphic().fill_rect(Rect::new(0, 0, 1, 1));
        w.graphic().set_foreground(Color::RED);
        assert_eq!(w.op_count(), 2);
    }

    #[test]
    fn wire_protocol_round_trips_every_op() {
        let ops = vec![
            DrawOp::SetFg(Color::RED),
            DrawOp::SetBg(Color::WHITE),
            DrawOp::SetLineWidth(3),
            DrawOp::SetFont(FontDesc::new("andy", FontStyle::BOLD, 14)),
            DrawOp::SetRop(RasterOp::Xor),
            DrawOp::GSave,
            DrawOp::Translate(4, -5),
            DrawOp::ClipRect(Rect::new(1, 2, 3, 4)),
            DrawOp::ClipRegion(vec![Rect::new(0, 0, 5, 5), Rect::new(9, 9, 2, 2)]),
            DrawOp::Line(Point::new(0, 0), Point::new(9, 9)),
            DrawOp::RectOutline(Rect::new(1, 1, 8, 8)),
            DrawOp::RectFill(Rect::new(2, 2, 6, 6)),
            DrawOp::RectClear(Rect::new(3, 3, 4, 4)),
            DrawOp::OvalOutline(Rect::new(0, 0, 10, 6)),
            DrawOp::OvalFill(Rect::new(0, 0, 6, 10)),
            DrawOp::PolyFill(vec![Point::new(0, 0), Point::new(5, 0), Point::new(0, 5)]),
            DrawOp::WedgeFill(Rect::new(0, 0, 10, 10), 0, 9000),
            DrawOp::Text(Point::new(1, 1), "hello".into()),
            DrawOp::TextBaseline(Point::new(1, 9), "world".into()),
            DrawOp::Blit {
                width: 2,
                height: 1,
                pixels: vec![0xFF0000, 0x00FF00],
                dst: Point::new(3, 3),
            },
            DrawOp::CopyArea(Rect::new(0, 0, 4, 4), Point::new(5, 5)),
            DrawOp::GRestore,
        ];
        let bytes = encode(&ops);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[255]).is_err());
        assert!(decode(&[11, 1, 2]).is_err()); // Truncated line op.
                                               // Counts and sizes past anything the bytes could hold: errors,
                                               // with no overflow and no allocation sized by the claim.
        let header = |code: u8, fields: &[i32]| {
            let mut out = vec![code];
            fields.iter().for_each(|&v| put_i32(&mut out, v));
            out
        };
        for (w, h) in [
            (65_536, 65_536),
            (i32::MAX, 2),
            (-1, 4),
            (4, -1),
            (1 << 14, 1 << 14),
        ] {
            let blit = header(21, &[w, h, 0, 0]);
            assert_eq!(blit.len(), 17);
            assert!(decode(&blit).is_err(), "{w}x{h} blit");
        }
        assert!(decode(&header(10, &[i32::MAX, 1, 2, 3])).is_err());
        assert!(decode(&header(17, &[i32::MAX, 1, 2, 3])).is_err());
        // Coordinates whose replay would overflow `i32`: a fill whose
        // right edge passes it (17 bytes, which replayed into a 10×10
        // frame once panicked), and translations that each stay inside
        // the bound but together carry the origin past it.
        let fill = header(13, &[i32::MAX - 1, 0, 10, 1]);
        assert_eq!(fill.len(), 17);
        assert!(decode(&fill).is_err());
        let step = header(8, &[MAX_COORD, 0]);
        assert!(decode(&step).is_ok());
        assert!(decode(&[step.clone(), step.clone()].concat()).is_err());
        // A restore puts the origin back, as replay does.
        let saved = [vec![6], step.clone(), vec![7], step].concat();
        assert!(decode(&saved).is_ok());
        // Everything at the bounds replays without overflow.
        let (m, n) = (MAX_COORD, -MAX_COORD);
        let edge = vec![
            DrawOp::Translate(m, n),
            DrawOp::SetFont(FontDesc::new("andy", FontStyle::BOLD, MAX_FONT_SIZE)),
            DrawOp::RectFill(Rect::new(m, n, m, m)),
            DrawOp::ClipRect(Rect::new(n, m, m, m)),
            DrawOp::CopyArea(Rect::new(m, m, m, m), Point::new(n, n)),
            DrawOp::Text(Point::new(m, m), "W".repeat(MAX_TEXT_CHARS)),
        ];
        let decoded = decode(&encode(&edge)).unwrap();
        replay(&decoded, &mut Framebuffer::new(10, 10, Color::WHITE));
        // A negative count is an empty list, as it always was.
        assert_eq!(
            decode(&header(17, &[-5])).unwrap(),
            vec![DrawOp::PolyFill(Vec::new())]
        );
    }

    #[test]
    fn replay_of_decoded_stream_matches_snapshot() {
        let mut w = AwmWindow::new("t", Size::new(30, 30));
        w.graphic().fill_oval(Rect::new(2, 2, 26, 26));
        w.graphic().draw_string(Point::new(3, 10), "ok");
        let ops = w.display_list();
        let bytes = encode(&ops);
        let decoded = decode(&bytes).unwrap();
        let mut fb = Framebuffer::new(30, 30, Color::WHITE);
        replay(&decoded, &mut fb);
        assert_eq!(fb, w.snapshot());
    }

    #[test]
    fn blit_through_display_list_preserves_pixels() {
        let mut src = Framebuffer::new(3, 3, Color::WHITE);
        src.set(1, 1, Color::RED);
        let mut w = AwmWindow::new("t", Size::new(10, 10));
        w.graphic().bitblt(&src, src.bounds(), Point::new(4, 4));
        let snap = w.snapshot();
        assert_eq!(snap.get(5, 5), Color::RED);
    }

    #[test]
    fn lending_a_frame_in_pieces_matches_one_full_replay() {
        let mut w = AwmWindow::new("t", Size::new(40, 30));
        // Each lent frame consumes the ops recorded since the last one;
        // the pieces, concatenated, replay to the same pixels at once.
        let mut wire = Vec::new();
        let mut lend = |w: &AwmWindow| {
            wire.extend(w.display_list());
            let snap = w.snapshot();
            assert!(w.display_list().is_empty(), "the replayed ops are kept");
            let mut fb = Framebuffer::new(40, 30, Color::WHITE);
            replay(&wire, &mut fb);
            assert_eq!(snap, fb);
        };
        // The state a piece leaves behind — translation, clip, colour,
        // a pushed save — carries into the next piece.
        let g = w.graphic();
        g.gsave();
        g.translate(5, 5);
        g.clip_rect(Rect::new(0, 0, 20, 10));
        g.set_foreground(Color::RED);
        g.fill_rect(Rect::new(0, 0, 40, 40));
        lend(&w);
        let g = w.graphic();
        g.fill_oval(Rect::new(-5, -5, 30, 30));
        g.grestore();
        g.draw_line(Point::new(0, 29), Point::new(39, 0));
        g.copy_area(Rect::new(0, 0, 20, 15), Point::new(20, 15));
        lend(&w);
        assert_eq!(w.op_count(), 9, "every op recorded counts");

        // A resize starts the screen over at the new size.
        w.resize(Size::new(12, 8));
        w.graphic().fill_rect(Rect::new(2, 2, 3, 3));
        let mut fb = Framebuffer::new(12, 8, Color::WHITE);
        replay(&w.display_list(), &mut fb);
        assert_eq!(w.snapshot(), fb);
    }
}
