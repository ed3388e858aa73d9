//! The printer drawable (paper §4).
//!
//! "Separating the view and the drawable will allow us to provide a
//! simple default printing mechanism. When a view receives a print
//! request for a specific type of printer it can temporarily shift its
//! pointer to a drawable for that printer type and do a redraw of its
//! image."
//!
//! [`PostScriptGraphic`] implements the full [`Graphic`] trait and emits a
//! small PostScript program; pointing any view at it and calling the
//! view's normal draw path produces a printable page with **zero** changes
//! to the view — which is the claim being reproduced.

use atk_graphics::{Color, FontDesc, FontMetrics, Framebuffer, Point, RasterOp, Rect, Region};

use crate::traits::{Graphic, GraphicState};

/// Renders a virtual-clock offset as `HH:MM:SS.mmm` for the page header.
fn format_clock(ms: u64) -> String {
    let (s, milli) = (ms / 1000, ms % 1000);
    let (m, sec) = (s / 60, s % 60);
    let (h, min) = (m / 60, m % 60);
    format!("{h:02}:{min:02}:{sec:02}.{milli:03}")
}

/// A drawable that renders to PostScript source.
pub struct PostScriptGraphic {
    st: GraphicState,
    page: Rect,
    body: String,
    ops: u64,
    clock_ms: u64,
}

impl PostScriptGraphic {
    /// Creates a printer drawable for a page of `width`×`height` points.
    pub fn new(width: i32, height: i32) -> PostScriptGraphic {
        PostScriptGraphic {
            st: GraphicState::new(),
            page: Rect::new(0, 0, width, height),
            body: String::new(),
            ops: 0,
            clock_ms: 0,
        }
    }

    /// Sets the creation timestamp stamped into the page header, in
    /// milliseconds of the toolkit's *virtual* clock. Printing must stay
    /// deterministic (the golden print tests diff the whole document),
    /// so the header never reads the wall clock — whoever repoints a
    /// view at this drawable passes `World::now_ms()` instead.
    pub fn set_clock_ms(&mut self, ms: u64) {
        self.clock_ms = ms;
    }

    /// The complete PostScript program for what has been drawn.
    pub fn document(&self) -> String {
        format!(
            "%!PS-Adobe-2.0\n%%Creator: atk-wm printer drawable\n\
             %%CreationDate: (T+{} toolkit clock)\n%%Pages: 1\n\
             %%BoundingBox: 0 0 {} {}\n%%Page: 1 1\n/y {{ {} exch sub }} def\n{}showpage\n",
            format_clock(self.clock_ms),
            self.page.width,
            self.page.height,
            self.page.height,
            self.body
        )
    }

    /// Number of drawing operations emitted.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    fn set_color(&mut self) {
        let c = self.st.fg;
        self.body.push_str(&format!(
            "{:.3} {:.3} {:.3} setrgbcolor\n",
            c.r() as f32 / 255.0,
            c.g() as f32 / 255.0,
            c.b() as f32 / 255.0
        ));
    }

    fn dev(&self, p: Point) -> Point {
        self.st.to_device(p)
    }

    fn emit_rect_path(&mut self, r: Rect) {
        let d = self.st.rect_to_device(r);
        self.body.push_str(&format!(
            "newpath {} {} y moveto {} {} y lineto {} {} y lineto {} {} y lineto closepath\n",
            d.x,
            d.y,
            d.right(),
            d.y,
            d.right(),
            d.bottom(),
            d.x,
            d.bottom()
        ));
    }
}

impl Graphic for PostScriptGraphic {
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
        self.body.push_str("gsave\n");
    }
    fn grestore(&mut self) {
        self.st.restore();
        self.body.push_str("grestore\n");
    }
    fn translate(&mut self, dx: i32, dy: i32) {
        self.st.translate(dx, dy);
    }
    fn clip_rect(&mut self, r: Rect) {
        self.st.clip_rect(r);
        self.emit_rect_path(r);
        self.body.push_str("clip\n");
    }
    fn clip_region(&mut self, region: &Region) {
        self.st.clip_region(region);
    }
    fn clip_bounds(&self) -> Rect {
        self.st.clip_bounds_local(self.page)
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
        self.ops += 1;
        self.set_color();
        let (da, db) = (self.dev(a), self.dev(b));
        self.body.push_str(&format!(
            "{} setlinewidth newpath {} {} y moveto {} {} y lineto stroke\n",
            self.st.line_width, da.x, da.y, db.x, db.y
        ));
    }

    fn draw_rect(&mut self, r: Rect) {
        self.ops += 1;
        self.set_color();
        self.emit_rect_path(r);
        self.body.push_str("1 setlinewidth stroke\n");
    }

    fn fill_rect(&mut self, r: Rect) {
        self.ops += 1;
        self.set_color();
        self.emit_rect_path(r);
        self.body.push_str("fill\n");
    }

    fn clear_rect(&mut self, r: Rect) {
        self.ops += 1;
        let saved = self.st.fg;
        self.st.fg = self.st.bg;
        self.set_color();
        self.emit_rect_path(r);
        self.body.push_str("fill\n");
        self.st.fg = saved;
    }

    fn draw_oval(&mut self, r: Rect) {
        self.ops += 1;
        self.set_color();
        let d = self.st.rect_to_device(r);
        let c = d.center();
        self.body.push_str(&format!(
            "newpath {} {} y {} {} 0 360 ellipsepath stroke\n",
            c.x,
            c.y,
            d.width / 2,
            d.height / 2
        ));
    }

    fn fill_oval(&mut self, r: Rect) {
        self.ops += 1;
        self.set_color();
        let d = self.st.rect_to_device(r);
        let c = d.center();
        self.body.push_str(&format!(
            "newpath {} {} y {} {} 0 360 ellipsepath fill\n",
            c.x,
            c.y,
            d.width / 2,
            d.height / 2
        ));
    }

    fn fill_polygon(&mut self, pts: &[Point]) {
        if pts.is_empty() {
            return;
        }
        self.ops += 1;
        self.set_color();
        let first = self.dev(pts[0]);
        self.body
            .push_str(&format!("newpath {} {} y moveto\n", first.x, first.y));
        for p in &pts[1..] {
            let d = self.dev(*p);
            self.body.push_str(&format!("{} {} y lineto\n", d.x, d.y));
        }
        self.body.push_str("closepath fill\n");
    }

    fn fill_wedge(&mut self, r: Rect, start_deg: f64, end_deg: f64) {
        self.ops += 1;
        self.set_color();
        let d = self.st.rect_to_device(r);
        let c = d.center();
        // PostScript arc angles are counterclockwise from 3 o'clock; ours
        // are clockwise from 12 o'clock.
        let a0 = 90.0 - end_deg;
        let a1 = 90.0 - start_deg;
        self.body.push_str(&format!(
            "newpath {} {} y moveto {} {} y {} {a0:.1} {a1:.1} arc closepath fill\n",
            c.x,
            c.y,
            c.x,
            c.y,
            d.width / 2
        ));
    }

    fn draw_string(&mut self, p: Point, s: &str) {
        let m = self.st.font.metrics();
        self.draw_string_baseline(Point::new(p.x, p.y + m.ascent), s);
    }

    fn draw_string_baseline(&mut self, p: Point, s: &str) {
        self.ops += 1;
        self.set_color();
        let d = self.dev(p);
        let escaped = s
            .replace('\\', "\\\\")
            .replace('(', "\\(")
            .replace(')', "\\)");
        let ps_size = self.st.font.size.max(6);
        let face = if self.st.font.style.bold {
            "/Helvetica-Bold"
        } else if self.st.font.style.italic {
            "/Helvetica-Oblique"
        } else if self.st.font.is_fixed() {
            "/Courier"
        } else {
            "/Helvetica"
        };
        self.body.push_str(&format!(
            "{face} findfont {ps_size} scalefont setfont {} {} y moveto ({escaped}) show\n",
            d.x, d.y
        ));
    }

    fn bitblt(&mut self, bits: &Framebuffer, src: Rect, dst: Point) {
        // Print rasters as a gray placeholder box; full image support is a
        // printing-subsystem concern beyond the paper's promise.
        self.ops += 1;
        let r = Rect::new(
            dst.x,
            dst.y,
            src.width.min(bits.width()),
            src.height.min(bits.height()),
        );
        let saved = self.st.fg;
        self.st.fg = Color::LIGHT_GRAY;
        self.set_color();
        self.emit_rect_path(r);
        self.body.push_str("fill\n");
        self.st.fg = saved;
        self.draw_rect(r);
    }

    fn copy_area(&mut self, _src: Rect, _dst: Point) {
        // Scrolling is meaningless on paper.
    }

    fn flush(&mut self) {}

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

    #[test]
    fn document_has_header_and_showpage() {
        let g = PostScriptGraphic::new(612, 792);
        let doc = g.document();
        assert!(doc.starts_with("%!PS-Adobe-2.0"));
        assert!(doc.contains("%%BoundingBox: 0 0 612 792"));
        assert!(doc.contains("%%Page: 1 1"));
        assert!(doc.trim_end().ends_with("showpage"));
    }

    #[test]
    fn creation_date_comes_from_the_virtual_clock() {
        let mut g = PostScriptGraphic::new(612, 792);
        // Unset clock stamps the epoch, not the wall clock.
        assert!(g
            .document()
            .contains("%%CreationDate: (T+00:00:00.000 toolkit clock)"));
        g.set_clock_ms(((2 * 60 + 3) * 60 + 4) * 1000 + 56);
        let doc = g.document();
        assert!(
            doc.contains("%%CreationDate: (T+02:03:04.056 toolkit clock)"),
            "header was:\n{doc}"
        );
        // Same clock twice → byte-identical documents.
        assert_eq!(doc, g.document());
    }

    #[test]
    fn drawing_emits_postscript() {
        let mut g = PostScriptGraphic::new(612, 792);
        g.fill_rect(Rect::new(10, 10, 100, 50));
        g.draw_string_baseline(Point::new(20, 40), "Hello (world)");
        let doc = g.document();
        assert!(doc.contains("fill"));
        assert!(doc.contains("(Hello \\(world\\)) show"));
        assert_eq!(g.op_count(), 2);
    }

    #[test]
    fn translate_moves_emitted_coordinates() {
        let mut g = PostScriptGraphic::new(100, 100);
        g.translate(30, 0);
        g.draw_line(Point::new(0, 0), Point::new(5, 0));
        assert!(g.document().contains("30 0 y moveto 35 0 y lineto"));
    }

    #[test]
    fn bold_font_selects_bold_face() {
        use atk_graphics::FontStyle;
        let mut g = PostScriptGraphic::new(100, 100);
        g.set_font(FontDesc::new("andy", FontStyle::BOLD, 12));
        g.draw_string_baseline(Point::new(0, 10), "x");
        assert!(g.document().contains("/Helvetica-Bold"));
    }
}
