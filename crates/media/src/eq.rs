//! The equation component.
//!
//! The paper's figure 5 embeds "a set of equations which defines the
//! values of [Pascal's] triangle" — e.g. `v sub {i,j} = v sub {i-1,j} +
//! v sub {i,j-1}`. This module implements an eqn(1)-flavoured linear
//! source language, a recursive box-layout engine, and a view that
//! renders the laid-out boxes through the graphics layer.
//!
//! Supported constructs: symbols and numbers, `sub {…}` / `sup {…}`
//! scripts, `frac{…}{…}`, `sqrt{…}`, `sum`/`int` with `from{…}`/`to{…}`
//! limits, and `{…}` grouping.

use std::any::Any;
use std::io;

use atk_graphics::{Color, FontDesc, Point, Size};
use atk_wm::Graphic;

use atk_core::{
    ChangeRec, DataId, DataObject, DatastreamReader, DatastreamWriter, DsError, MenuItem,
    ObserverRef, Token, Update, View, ViewBase, ViewId, World,
};

/// A parsed equation node.
#[derive(Debug, Clone, PartialEq)]
pub enum EqNode {
    /// A symbol, number, or operator rendered as-is.
    Sym(String),
    /// Horizontal sequence.
    Seq(Vec<EqNode>),
    /// Base with subscript and/or superscript.
    Script {
        /// The base expression.
        base: Box<EqNode>,
        /// Subscript, if any.
        sub: Option<Box<EqNode>>,
        /// Superscript, if any.
        sup: Option<Box<EqNode>>,
    },
    /// Fraction.
    Frac(Box<EqNode>, Box<EqNode>),
    /// Square root.
    Sqrt(Box<EqNode>),
    /// Big operator (`sum`, `int`) with optional limits.
    BigOp {
        /// Operator glyph name.
        op: String,
        /// Lower limit.
        from: Option<Box<EqNode>>,
        /// Upper limit.
        to: Option<Box<EqNode>>,
    },
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqError(pub String);

impl std::fmt::Display for EqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "equation parse error: {}", self.0)
    }
}

impl std::error::Error for EqError {}

fn tokenize(src: &str) -> Vec<String> {
    let mut toks = Vec::new();
    let mut cur = String::new();
    for c in src.chars() {
        match c {
            '{' | '}' => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
                toks.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
            }
            // Operators split words so "i-1" becomes i - 1 but stays
            // renderable; commas separate subscript indices.
            '+' | '-' | '=' | ',' | '(' | ')' | '*' | '/' => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
                toks.push(c.to_string());
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        toks.push(cur);
    }
    toks
}

struct EqParser {
    toks: Vec<String>,
    pos: usize,
}

impl EqParser {
    fn peek(&self) -> Option<&str> {
        self.toks.get(self.pos).map(String::as_str)
    }

    fn next(&mut self) -> Option<String> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn parse_group(&mut self) -> Result<EqNode, EqError> {
        match self.next().as_deref() {
            Some("{") => {
                let seq = self.parse_seq(true)?;
                match self.next().as_deref() {
                    Some("}") => Ok(seq),
                    other => Err(EqError(format!("expected }}, found {other:?}"))),
                }
            }
            Some(tok) => Ok(EqNode::Sym(tok.to_string())),
            None => Err(EqError("unexpected end".to_string())),
        }
    }

    fn parse_item(&mut self) -> Result<EqNode, EqError> {
        let base = match self.next().as_deref() {
            Some("{") => {
                let seq = self.parse_seq(true)?;
                match self.next().as_deref() {
                    Some("}") => seq,
                    other => return Err(EqError(format!("expected }}, found {other:?}"))),
                }
            }
            Some("frac") => {
                let num = self.parse_group()?;
                let den = self.parse_group()?;
                EqNode::Frac(Box::new(num), Box::new(den))
            }
            Some("sqrt") => EqNode::Sqrt(Box::new(self.parse_group()?)),
            Some(op @ ("sum" | "int" | "prod")) => {
                let op = op.to_string();
                let mut from = None;
                let mut to = None;
                loop {
                    match self.peek() {
                        Some("from") => {
                            self.next();
                            from = Some(Box::new(self.parse_group()?));
                        }
                        Some("to") => {
                            self.next();
                            to = Some(Box::new(self.parse_group()?));
                        }
                        _ => break,
                    }
                }
                EqNode::BigOp { op, from, to }
            }
            Some(tok) => EqNode::Sym(tok.to_string()),
            None => return Err(EqError("unexpected end".to_string())),
        };
        // Trailing scripts.
        let mut sub = None;
        let mut sup = None;
        loop {
            match self.peek() {
                Some("sub") => {
                    self.next();
                    sub = Some(Box::new(self.parse_group()?));
                }
                Some("sup") => {
                    self.next();
                    sup = Some(Box::new(self.parse_group()?));
                }
                _ => break,
            }
        }
        if sub.is_some() || sup.is_some() {
            Ok(EqNode::Script {
                base: Box::new(base),
                sub,
                sup,
            })
        } else {
            Ok(base)
        }
    }

    fn parse_seq(&mut self, in_group: bool) -> Result<EqNode, EqError> {
        let mut items = Vec::new();
        while let Some(tok) = self.peek() {
            if tok == "}" {
                if in_group {
                    break;
                }
                return Err(EqError("unmatched }".to_string()));
            }
            items.push(self.parse_item()?);
        }
        Ok(if items.len() == 1 {
            items.pop().expect("len checked")
        } else {
            EqNode::Seq(items)
        })
    }
}

/// Parses equation source.
pub fn parse_eq(src: &str) -> Result<EqNode, EqError> {
    let mut p = EqParser {
        toks: tokenize(src),
        pos: 0,
    };
    p.parse_seq(false)
}

/// A laid-out box: extent plus baseline offset from the top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqBox {
    /// Width in pixels.
    pub width: i32,
    /// Height in pixels.
    pub height: i32,
    /// Baseline offset from the top.
    pub baseline: i32,
}

fn font_for(size: u32) -> FontDesc {
    FontDesc::new("andy", Default::default(), size)
}

/// Computes the layout box of a node at a font size.
pub fn measure(node: &EqNode, size: u32) -> EqBox {
    let font = font_for(size);
    let m = font.metrics();
    match node {
        EqNode::Sym(s) => EqBox {
            width: font.string_width(s) + 2,
            height: m.line_height,
            baseline: m.ascent,
        },
        EqNode::Seq(items) => {
            let mut width = 0;
            let mut above = 0;
            let mut below = 0;
            for it in items {
                let b = measure(it, size);
                width += b.width;
                above = above.max(b.baseline);
                below = below.max(b.height - b.baseline);
            }
            EqBox {
                width,
                height: above + below,
                baseline: above,
            }
        }
        EqNode::Script { base, sub, sup } => {
            let script_size = (size * 7 / 10).max(6);
            let b = measure(base, size);
            let sb = sub.as_ref().map(|n| measure(n, script_size));
            let sp = sup.as_ref().map(|n| measure(n, script_size));
            let script_w = sb
                .map(|x| x.width)
                .unwrap_or(0)
                .max(sp.map(|x| x.width).unwrap_or(0));
            let above = b.baseline + sp.map(|x| x.height - 2).unwrap_or(0).max(0);
            let below = (b.height - b.baseline) + sb.map(|x| x.height - 2).unwrap_or(0).max(0);
            EqBox {
                width: b.width + script_w,
                height: above + below,
                baseline: above,
            }
        }
        EqNode::Frac(num, den) => {
            let n = measure(num, size);
            let d = measure(den, size);
            EqBox {
                width: n.width.max(d.width) + 6,
                height: n.height + d.height + 3,
                baseline: n.height + 1,
            }
        }
        EqNode::Sqrt(inner) => {
            let b = measure(inner, size);
            EqBox {
                width: b.width + 10,
                height: b.height + 3,
                baseline: b.baseline + 3,
            }
        }
        EqNode::BigOp { from, to, .. } => {
            let script_size = (size * 7 / 10).max(6);
            let glyph = EqBox {
                width: font.string_width("Σ").max(10) + 2,
                height: m.line_height + 4,
                baseline: m.ascent + 2,
            };
            let fb = from.as_ref().map(|n| measure(n, script_size));
            let tb = to.as_ref().map(|n| measure(n, script_size));
            let width = glyph
                .width
                .max(fb.map(|x| x.width).unwrap_or(0))
                .max(tb.map(|x| x.width).unwrap_or(0));
            let above = glyph.baseline + tb.map(|x| x.height).unwrap_or(0);
            let below = (glyph.height - glyph.baseline) + fb.map(|x| x.height).unwrap_or(0);
            EqBox {
                width,
                height: above + below,
                baseline: above,
            }
        }
    }
}

/// Renders a node with its top-left at `origin`.
pub fn render(node: &EqNode, g: &mut dyn Graphic, origin: Point, size: u32) {
    let b = measure(node, size);
    render_at_baseline(node, g, Point::new(origin.x, origin.y + b.baseline), size);
}

fn render_at_baseline(node: &EqNode, g: &mut dyn Graphic, pen: Point, size: u32) {
    let font = font_for(size);
    match node {
        EqNode::Sym(s) => {
            g.set_font(font);
            let glyph = match s.as_str() {
                "alpha" => "a",
                "beta" => "B",
                "pi" => "p",
                other => other,
            };
            g.draw_string_baseline(Point::new(pen.x + 1, pen.y), glyph);
        }
        EqNode::Seq(items) => {
            let mut x = pen.x;
            for it in items {
                let b = measure(it, size);
                render_at_baseline(it, g, Point::new(x, pen.y), size);
                x += b.width;
            }
        }
        EqNode::Script { base, sub, sup } => {
            let script_size = (size * 7 / 10).max(6);
            let b = measure(base, size);
            render_at_baseline(base, g, pen, size);
            if let Some(sp) = sup {
                let sb = measure(sp, script_size);
                render_at_baseline(
                    sp,
                    g,
                    Point::new(
                        pen.x + b.width,
                        pen.y - b.baseline + sb.baseline - sb.height + 2,
                    ),
                    script_size,
                );
            }
            if let Some(su) = sub {
                let sb = measure(su, script_size);
                render_at_baseline(
                    su,
                    g,
                    Point::new(
                        pen.x + b.width,
                        pen.y + (b.height - b.baseline) + sb.baseline - 2,
                    ),
                    script_size,
                );
            }
        }
        EqNode::Frac(num, den) => {
            let whole = measure(node, size);
            let n = measure(num, size);
            let d = measure(den, size);
            let top = pen.y - whole.baseline;
            render_at_baseline(
                num,
                g,
                Point::new(pen.x + (whole.width - n.width) / 2, top + n.baseline),
                size,
            );
            g.draw_line(
                Point::new(pen.x + 1, top + n.height + 1),
                Point::new(pen.x + whole.width - 2, top + n.height + 1),
            );
            render_at_baseline(
                den,
                g,
                Point::new(
                    pen.x + (whole.width - d.width) / 2,
                    top + n.height + 3 + d.baseline,
                ),
                size,
            );
        }
        EqNode::Sqrt(inner) => {
            let whole = measure(node, size);
            let b = measure(inner, size);
            let top = pen.y - whole.baseline;
            // Radical: small hook plus overline.
            g.draw_line(
                Point::new(pen.x, top + whole.height - 4),
                Point::new(pen.x + 4, top + whole.height - 1),
            );
            g.draw_line(
                Point::new(pen.x + 4, top + whole.height - 1),
                Point::new(pen.x + 8, top),
            );
            g.draw_line(
                Point::new(pen.x + 8, top),
                Point::new(pen.x + whole.width - 1, top),
            );
            render_at_baseline(inner, g, Point::new(pen.x + 9, top + 3 + b.baseline), size);
        }
        EqNode::BigOp { op, from, to } => {
            let script_size = (size * 7 / 10).max(6);
            let whole = measure(node, size);
            let top = pen.y - whole.baseline;
            let glyph = match op.as_str() {
                "sum" => "E",
                "int" => "S",
                "prod" => "TT",
                other => other,
            };
            let m = font.metrics();
            let ty = to
                .as_ref()
                .map(|t| measure(t, script_size).height)
                .unwrap_or(0);
            if let Some(t) = to {
                let tb = measure(t, script_size);
                render_at_baseline(
                    t,
                    g,
                    Point::new(pen.x + (whole.width - tb.width) / 2, top + tb.baseline),
                    script_size,
                );
            }
            g.set_font(font.clone());
            g.draw_string_baseline(Point::new(pen.x + 2, top + ty + 2 + m.ascent), glyph);
            if let Some(f) = from {
                let fb = measure(f, script_size);
                render_at_baseline(
                    f,
                    g,
                    Point::new(
                        pen.x + (whole.width - fb.width) / 2,
                        top + ty + m.line_height + 4 + fb.baseline,
                    ),
                    script_size,
                );
            }
        }
    }
}

/// The equation data object.
#[derive(Clone)]
pub struct EqData {
    src: String,
    ast: Result<EqNode, EqError>,
    /// Base font size.
    pub size: u32,
}

impl EqData {
    /// An equation from source.
    pub fn from_src(src: &str) -> EqData {
        EqData {
            src: src.to_string(),
            ast: parse_eq(src),
            size: 12,
        }
    }

    /// An empty equation.
    pub fn new() -> EqData {
        EqData::from_src("")
    }

    /// The source text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The parsed node (or the parse error).
    pub fn ast(&self) -> Result<&EqNode, &EqError> {
        self.ast.as_ref()
    }

    /// Replaces the source, reparsing. Returns the change record.
    pub fn set_source(&mut self, src: &str) -> ChangeRec {
        self.src = src.to_string();
        self.ast = parse_eq(src);
        ChangeRec::Full
    }

    /// The laid-out extent.
    pub fn extent(&self) -> Size {
        match &self.ast {
            Ok(node) => {
                let b = measure(node, self.size);
                Size::new(b.width + 4, b.height + 4)
            }
            Err(_) => Size::new(90, 14),
        }
    }
}

impl Default for EqData {
    fn default() -> Self {
        EqData::new()
    }
}

impl DataObject for EqData {
    fn class_name(&self) -> &'static str {
        "eq"
    }

    fn write_body(&self, w: &mut DatastreamWriter, _world: &World) -> io::Result<()> {
        w.write_line(&format!("size {}", self.size))?;
        w.write_line(&format!("src {}", self.src))?;
        Ok(())
    }

    fn read_body(
        &mut self,
        r: &mut DatastreamReader<'_>,
        _world: &mut World,
    ) -> Result<(), DsError> {
        loop {
            let tok = r.next_token()?.ok_or(DsError::UnexpectedEof)?;
            match tok {
                Token::EndData { .. } => break,
                Token::Line(line) => {
                    if let Some(rest) = line.strip_prefix("src ") {
                        self.set_source(rest);
                    } else if let Some(rest) = line.strip_prefix("size ") {
                        if let Ok(s) = rest.trim().parse() {
                            self.size = s;
                        }
                    } else if line == "src" {
                        self.set_source("");
                    } else {
                        return Err(DsError::Malformed(format!("eq body: {line}")));
                    }
                }
                other => return Err(DsError::Malformed(format!("eq body token: {other:?}"))),
            }
        }
        Ok(())
    }

    fn fork(&self) -> Option<Box<dyn DataObject>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The equation view: renders the layout; simple in-place source editing.
#[derive(Clone)]
pub struct EqView {
    base: ViewBase,
    data: Option<DataId>,
}

impl EqView {
    /// An unbound equation view.
    pub fn new() -> EqView {
        EqView {
            base: ViewBase::new(),
            data: None,
        }
    }
}

impl Default for EqView {
    fn default() -> Self {
        EqView::new()
    }
}

impl View for EqView {
    fn class_name(&self) -> &'static str {
        "eqv"
    }
    fn id(&self) -> ViewId {
        self.base.id
    }
    fn set_id(&mut self, id: ViewId) {
        self.base.id = id;
    }
    fn data_object(&self) -> Option<DataId> {
        self.data
    }

    fn set_data_object(&mut self, world: &mut World, data: DataId) -> bool {
        if let Some(old) = self.data {
            world.remove_observer(old, ObserverRef::View(self.base.id));
        }
        self.data = Some(data);
        world.add_observer(data, ObserverRef::View(self.base.id));
        world.post_damage_full(self.base.id);
        true
    }

    fn desired_size(&mut self, world: &mut World, _budget: i32) -> Size {
        self.data
            .and_then(|d| world.data::<EqData>(d))
            .map(|e| e.extent())
            .unwrap_or(Size::new(90, 16))
    }

    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, _update: Update) {
        let Some(eq) = self.data.and_then(|d| world.data::<EqData>(d)) else {
            return;
        };
        g.set_foreground(Color::BLACK);
        match eq.ast() {
            Ok(node) => {
                let node = node.clone();
                let size = eq.size;
                render(&node, g, Point::new(2, 2), size);
            }
            Err(_) => {
                g.set_font(FontDesc::fixed());
                g.draw_string(Point::new(2, 2), &format!("?eq: {}", eq.source()));
            }
        }
    }

    fn perform(&mut self, world: &mut World, command: &str) -> bool {
        if let Some(src) = command.strip_prefix("eq-set:") {
            if let Some(data_id) = self.data {
                let rec = world.data_mut::<EqData>(data_id).map(|e| e.set_source(src));
                if let Some(rec) = rec {
                    world.notify(data_id, rec);
                }
            }
            return true;
        }
        false
    }

    fn menus(&self, _world: &World) -> Vec<MenuItem> {
        vec![MenuItem::new("Equation", "Edit Source", "eq-edit")]
    }

    fn observed_changed(&mut self, world: &mut World, _s: DataId, _c: &ChangeRec) {
        world.post_damage_full(self.base.id);
    }

    fn fork(&self) -> Option<Box<dyn View>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_equations() {
        // Figure 5's defining equations.
        for src in [
            "v sub {0,0} = v sub {i,0} = 0",
            "v sub {1,1} = 1",
            "v sub {i,j} = v sub {i-1,j} + v sub {i,j-1}",
        ] {
            let ast = parse_eq(src).unwrap();
            let b = measure(&ast, 12);
            assert!(b.width > 20 && b.height >= 10, "{src} -> {b:?}");
        }
    }

    #[test]
    fn script_measures_taller_than_base() {
        let plain = measure(&parse_eq("v").unwrap(), 12);
        let scripted = measure(&parse_eq("v sub {i,j}").unwrap(), 12);
        assert!(scripted.height > plain.height);
        assert!(scripted.width > plain.width);
    }

    #[test]
    fn frac_stacks_vertically() {
        let f = measure(&parse_eq("frac{a}{b}").unwrap(), 12);
        let a = measure(&parse_eq("a").unwrap(), 12);
        assert!(f.height > 2 * a.height - 4);
    }

    #[test]
    fn bigop_with_limits() {
        let s = parse_eq("sum from {i=1} to {n} i").unwrap();
        let b = measure(&s, 12);
        assert!(b.height > 20);
    }

    #[test]
    fn unbalanced_braces_error() {
        assert!(parse_eq("a sub {i").is_err());
        assert!(parse_eq("a } b").is_err());
    }

    #[test]
    fn rendering_produces_ink() {
        use atk_wm::WindowSystem;
        let node = parse_eq("v sub {i,j} = frac{a+b}{2} + sqrt{x}").unwrap();
        let b = measure(&node, 12);
        let mut ws = atk_wm::x11sim::X11Sim::new();
        let mut win = ws.open_window("t", Size::new(b.width + 8, b.height + 8));
        render(&node, win.graphic(), Point::new(2, 2), 12);
        let snap = win.snapshot();
        assert!(snap.count_pixels(snap.bounds(), Color::BLACK) > 40);
    }

    #[test]
    fn serialization_round_trip() {
        let mut world = World::new();
        world
            .catalog
            .register_data("eq", || Box::new(EqData::new()));
        let eq = EqData::from_src("v sub {i,j} = v sub {i-1,j} + v sub {i,j-1}");
        let id = world.insert_data(Box::new(eq));
        let doc = atk_core::document_to_string(&world, id);
        let mut world2 = World::new();
        world2
            .catalog
            .register_data("eq", || Box::new(EqData::new()));
        let id2 = atk_core::read_document(&mut world2, &doc).unwrap();
        let eq2 = world2.data::<EqData>(id2).unwrap();
        assert_eq!(eq2.source(), "v sub {i,j} = v sub {i-1,j} + v sub {i,j-1}");
        assert!(eq2.ast().is_ok());
    }

    #[test]
    fn set_source_reparses() {
        let mut eq = EqData::from_src("a+b");
        assert!(eq.ast().is_ok());
        eq.set_source("a sub {");
        assert!(eq.ast().is_err());
        eq.set_source("frac{1}{2}");
        assert!(eq.ast().is_ok());
    }
}
