//! The WYSIWYG page view — paper §2's announced second text view:
//!
//! > "Currently the text view … can be characterized as a semi-WYSIWYG
//! > or a WYSLRN view. … In this case we plan on providing a full
//! > WYSIWYG text view. This paper-based text view will be designed to
//! > use the same text data object. The user of the system will be able
//! > to choose to use either view or perhaps have one window using the
//! > normal text view and the other using the WYSIWYG text view. Again
//! > changes made in one window will automatically be reflected in the
//! > other window."
//!
//! [`PageView`] is that view, implemented as the paper promised: a
//! *different view class* on the *same* [`TextData`] — pages with
//! margins, page breaks, and page outlines, updated through the same
//! observer machinery as every other view. Embedded objects are shown as
//! labelled placeholder frames (a print-preview convention; the editing
//! view is where they are manipulated).

use std::any::Any;

use atk_graphics::{Color, FontDesc, Point, Rect, Size};
use atk_wm::{Button, CursorShape, Graphic, MouseAction};

use atk_core::{
    ChangeRec, DataId, MenuItem, ObserverRef, ScrollInfo, Update, View, ViewBase, ViewId, World,
};

use crate::data::TextData;

/// Page geometry (pixels; ~52 dpi letter paper).
const PAGE_W: i32 = 440;
const PAGE_H: i32 = 570;
const MARGIN: i32 = 44;
const PAGE_GAP: i32 = 12;

/// One laid-out page line.
#[derive(Debug, Clone)]
struct PageLine {
    start: usize,
    end: usize,
    /// Page index.
    page: usize,
    /// y offset within the page content area.
    y: i32,
    baseline: i32,
    height: i32,
}

/// The paper-based (WYSIWYG) text view.
#[derive(Clone)]
pub struct PageView {
    base: ViewBase,
    data: Option<DataId>,
    lines: Vec<PageLine>,
    pages: usize,
    layout_valid: bool,
    scroll_y: i32,
}

impl PageView {
    /// An unbound page view.
    pub fn new() -> PageView {
        PageView {
            base: ViewBase::new(),
            data: None,
            lines: Vec::new(),
            pages: 0,
            layout_valid: false,
            scroll_y: 0,
        }
    }

    /// Number of laid-out pages.
    pub fn page_count(&self) -> usize {
        self.pages
    }

    /// Recomputes pagination if stale. Returns true if it ran.
    pub fn ensure_layout(&mut self, world: &World) -> bool {
        if self.layout_valid {
            return false;
        }
        self.lines.clear();
        self.pages = 0;
        let Some(text) = self.data.and_then(|d| world.data::<TextData>(d)) else {
            self.layout_valid = true;
            return true;
        };
        let content_w = PAGE_W - 2 * MARGIN;
        let content_h = PAGE_H - 2 * MARGIN;
        let len = text.len();
        let mut pos = 0;
        let mut page = 0;
        let mut y = 0;
        loop {
            // One line.
            let mut x = 0;
            let mut i = pos;
            let mut last_break = None;
            let mut line_h = 0;
            let mut ascent = 0;
            let mut newline = false;
            while i < len {
                let ch = text.char_at(i).unwrap_or(' ');
                if ch == '\n' {
                    newline = true;
                    break;
                }
                let (cw, chh, casc) = if text.anchor_at(i).is_some() {
                    (64, 40, 36) // Placeholder frame for embedded objects.
                } else {
                    let font = text.style_value_at(i).font();
                    let m = font.metrics();
                    (font.char_width(ch), m.line_height, m.ascent)
                };
                if x + cw > content_w && i > pos {
                    if let Some(b) = last_break {
                        i = b + 1;
                    }
                    break;
                }
                if ch == ' ' {
                    last_break = Some(i);
                }
                x += cw;
                line_h = line_h.max(chh);
                ascent = ascent.max(casc);
                i += 1;
            }
            if line_h == 0 {
                let m = text
                    .style_value_at(pos.min(len.saturating_sub(1)))
                    .font()
                    .metrics();
                line_h = m.line_height;
                ascent = m.ascent;
            }
            // Page break.
            if y + line_h > content_h {
                page += 1;
                y = 0;
            }
            self.lines.push(PageLine {
                start: pos,
                end: i,
                page,
                y,
                baseline: ascent,
                height: line_h,
            });
            y += line_h;
            let prev = pos;
            pos = if newline { i + 1 } else { i };
            if pos >= len {
                break;
            }
            if pos == prev {
                pos += 1;
            }
        }
        self.pages = page + 1;
        self.layout_valid = true;
        true
    }

    /// Total scrollable height.
    fn content_height(&self) -> i32 {
        self.pages as i32 * (PAGE_H + PAGE_GAP)
    }

    fn page_origin(&self, page: usize) -> Point {
        Point::new(8, page as i32 * (PAGE_H + PAGE_GAP) - self.scroll_y)
    }
}

impl Default for PageView {
    fn default() -> Self {
        PageView::new()
    }
}

impl View for PageView {
    fn class_name(&self) -> &'static str {
        "pageview"
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
        self.layout_valid = false;
        world.post_damage_full(self.base.id);
        true
    }

    fn desired_size(&mut self, world: &mut World, _budget: i32) -> Size {
        self.ensure_layout(world);
        Size::new(PAGE_W + 16, (PAGE_H + PAGE_GAP).min(600))
    }

    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, _update: Update) {
        self.ensure_layout(world);
        let view_h = world.view_bounds(self.base.id).height;
        let Some(text) = self.data.and_then(|d| world.data::<TextData>(d)) else {
            return;
        };
        // Page sheets.
        for page in 0..self.pages {
            let o = self.page_origin(page);
            if o.y + PAGE_H < 0 || o.y > view_h {
                continue;
            }
            let sheet = Rect::new(o.x, o.y, PAGE_W, PAGE_H);
            g.set_foreground(Color::GRAY);
            g.fill_rect(sheet.translate(3, 3));
            g.set_foreground(Color::WHITE);
            g.fill_rect(sheet);
            g.set_foreground(Color::BLACK);
            g.draw_rect(sheet);
            // Folio.
            g.set_font(FontDesc::new("andy", Default::default(), 10));
            g.draw_string_centered(
                Rect::new(o.x, o.y + PAGE_H - MARGIN + 8, PAGE_W, 12),
                &format!("- {} -", page + 1),
            );
        }
        // Lines.
        for line in &self.lines {
            let o = self.page_origin(line.page);
            let ly = o.y + MARGIN + line.y;
            if ly + line.height < 0 || ly > view_h {
                continue;
            }
            let mut x = o.x + MARGIN;
            let mut i = line.start;
            while i < line.end {
                if let Some((_, class)) = text.anchor_at(i) {
                    // Placeholder frame for the embedded object.
                    let r = Rect::new(x, ly, 62, 38);
                    g.set_foreground(Color::GRAY);
                    g.draw_rect(r);
                    g.draw_line(r.origin(), Point::new(r.right() - 1, r.bottom() - 1));
                    g.set_font(FontDesc::new("andy", Default::default(), 8));
                    g.draw_string(Point::new(r.x + 2, r.y + 2), &class);
                    x += 64;
                    i += 1;
                    continue;
                }
                let style_id = text.style_at(i);
                let mut j = i;
                let mut s = String::new();
                while j < line.end && text.style_at(j) == style_id && text.anchor_at(j).is_none() {
                    s.push(text.char_at(j).unwrap_or(' '));
                    j += 1;
                }
                let font = text.styles.get(style_id).font();
                g.set_font(font.clone());
                g.set_foreground(Color::BLACK);
                g.draw_string_baseline(Point::new(x, ly + line.baseline), &s);
                x += font.string_width(&s);
                i = j;
            }
        }
    }

    fn mouse(&mut self, world: &mut World, action: MouseAction, _pt: Point) -> bool {
        if let MouseAction::Down(Button::Left) = action {
            world.request_focus(self.base.id);
            return true;
        }
        false
    }

    fn menus(&self, _world: &World) -> Vec<MenuItem> {
        vec![MenuItem::new("Page", "Repaginate", "page-repaginate")]
    }

    fn perform(&mut self, world: &mut World, command: &str) -> bool {
        if command == "page-repaginate" {
            self.layout_valid = false;
            world.post_damage_full(self.base.id);
            return true;
        }
        false
    }

    fn cursor_at(&self, _world: &World, _pt: Point) -> Option<CursorShape> {
        Some(CursorShape::Arrow)
    }

    fn observed_changed(&mut self, world: &mut World, _s: DataId, _c: &ChangeRec) {
        // Pagination can shift globally on any edit; repaginate lazily
        // and repaint (print preview favors correctness over minimal
        // damage — the editing view is the incremental one).
        self.layout_valid = false;
        world.post_damage_full(self.base.id);
    }

    fn scroll_info(&self, world: &World) -> Option<ScrollInfo> {
        Some(ScrollInfo {
            total: self.content_height().max(1),
            visible: world.view_bounds(self.base.id).height,
            offset: self.scroll_y,
        })
    }

    fn scroll_to(&mut self, world: &mut World, offset: i32) {
        let h = world.view_bounds(self.base.id).height;
        self.scroll_y = offset.clamp(0, (self.content_height() - h).max(0));
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
    use atk_core::World;
    use atk_wm::WindowSystem;

    fn setup(content: &str) -> (World, DataId, ViewId) {
        let mut world = World::new();
        crate::register(&mut world.catalog);
        atk_components::register(&mut world.catalog);
        let data = world.insert_data(Box::new(TextData::from_str(content)));
        let view = world.insert_view(Box::new(PageView::new()));
        world.with_view(view, |v, w| v.set_data_object(w, data));
        world.set_view_bounds(view, Rect::new(0, 0, 460, 600));
        let _ = world.take_damage_region();
        (world, data, view)
    }

    #[test]
    fn short_text_is_one_page() {
        let (world, _, view) = setup("a short document");
        let pv = PageView::new();
        let _ = &pv;
        let v = world.view_as::<PageView>(view).unwrap();
        let mut v2 = PageView::new();
        v2.data = v.data;
        v2.ensure_layout(&world);
        assert_eq!(v2.page_count(), 1);
        let _ = pv;
    }

    #[test]
    fn long_text_paginates() {
        let (world, _, view) = setup(&"a line of body text here\n".repeat(200));
        let data = world.view_dyn(view).unwrap().data_object();
        let mut pv = PageView::new();
        pv.data = data;
        pv.ensure_layout(&world);
        assert!(pv.page_count() >= 4, "pages: {}", pv.page_count());
    }

    #[test]
    fn both_views_share_one_data_object() {
        // The §2 promise: the normal view in one window, the WYSIWYG view
        // in another, same data object, edits reflected in both.
        let (mut world, data, pview) = setup("shared body");
        let tview = world.new_view("textview").unwrap();
        world.with_view(tview, |v, w| v.set_data_object(w, data));
        world.set_view_bounds(tview, Rect::new(0, 0, 300, 200));
        let _ = world.take_damage_region();

        // Edit through the editing view.
        world.with_view(tview, |v, w| {
            let tv = v.as_any_mut().downcast_mut::<crate::TextView>().unwrap();
            tv.set_caret(w, 0);
            tv.insert_at_caret(w, "EDIT ");
        });
        world.flush_notifications();
        // The page view heard it and invalidated.
        assert!(world.has_damage());
        let pv = world.view_as::<PageView>(pview).unwrap();
        assert!(!pv.layout_valid, "page view must repaginate after edits");
    }

    #[test]
    fn renders_sheets_and_text() {
        let (mut world, _, view) = setup(&"printable words ".repeat(60));
        let mut ws = atk_wm::x11sim::X11Sim::new();
        let mut win = ws.open_window("t", Size::new(460, 600));
        world.with_view(view, |v, w| v.draw(w, win.graphic(), Update::Full));
        let snap = win.snapshot();
        // Page outline + text ink, and the gray drop shadow.
        assert!(snap.count_pixels(snap.bounds(), Color::BLACK) > 500);
        assert!(snap.count_pixels(snap.bounds(), Color::GRAY) > 500);
    }

    #[test]
    fn embedded_objects_show_placeholders() {
        let mut world = World::new();
        crate::register(&mut world.catalog);
        let inner = world.insert_data(Box::new(TextData::from_str("x")));
        let mut t = TextData::from_str("before  after");
        t.add_embedded(7, inner, "tablev");
        let data = world.insert_data(Box::new(t));
        let view = world.insert_view(Box::new(PageView::new()));
        world.with_view(view, |v, w| v.set_data_object(w, data));
        world.set_view_bounds(view, Rect::new(0, 0, 460, 600));
        let mut ws = atk_wm::x11sim::X11Sim::new();
        let mut win = ws.open_window("t", Size::new(460, 600));
        world.with_view(view, |v, w| v.draw(w, win.graphic(), Update::Full));
        // Ink exists; the placeholder's diagonal adds gray strokes inside
        // the content area.
        let snap = win.snapshot();
        assert!(snap.count_pixels(Rect::new(44, 44, 200, 120), Color::GRAY) > 30);
    }

    #[test]
    fn scroll_spans_all_pages() {
        let (mut world, _, view) = setup(&"line\n".repeat(400));
        world.with_view(view, |v, w| {
            v.as_any_mut()
                .downcast_mut::<PageView>()
                .unwrap()
                .ensure_layout(w);
        });
        let info = world.view_dyn(view).unwrap().scroll_info(&world).unwrap();
        assert!(info.total > 2 * (PAGE_H + PAGE_GAP));
        world.with_view(view, |v, w| v.scroll_to(w, info.total));
        let info2 = world.view_dyn(view).unwrap().scroll_info(&world).unwrap();
        assert!(info2.offset > 0 && info2.offset <= info.total);
    }
}
