//! The scrollbar view.
//!
//! Paper §2: "The scroll bar is one such example [of a view with no data
//! object]. It only adjusts the information contained in another view."
//! The coupling to the scrolled view is the minimal
//! [`atk_core::ScrollInfo`] protocol — total extent, visible extent,
//! offset — so a scrollbar can scroll a text view, a table view, or a
//! folder list without knowing which it has.
//!
//! Andrew scrollbars sat on the left edge; so does this one.

use std::any::Any;

use atk_graphics::{Color, Point, Rect, Size};
use atk_wm::{Button, CursorShape, Graphic, MouseAction};

use atk_core::{Update, View, ViewBase, ViewId, World};

/// Width of the scrollbar gutter in pixels.
pub const BAR_WIDTH: i32 = 14;

/// A view pairing a left-edge scrollbar with a scrollable body view.
#[derive(Clone)]
pub struct ScrollView {
    base: ViewBase,
    body: Option<ViewId>,
    dragging: bool,
    drag_grab_offset: i32,
    /// The elevator the bar was last drawn with (`None` before the
    /// first draw, or with no body to scroll).
    drawn_thumb: Option<Rect>,
}

impl ScrollView {
    /// An empty scroller; attach the body with [`ScrollView::set_body`].
    pub fn new() -> ScrollView {
        ScrollView {
            base: ViewBase::new(),
            body: None,
            dragging: false,
            drag_grab_offset: 0,
            drawn_thumb: None,
        }
    }

    /// Attaches (and re-parents) the scrolled view.
    pub fn set_body(&mut self, world: &mut World, body: ViewId) {
        world.set_view_parent(body, Some(self.base.id));
        self.body = Some(body);
        self.relayout(world);
    }

    /// The scrolled view.
    pub fn body(&self) -> Option<ViewId> {
        self.body
    }

    fn relayout(&self, world: &mut World) {
        let size = world.view_bounds(self.base.id).size();
        if let Some(body) = self.body {
            world.set_view_bounds(
                body,
                Rect::new(BAR_WIDTH, 0, (size.width - BAR_WIDTH).max(0), size.height),
            );
        }
    }

    fn bar_rect(&self, world: &World) -> Rect {
        let size = world.view_bounds(self.base.id).size();
        Rect::new(0, 0, BAR_WIDTH, size.height)
    }

    /// The thumb ("elevator") rectangle, derived from the body's scroll
    /// info.
    pub fn thumb_rect(&self, world: &World) -> Option<Rect> {
        let body = self.body?;
        let info = world.view_dyn(body)?.scroll_info(world)?;
        let bar = self.bar_rect(world);
        if info.total <= 0 {
            return Some(bar);
        }
        let h = bar.height.max(1);
        let top = (info.offset as i64 * h as i64 / info.total.max(1) as i64) as i32;
        let len = ((info.visible as i64 * h as i64 + info.total as i64 - 1)
            / info.total.max(1) as i64)
            .min(h as i64) as i32;
        Some(Rect::new(1, top.min(h - 1), BAR_WIDTH - 2, len.max(6)))
    }

    fn scroll_body_to(&self, world: &mut World, offset: i32) {
        if let Some(body) = self.body {
            world.with_view(body, |v, w| v.scroll_to(w, offset));
            world.post_damage_full(self.base.id);
        }
    }

    /// Paints the gutter and the elevator, returning the elevator drawn.
    fn draw_bar(&self, world: &World, g: &mut dyn Graphic) -> Option<Rect> {
        let bar = self.bar_rect(world);
        g.set_foreground(Color::LIGHT_GRAY);
        g.fill_rect(bar);
        g.set_foreground(Color::BLACK);
        g.draw_line(
            Point::new(bar.right() - 1, 0),
            Point::new(bar.right() - 1, bar.height - 1),
        );
        let thumb = self.thumb_rect(world);
        if let Some(thumb) = thumb {
            g.set_foreground(Color::WHITE);
            g.fill_rect(thumb);
            g.set_foreground(Color::BLACK);
            g.draw_rect(thumb);
        }
        thumb
    }

    fn offset_for_bar_y(&self, world: &World, y: i32) -> i32 {
        let Some(body) = self.body else { return 0 };
        let Some(info) = world.view_dyn(body).and_then(|v| v.scroll_info(world)) else {
            return 0;
        };
        let h = self.bar_rect(world).height.max(1);
        (y.clamp(0, h) as i64 * info.total as i64 / h as i64) as i32
    }
}

/// The bar rows where an elevator drawn at `old` and one drawn at `new`
/// differ: those between their top edges and those between their bottom
/// edges, each edge's outline row included. Both elevators are white
/// inside and the bar is gray outside them, so no other row changes.
/// Elevators of different columns differ anywhere inside either.
fn thumb_change(old: Rect, new: Rect) -> [Rect; 2] {
    if (old.x, old.width) != (new.x, new.width) {
        return [old, new];
    }
    // The rows from edge `a` to edge `b`, and the outline row `line`.
    let edge = |a: i32, b: i32, line: i32| {
        if a == b {
            return Rect::EMPTY;
        }
        let rows = Rect::new(old.x, a.min(b), old.width, (a - b).abs());
        rows.union(Rect::new(old.x, line, old.width, 1))
    };
    [
        edge(old.y, new.y, old.y.max(new.y)),
        edge(
            old.bottom(),
            new.bottom(),
            old.bottom().min(new.bottom()) - 1,
        ),
    ]
}

impl Default for ScrollView {
    fn default() -> Self {
        ScrollView::new()
    }
}

impl View for ScrollView {
    fn class_name(&self) -> &'static str {
        "scroll"
    }
    fn id(&self) -> ViewId {
        self.base.id
    }
    fn set_id(&mut self, id: ViewId) {
        self.base.id = id;
    }
    fn children(&self) -> Vec<ViewId> {
        self.body.into_iter().collect()
    }

    /// The bar is drawn beside the body, never over it.
    fn paints_over_children(&self) -> bool {
        false
    }

    fn perform(&mut self, world: &mut World, command: &str) -> bool {
        // A body that scrolled itself or changed its extent (caret
        // tracking, home/end, paging, a line added) says so through the
        // deferred command channel; the elevator position is derived
        // from the body's scroll_info at draw time, so only the rows
        // where the drawn and the new elevator differ are repainted.
        if command == "scroll-sync" {
            let damage = match (self.drawn_thumb, self.thumb_rect(world)) {
                (Some(old), Some(new)) => thumb_change(old, new),
                _ => [self.bar_rect(world), Rect::EMPTY],
            };
            for r in damage.into_iter().filter(|r| !r.is_empty()) {
                world.post_damage(self.base.id, r);
            }
            return true;
        }
        false
    }

    fn desired_size(&mut self, world: &mut World, budget: i32) -> Size {
        let body = match self.body {
            Some(b) => world
                .with_view(b, |v, w| v.desired_size(w, budget - BAR_WIDTH))
                .unwrap_or(Size::ZERO),
            None => Size::ZERO,
        };
        Size::new(body.width + BAR_WIDTH, body.height)
    }

    fn layout(&mut self, world: &mut World) {
        self.relayout(world);
    }

    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, update: Update) {
        let drew_bar = g.clip_touches(self.bar_rect(world));
        if drew_bar {
            self.drawn_thumb = self.draw_bar(world, g);
        }
        if let Some(body) = self.body {
            world.draw_child(body, g, update);
        }
        // A body may lay itself out lazily as it draws (a text view whose
        // document was just replaced), changing the extent the elevator
        // was drawn from: draw the bar again if the elevator moved.
        if drew_bar && self.drawn_thumb != self.thumb_rect(world) {
            self.drawn_thumb = self.draw_bar(world, g);
        }
    }

    fn mouse(&mut self, world: &mut World, action: MouseAction, pt: Point) -> bool {
        let bar = self.bar_rect(world);
        // While dragging the thumb, the scrollbar keeps the event stream
        // even outside its rectangle (parental grant to itself).
        if self.dragging {
            match action {
                MouseAction::Drag(Button::Left) => {
                    let off = self.offset_for_bar_y(world, pt.y - self.drag_grab_offset);
                    self.scroll_body_to(world, off);
                    return true;
                }
                MouseAction::Up(Button::Left) => {
                    self.dragging = false;
                    return true;
                }
                _ => {}
            }
        }
        if bar.contains(pt) {
            if let MouseAction::Down(Button::Left) = action {
                let thumb = self.thumb_rect(world).unwrap_or(Rect::EMPTY);
                if thumb.contains(pt) {
                    self.dragging = true;
                    self.drag_grab_offset = pt.y - thumb.y;
                } else if let Some(body) = self.body {
                    // Page up/down by one visible extent.
                    if let Some(info) = world.view_dyn(body).and_then(|v| v.scroll_info(world)) {
                        let page = info.visible.max(1);
                        let target = if pt.y < thumb.y {
                            info.offset - page
                        } else {
                            info.offset + page
                        };
                        let max_off = (info.total - info.visible).max(0);
                        self.scroll_body_to(world, target.clamp(0, max_off));
                    }
                }
            }
            return true;
        }
        if let Some(body) = self.body {
            return world.mouse_to_child(body, action, pt);
        }
        false
    }

    fn cursor_at(&self, world: &World, pt: Point) -> Option<CursorShape> {
        if self.bar_rect(world).contains(pt) {
            return Some(CursorShape::VerticalDrag);
        }
        let body = self.body?;
        let b = world.view_bounds(body);
        if b.contains(pt) {
            world.view_dyn(body)?.cursor_at(world, pt - b.origin())
        } else {
            None
        }
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
    use atk_core::ScrollInfo;

    /// A fake scrollable body for tests: 1000 units tall, 100 visible.
    struct FakeBody {
        base: ViewBase,
        offset: i32,
    }
    impl FakeBody {
        fn new() -> FakeBody {
            FakeBody {
                base: ViewBase::new(),
                offset: 0,
            }
        }
    }
    impl View for FakeBody {
        fn class_name(&self) -> &'static str {
            "fake"
        }
        fn id(&self) -> ViewId {
            self.base.id
        }
        fn set_id(&mut self, id: ViewId) {
            self.base.id = id;
        }
        fn desired_size(&mut self, _w: &mut World, _b: i32) -> Size {
            Size::new(100, 100)
        }
        fn draw(&mut self, _w: &mut World, _g: &mut dyn Graphic, _u: Update) {}
        fn scroll_info(&self, _w: &World) -> Option<ScrollInfo> {
            Some(ScrollInfo {
                total: 1000,
                visible: 100,
                offset: self.offset,
            })
        }
        fn scroll_to(&mut self, _w: &mut World, offset: i32) {
            self.offset = offset;
        }
        fn mouse(&mut self, _w: &mut World, _a: MouseAction, _p: Point) -> bool {
            true
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn setup() -> (World, ViewId, ViewId) {
        let mut world = World::new();
        let body = world.insert_view(Box::new(FakeBody::new()));
        let scroll = world.insert_view(Box::new(ScrollView::new()));
        world.set_view_bounds(scroll, Rect::new(0, 0, 200, 100));
        world.with_view(scroll, |v, w| {
            v.as_any_mut()
                .downcast_mut::<ScrollView>()
                .unwrap()
                .set_body(w, body);
        });
        (world, scroll, body)
    }

    #[test]
    fn body_occupies_space_right_of_bar() {
        let (world, _scroll, body) = setup();
        assert_eq!(world.view_bounds(body), Rect::new(BAR_WIDTH, 0, 186, 100));
    }

    #[test]
    fn thumb_reflects_scroll_info() {
        let (world, scroll, _body) = setup();
        let sv = world.view_as::<ScrollView>(scroll).unwrap();
        let thumb = sv.thumb_rect(&world).unwrap();
        // 100 visible of 1000 total on a 100px bar => 10px thumb at top.
        assert_eq!(thumb.y, 0);
        assert_eq!(thumb.height, 10);
    }

    #[test]
    fn click_below_thumb_pages_down() {
        let (mut world, scroll, body) = setup();
        world.with_view(scroll, |v, w| {
            v.mouse(w, MouseAction::Down(Button::Left), Point::new(5, 80));
        });
        assert_eq!(world.view_as::<FakeBody>(body).unwrap().offset, 100);
    }

    #[test]
    fn thumb_drag_scrolls_continuously() {
        let (mut world, scroll, body) = setup();
        world.with_view(scroll, |v, w| {
            v.mouse(w, MouseAction::Down(Button::Left), Point::new(5, 2));
            v.mouse(w, MouseAction::Drag(Button::Left), Point::new(5, 52));
            v.mouse(w, MouseAction::Up(Button::Left), Point::new(5, 52));
        });
        assert_eq!(world.view_as::<FakeBody>(body).unwrap().offset, 500);
    }

    #[test]
    fn events_right_of_bar_go_to_body() {
        let (mut world, scroll, _body) = setup();
        let consumed = world.with_view(scroll, |v, w| {
            v.mouse(w, MouseAction::Down(Button::Left), Point::new(100, 50))
        });
        assert_eq!(consumed, Some(true));
    }

    #[test]
    fn cursor_over_bar_is_drag() {
        let (world, scroll, _) = setup();
        let sv = world.view_dyn(scroll).unwrap();
        assert_eq!(
            sv.cursor_at(&world, Point::new(5, 50)),
            Some(CursorShape::VerticalDrag)
        );
    }
}
