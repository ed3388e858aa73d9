//! A selectable list view (folder panes, caption panes, help indices).
//!
//! The messages window of the paper's figure 3 is three list-and-text
//! panes; this view is the list half. Selection is reported through the
//! ordinary `perform` protocol: clicking row *i* dispatches
//! `"{command}:{i}"` to a target view, so the coordinator needs no
//! knowledge of the list's type — the same minimal-protocol style as the
//! scrollbar.

use std::any::Any;

use atk_graphics::{Color, FontDesc, Point, Rect, Size};
use atk_wm::{Button, Graphic, Key, MouseAction};

use atk_core::{ScrollInfo, Update, View, ViewBase, ViewId, World};

/// A scrollable, selectable list of strings.
#[derive(Clone)]
pub struct ListView {
    base: ViewBase,
    items: Vec<String>,
    /// Selected row.
    pub selected: Option<usize>,
    offset: i32,
    font: FontDesc,
    target: Option<ViewId>,
    command: String,
}

impl ListView {
    /// An empty list dispatching `command:<index>` on selection.
    pub fn new(command: &str) -> ListView {
        ListView {
            base: ViewBase::new(),
            items: Vec::new(),
            selected: None,
            offset: 0,
            font: FontDesc::default_body(),
            target: None,
            command: command.to_string(),
        }
    }

    /// Sets the view that receives selection commands.
    pub fn set_target(&mut self, target: ViewId) {
        self.target = Some(target);
    }

    /// Replaces the items.
    pub fn set_items(&mut self, world: &mut World, items: Vec<String>) {
        self.items = items;
        self.selected = None;
        self.offset = 0;
        world.post_damage_full(self.base.id);
    }

    /// The items.
    pub fn items(&self) -> &[String] {
        &self.items
    }

    fn row_height(&self) -> i32 {
        self.font.metrics().line_height + 2
    }

    /// Row `index`'s strip, in view coordinates.
    fn row_rect(&self, world: &World, index: usize) -> Rect {
        let rh = self.row_height();
        let width = world.view_bounds(self.base.id).width;
        Rect::new(0, index as i32 * rh - self.offset, width, rh)
    }

    fn row_at(&self, pt: Point) -> Option<usize> {
        let idx = (pt.y + self.offset) / self.row_height();
        if idx >= 0 && (idx as usize) < self.items.len() {
            Some(idx as usize)
        } else {
            None
        }
    }

    /// Programmatic selection (also dispatches the command).
    pub fn select_index(&mut self, world: &mut World, index: usize) {
        if index >= self.items.len() {
            return;
        }
        // Only the old and the new row change: each is drawn, and
        // highlighted, inside its own strip.
        if let Some(old) = self.selected {
            world.post_damage(self.base.id, self.row_rect(world, old));
        }
        self.selected = Some(index);
        world.post_damage(self.base.id, self.row_rect(world, index));
        if let Some(target) = self.target {
            // Deferred: the target is often an ancestor currently on the
            // dispatch stack.
            world.post_command(target, &format!("{}:{}", self.command, index));
        }
    }
}

impl View for ListView {
    fn class_name(&self) -> &'static str {
        "list"
    }
    fn id(&self) -> ViewId {
        self.base.id
    }
    fn set_id(&mut self, id: ViewId) {
        self.base.id = id;
    }

    fn desired_size(&mut self, _world: &mut World, budget: i32) -> Size {
        Size::new(budget.min(200), self.row_height() * self.items.len() as i32)
    }

    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, _update: Update) {
        let size = world.view_bounds(self.base.id).size();
        let rh = self.row_height();
        g.set_font(self.font.clone());
        for (i, item) in self.items.iter().enumerate() {
            let y = i as i32 * rh - self.offset;
            let row = Rect::new(0, y, size.width, rh);
            if y + rh < 0 || y > size.height || !g.clip_touches(row) {
                continue;
            }
            g.set_foreground(Color::BLACK);
            let m = g.font_metrics();
            g.draw_string_baseline(Point::new(4, y + 1 + m.ascent), item);
            if self.selected == Some(i) {
                g.invert_rect(row);
            }
        }
    }

    fn mouse(&mut self, world: &mut World, action: MouseAction, pt: Point) -> bool {
        if let MouseAction::Down(Button::Left) = action {
            if let Some(i) = self.row_at(pt) {
                self.select_index(world, i);
            }
            world.request_focus(self.base.id);
            return true;
        }
        matches!(
            action,
            MouseAction::Up(Button::Left) | MouseAction::Drag(Button::Left)
        )
    }

    fn key(&mut self, world: &mut World, key: Key) -> bool {
        match key {
            Key::Down => {
                let next = self.selected.map(|i| i + 1).unwrap_or(0);
                self.select_index(world, next.min(self.items.len().saturating_sub(1)));
                true
            }
            Key::Up => {
                let next = self.selected.map(|i| i.saturating_sub(1)).unwrap_or(0);
                self.select_index(world, next);
                true
            }
            _ => false,
        }
    }

    fn scroll_info(&self, world: &World) -> Option<ScrollInfo> {
        Some(ScrollInfo {
            total: (self.row_height() * self.items.len() as i32).max(1),
            visible: world.view_bounds(self.base.id).height,
            offset: self.offset,
        })
    }

    fn scroll_to(&mut self, world: &mut World, offset: i32) {
        let total = self.row_height() * self.items.len() as i32;
        let h = world.view_bounds(self.base.id).height;
        self.offset = offset.clamp(0, (total - h).max(0));
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
    use atk_core::ChangeRec;
    use atk_core::DataId;

    struct Recorder {
        base: ViewBase,
        commands: Vec<String>,
    }
    impl View for Recorder {
        fn class_name(&self) -> &'static str {
            "recorder"
        }
        fn id(&self) -> ViewId {
            self.base.id
        }
        fn set_id(&mut self, id: ViewId) {
            self.base.id = id;
        }
        fn desired_size(&mut self, _w: &mut World, _b: i32) -> Size {
            Size::ZERO
        }
        fn draw(&mut self, _w: &mut World, _g: &mut dyn Graphic, _u: Update) {}
        fn perform(&mut self, _w: &mut World, command: &str) -> bool {
            self.commands.push(command.to_string());
            true
        }
        fn observed_changed(&mut self, _w: &mut World, _d: DataId, _c: &ChangeRec) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn setup() -> (World, ViewId, ViewId) {
        let mut world = World::new();
        let rec = world.insert_view(Box::new(Recorder {
            base: ViewBase::new(),
            commands: Vec::new(),
        }));
        let mut list = ListView::new("pick");
        list.set_target(rec);
        let lid = world.insert_view(Box::new(list));
        world.set_view_bounds(lid, Rect::new(0, 0, 120, 100));
        world.with_view(lid, |v, w| {
            v.as_any_mut()
                .downcast_mut::<ListView>()
                .unwrap()
                .set_items(w, vec!["alpha".into(), "beta".into(), "gamma".into()]);
        });
        (world, lid, rec)
    }

    #[test]
    fn click_selects_and_dispatches() {
        let (mut world, lid, rec) = setup();
        let rh = world.view_as::<ListView>(lid).unwrap().row_height();
        world.with_view(lid, |v, w| {
            v.mouse(w, MouseAction::Down(Button::Left), Point::new(10, rh + 1));
        });
        world.flush_commands();
        assert_eq!(world.view_as::<ListView>(lid).unwrap().selected, Some(1));
        assert_eq!(
            world.view_as::<Recorder>(rec).unwrap().commands,
            vec!["pick:1".to_string()]
        );
    }

    #[test]
    fn arrow_keys_move_selection() {
        let (mut world, lid, rec) = setup();
        world.with_view(lid, |v, w| {
            v.key(w, Key::Down);
            v.key(w, Key::Down);
            v.key(w, Key::Up);
        });
        world.flush_commands();
        assert_eq!(world.view_as::<ListView>(lid).unwrap().selected, Some(0));
        assert_eq!(world.view_as::<Recorder>(rec).unwrap().commands.len(), 3);
    }

    #[test]
    fn selection_clamps_at_ends() {
        let (mut world, lid, _) = setup();
        world.with_view(lid, |v, w| {
            for _ in 0..10 {
                v.key(w, Key::Down);
            }
        });
        assert_eq!(world.view_as::<ListView>(lid).unwrap().selected, Some(2));
    }

    // Selecting damages the old and the new row only, and painting that
    // damage gives the same pixels as a full redraw.
    #[test]
    fn selection_damages_two_rows_and_matches_a_full_redraw() {
        use atk_core::InteractionManager;
        use atk_wm::WindowSystem;

        let mut world = World::new();
        let lid = world.insert_view(Box::new(ListView::new("pick")));
        let mut ws = atk_wm::x11sim::X11Sim::new();
        let window = ws.open_window("list", Size::new(120, 100));
        let mut im = InteractionManager::new(&mut world, window, lid);
        world.with_view(lid, |v, w| {
            let lv = v.as_any_mut().downcast_mut::<ListView>().unwrap();
            lv.set_items(w, (0..8).map(|i| format!("row {i}")).collect());
            lv.select_index(w, 1);
        });
        im.settle(&mut world);
        let rh = world.view_as::<ListView>(lid).unwrap().row_height();

        world.with_view(lid, |v, w| {
            v.as_any_mut()
                .downcast_mut::<ListView>()
                .unwrap()
                .select_index(w, 4);
        });
        let region = world.take_damage_region_for(lid);
        let old_row = Rect::new(0, rh, 120, rh);
        let new_row = Rect::new(0, 4 * rh, 120, rh);
        assert_eq!(
            region,
            atk_graphics::Region::from_rects(vec![old_row, new_row])
        );

        im.draw_region(&mut world, &region);
        let incremental = im.snapshot().unwrap();
        im.redraw_full(&mut world);
        assert_eq!(incremental, im.snapshot().unwrap());
    }

    #[test]
    fn scroll_protocol_reports_extent() {
        let (mut world, lid, _) = setup();
        world.with_view(lid, |v, w| {
            let lv = v.as_any_mut().downcast_mut::<ListView>().unwrap();
            lv.set_items(w, (0..50).map(|i| format!("row {i}")).collect());
        });
        let info = world.view_dyn(lid).unwrap().scroll_info(&world).unwrap();
        assert!(info.total > info.visible);
        world.with_view(lid, |v, w| v.scroll_to(w, 100));
        let info = world.view_dyn(lid).unwrap().scroll_info(&world).unwrap();
        assert_eq!(info.offset, 100);
    }
}
