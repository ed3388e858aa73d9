//! The table view: grid display, cell selection and editing, and
//! embedded-component cells.

use std::any::Any;

use atk_graphics::{Color, FontDesc, Point, Rect, Size};
use atk_wm::{Button, CursorShape, Graphic, Key, MouseAction};

use atk_core::{
    ChangeRec, DataId, MenuItem, ObserverRef, ScrollInfo, Update, View, ViewBase, ViewId, World,
};

use crate::data::{Cell, CellInput, TableData};
use crate::formula::col_to_letters;

/// Width of the row-number gutter.
const ROW_HEADER_W: i32 = 28;
/// Height of the column-letter header.
const COL_HEADER_H: i32 = 14;

/// The table/spreadsheet view.
#[derive(Clone)]
pub struct TableView {
    base: ViewBase,
    data: Option<DataId>,
    /// Selected cell.
    pub sel: (usize, usize),
    /// In-progress cell edit text (shown in place of the cell value).
    pub edit: Option<String>,
    scroll_y: i32,
    /// Embedded-cell child views in row-major cell order — also their
    /// paint order. A `Vec`, not a hash map: child order must not depend
    /// on hasher state.
    insets: Vec<(DataId, ViewId)>,
    font: FontDesc,
}

impl TableView {
    /// An unbound table view.
    pub fn new() -> TableView {
        TableView {
            base: ViewBase::new(),
            data: None,
            sel: (0, 0),
            edit: None,
            scroll_y: 0,
            insets: Vec::new(),
            font: FontDesc::default_body(),
        }
    }

    fn with_table<R>(&self, world: &World, f: impl FnOnce(&TableData) -> R) -> Option<R> {
        self.data.and_then(|d| world.data::<TableData>(d)).map(f)
    }

    /// The pixel rect of a cell in view coordinates.
    pub fn cell_rect(&self, world: &World, r: usize, c: usize) -> Option<Rect> {
        self.with_table(world, |t| {
            if r >= t.rows() || c >= t.cols() {
                return None;
            }
            let x = ROW_HEADER_W + t.col_widths[..c].iter().sum::<i32>();
            let y = COL_HEADER_H + t.row_heights[..r].iter().sum::<i32>() - self.scroll_y;
            Some(Rect::new(x, y, t.col_widths[c], t.row_heights[r]))
        })
        .flatten()
    }

    /// The cell at a view-local point.
    pub fn cell_at(&self, world: &World, pt: Point) -> Option<(usize, usize)> {
        self.with_table(world, |t| {
            if pt.x < ROW_HEADER_W || pt.y < COL_HEADER_H {
                return None;
            }
            let mut x = ROW_HEADER_W;
            let mut col = None;
            for (ci, w) in t.col_widths.iter().enumerate() {
                if pt.x < x + w {
                    col = Some(ci);
                    break;
                }
                x += w;
            }
            let mut y = COL_HEADER_H - self.scroll_y;
            let mut row = None;
            for (ri, h) in t.row_heights.iter().enumerate() {
                if pt.y < y + h {
                    if pt.y >= y {
                        row = Some(ri);
                    }
                    break;
                }
                y += h;
            }
            match (row, col) {
                (Some(r), Some(c)) => Some((r, c)),
                _ => None,
            }
        })
        .flatten()
    }

    /// Commits the pending edit into the selected cell.
    pub fn commit_edit(&mut self, world: &mut World) {
        let Some(text) = self.edit.take() else {
            return;
        };
        let Some(data_id) = self.data else { return };
        let (r, c) = self.sel;
        let rec = match world.data_mut::<TableData>(data_id) {
            Some(t) => t.set_cell(r, c, CellInput::Raw(text)),
            None => return,
        };
        world.notify(data_id, rec);
    }

    fn ensure_insets(&mut self, world: &mut World) {
        let Some(data_id) = self.data else { return };
        let embeds: Vec<(usize, usize, DataId, String)> = self
            .with_table(world, |t| {
                let mut v = Vec::new();
                for r in 0..t.rows() {
                    for c in 0..t.cols() {
                        if let Cell::Embedded { data, view_class } = t.cell(r, c) {
                            v.push((r, c, *data, view_class.clone()));
                        }
                    }
                }
                v
            })
            .unwrap_or_default();
        let _ = data_id;
        for (r, c, data, view_class) in embeds {
            if self.inset_view(data).is_none() {
                if let Ok(vid) = world.new_view(&view_class) {
                    world.set_view_parent(vid, Some(self.base.id));
                    world.with_view(vid, |v, w| v.set_data_object(w, data));
                    self.insets.push((data, vid));
                }
            }
            if let (Some(vid), Some(rect)) = (self.inset_view(data), self.cell_rect(world, r, c)) {
                world.set_view_bounds(vid, rect.inset(1));
            }
        }
    }

    fn inset_view(&self, data: DataId) -> Option<ViewId> {
        self.insets
            .iter()
            .find(|(d, _)| *d == data)
            .map(|(_, v)| *v)
    }

    fn move_sel(&mut self, world: &mut World, dr: i32, dc: i32) {
        self.commit_edit(world);
        let (rows, cols) = self
            .with_table(world, |t| (t.rows(), t.cols()))
            .unwrap_or((1, 1));
        let r = (self.sel.0 as i32 + dr).clamp(0, rows.saturating_sub(1) as i32) as usize;
        let c = (self.sel.1 as i32 + dc).clamp(0, cols.saturating_sub(1) as i32) as usize;
        self.sel = (r, c);
        world.post_damage_full(self.base.id);
    }
}

impl Default for TableView {
    fn default() -> Self {
        TableView::new()
    }
}

impl View for TableView {
    fn class_name(&self) -> &'static str {
        "tablev"
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
    fn children(&self) -> Vec<ViewId> {
        self.insets.iter().map(|(_, v)| *v).collect()
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
        self.with_table(world, |t| {
            Size::new(
                ROW_HEADER_W + t.total_width() + 1,
                COL_HEADER_H + t.total_height() + 1,
            )
        })
        .unwrap_or(Size::new(80, 40))
    }

    fn layout(&mut self, world: &mut World) {
        self.ensure_insets(world);
    }

    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, update: Update) {
        self.ensure_insets(world);
        let Some(data_id) = self.data else { return };
        let size = world.view_bounds(self.base.id).size();
        let view_rect = Rect::at(Point::ORIGIN, size);

        struct CellDraw {
            rect: Rect,
            text: String,
            right_align: bool,
        }
        let mut cells: Vec<CellDraw> = Vec::new();
        let mut grid_lines: Vec<(Point, Point)> = Vec::new();
        let mut headers: Vec<(Rect, String)> = Vec::new();
        {
            let Some(t) = world.data::<TableData>(data_id) else {
                return;
            };
            // Column headers.
            let mut x = ROW_HEADER_W;
            for (c, w) in t.col_widths.iter().enumerate() {
                headers.push((Rect::new(x, 0, *w, COL_HEADER_H), col_to_letters(c)));
                grid_lines.push((Point::new(x - 1, 0), Point::new(x - 1, size.height - 1)));
                x += w;
            }
            grid_lines.push((Point::new(x - 1, 0), Point::new(x - 1, size.height - 1)));
            // Row headers.
            let mut y = COL_HEADER_H - self.scroll_y;
            for (r, h) in t.row_heights.iter().enumerate() {
                headers.push((Rect::new(0, y, ROW_HEADER_W, *h), format!("{}", r + 1)));
                grid_lines.push((Point::new(0, y - 1), Point::new(size.width - 1, y - 1)));
                y += h;
            }
            grid_lines.push((Point::new(0, y - 1), Point::new(size.width - 1, y - 1)));
            // Cells.
            for r in 0..t.rows() {
                for c in 0..t.cols() {
                    let Some(rect) = ({
                        let x = ROW_HEADER_W + t.col_widths[..c].iter().sum::<i32>();
                        let y =
                            COL_HEADER_H + t.row_heights[..r].iter().sum::<i32>() - self.scroll_y;
                        Some(Rect::new(x, y, t.col_widths[c], t.row_heights[r]))
                    }) else {
                        continue;
                    };
                    if !g.clip_touches(rect) || !rect.intersects(view_rect) {
                        continue;
                    }
                    let cell = t.cell(r, c);
                    if matches!(cell, Cell::Embedded { .. }) {
                        continue; // Drawn as a child view.
                    }
                    let editing = self.edit.is_some() && self.sel == (r, c);
                    let text = if editing {
                        format!("{}|", self.edit.as_deref().unwrap_or(""))
                    } else {
                        cell.display()
                    };
                    cells.push(CellDraw {
                        rect,
                        text,
                        right_align: matches!(cell, Cell::Number(_) | Cell::Formula { .. })
                            && !editing,
                    });
                }
            }
        }

        g.set_font(self.font.clone());
        g.set_foreground(Color::LIGHT_GRAY);
        g.fill_rect(Rect::new(0, 0, size.width, COL_HEADER_H));
        g.fill_rect(Rect::new(0, 0, ROW_HEADER_W, size.height));
        g.set_foreground(Color::BLACK);
        for (a, b) in grid_lines {
            g.set_foreground(Color::GRAY);
            g.draw_line(a, b);
        }
        g.set_foreground(Color::BLACK);
        for (rect, label) in headers {
            g.draw_string_centered(rect, &label);
        }
        for cd in cells {
            if cd.right_align {
                g.draw_string_right(cd.rect.inset(1), &cd.text);
            } else {
                let m = g.font_metrics();
                let y = cd.rect.y + (cd.rect.height - m.ascent - m.descent) / 2 + m.ascent;
                g.draw_string_baseline(Point::new(cd.rect.x + 3, y), &cd.text);
            }
        }
        // Embedded children.
        let inset_ids: Vec<ViewId> = self.insets.iter().map(|(_, v)| *v).collect();
        for vid in inset_ids {
            world.draw_child(vid, g, update);
        }
        // Selection border.
        if let Some(rect) = self.cell_rect(world, self.sel.0, self.sel.1) {
            g.set_foreground(Color::BLACK);
            g.draw_rect(rect);
            g.draw_rect(rect.inset(1));
        }
    }

    fn mouse(&mut self, world: &mut World, action: MouseAction, pt: Point) -> bool {
        // Embedded cells are editable in place.
        for &(_, vid) in self.insets.iter().rev() {
            let b = world.view_bounds(vid);
            if b.contains(pt) && world.mouse_to_child(vid, action, pt) {
                return true;
            }
        }
        if let MouseAction::Down(Button::Left) = action {
            if let Some(cell) = self.cell_at(world, pt) {
                self.commit_edit(world);
                self.sel = cell;
                world.request_focus(self.base.id);
                world.post_damage_full(self.base.id);
            }
            return true;
        }
        matches!(
            action,
            MouseAction::Up(Button::Left) | MouseAction::Drag(Button::Left)
        )
    }

    fn key(&mut self, world: &mut World, key: Key) -> bool {
        match key {
            Key::Char(c) => {
                self.edit.get_or_insert_with(String::new).push(c);
                world.post_damage_full(self.base.id);
                true
            }
            Key::Backspace => {
                if let Some(e) = self.edit.as_mut() {
                    e.pop();
                    world.post_damage_full(self.base.id);
                }
                true
            }
            Key::Return => {
                self.commit_edit(world);
                self.move_sel(world, 1, 0);
                true
            }
            Key::Tab => {
                self.commit_edit(world);
                self.move_sel(world, 0, 1);
                true
            }
            Key::Escape => {
                self.edit = None;
                world.post_damage_full(self.base.id);
                true
            }
            Key::Up => {
                self.move_sel(world, -1, 0);
                true
            }
            Key::Down => {
                self.move_sel(world, 1, 0);
                true
            }
            Key::Left => {
                self.move_sel(world, 0, -1);
                true
            }
            Key::Right => {
                self.move_sel(world, 0, 1);
                true
            }
            Key::Delete => {
                if let Some(data_id) = self.data {
                    let (r, c) = self.sel;
                    if let Some(t) = world.data_mut::<TableData>(data_id) {
                        let rec = t.set_cell(r, c, CellInput::Clear);
                        world.notify(data_id, rec);
                    }
                }
                true
            }
            _ => false,
        }
    }

    fn perform(&mut self, world: &mut World, command: &str) -> bool {
        let Some(data_id) = self.data else {
            return false;
        };
        match command {
            "table-add-row" => {
                let rec = world.data_mut::<TableData>(data_id).map(|t| t.add_row());
                if let Some(rec) = rec {
                    world.notify(data_id, rec);
                }
                true
            }
            "table-add-col" => {
                let rec = world.data_mut::<TableData>(data_id).map(|t| t.add_col());
                if let Some(rec) = rec {
                    world.notify(data_id, rec);
                }
                true
            }
            "table-recalc" => {
                if let Some(t) = world.data_mut::<TableData>(data_id) {
                    t.recalc();
                }
                world.notify(data_id, ChangeRec::Full);
                true
            }
            _ => false,
        }
    }

    fn menus(&self, _world: &World) -> Vec<MenuItem> {
        vec![
            MenuItem::new("Table", "Add Row", "table-add-row"),
            MenuItem::new("Table", "Add Column", "table-add-col"),
            MenuItem::new("Table", "Recalculate", "table-recalc"),
        ]
    }

    fn cursor_at(&self, world: &World, pt: Point) -> Option<CursorShape> {
        for &(_, vid) in self.insets.iter().rev() {
            let b = world.view_bounds(vid);
            if b.contains(pt) {
                return world
                    .view_dyn(vid)
                    .and_then(|v| v.cursor_at(world, pt - b.origin()));
            }
        }
        Some(CursorShape::Arrow)
    }

    fn observed_changed(&mut self, world: &mut World, _source: DataId, change: &ChangeRec) {
        match change {
            ChangeRec::Cells { r0, c0, r1, c1 } => {
                let a = self.cell_rect(world, *r0, *c0);
                let b = self.cell_rect(world, *r1, *c1);
                match (a, b) {
                    (Some(a), Some(b)) => world.post_damage(self.base.id, a.union(b)),
                    _ => world.post_damage_full(self.base.id),
                }
            }
            _ => world.post_damage_full(self.base.id),
        }
    }

    fn scroll_info(&self, world: &World) -> Option<ScrollInfo> {
        let total = self
            .with_table(world, |t| COL_HEADER_H + t.total_height())
            .unwrap_or(0);
        Some(ScrollInfo {
            total: total.max(1),
            visible: world.view_bounds(self.base.id).height,
            offset: self.scroll_y,
        })
    }

    fn scroll_to(&mut self, world: &mut World, offset: i32) {
        let total = self
            .with_table(world, |t| COL_HEADER_H + t.total_height())
            .unwrap_or(0);
        let h = world.view_bounds(self.base.id).height;
        self.scroll_y = offset.clamp(0, (total - h).max(0));
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

    fn setup() -> (World, DataId, ViewId) {
        let mut world = World::new();
        world
            .catalog
            .register_data("table", || Box::new(TableData::new(1, 1)));
        world
            .catalog
            .register_view("tablev", || Box::new(TableView::new()));
        let data = world.insert_data(Box::new(TableData::new(4, 3)));
        let view = world.new_view("tablev").unwrap();
        world.with_view(view, |v, w| v.set_data_object(w, data));
        world.set_view_bounds(view, Rect::new(0, 0, 300, 120));
        let _ = world.take_damage_region();
        (world, data, view)
    }

    #[test]
    fn cell_geometry_round_trips() {
        let (world, _, view) = setup();
        let tv = world.view_as::<TableView>(view).unwrap();
        let rect = tv.cell_rect(&world, 1, 2).unwrap();
        let center = rect.center();
        assert_eq!(tv.cell_at(&world, center), Some((1, 2)));
        assert_eq!(tv.cell_at(&world, Point::new(2, 2)), None); // Headers.
    }

    #[test]
    fn click_selects_typing_edits_enter_commits() {
        let (mut world, data, view) = setup();
        let rect = world
            .view_as::<TableView>(view)
            .unwrap()
            .cell_rect(&world, 0, 0)
            .unwrap();
        world.with_view(view, |v, w| {
            v.mouse(w, MouseAction::Down(Button::Left), rect.center());
            for c in "42".chars() {
                v.key(w, Key::Char(c));
            }
            v.key(w, Key::Return);
        });
        assert_eq!(world.data::<TableData>(data).unwrap().value(0, 0), 42.0);
        // Enter moved selection down.
        assert_eq!(world.view_as::<TableView>(view).unwrap().sel, (1, 0));
    }

    #[test]
    fn formula_entry_via_keyboard() {
        let (mut world, data, view) = setup();
        world.with_view(view, |v, w| {
            let tv = v.as_any_mut().downcast_mut::<TableView>().unwrap();
            tv.sel = (0, 0);
            for c in "5".chars() {
                tv.key(w, Key::Char(c));
            }
            tv.key(w, Key::Return);
            tv.sel = (0, 1);
            for c in "=A1*2".chars() {
                tv.key(w, Key::Char(c));
            }
            tv.key(w, Key::Return);
        });
        assert_eq!(world.data::<TableData>(data).unwrap().value(0, 1), 10.0);
    }

    #[test]
    fn arrows_move_selection_and_clamp() {
        let (mut world, _, view) = setup();
        world.with_view(view, |v, w| {
            v.key(w, Key::Right);
            v.key(w, Key::Right);
            v.key(w, Key::Right); // Clamped at col 2.
            v.key(w, Key::Down);
        });
        assert_eq!(world.view_as::<TableView>(view).unwrap().sel, (1, 2));
        world.with_view(view, |v, w| {
            for _ in 0..9 {
                v.key(w, Key::Up);
            }
        });
        assert_eq!(world.view_as::<TableView>(view).unwrap().sel.0, 0);
    }

    #[test]
    fn cells_change_damages_subregion() {
        let (mut world, data, view) = setup();
        let rec =
            world
                .data_mut::<TableData>(data)
                .unwrap()
                .set_cell(2, 1, CellInput::Raw("7".into()));
        world.notify(data, rec);
        world.flush_notifications();
        let region = world.take_damage_region();
        let bb = region.bounding_box();
        let full = world.view_bounds(view);
        assert!(bb.area() < full.area() / 2, "damage {bb} vs {full}");
    }

    #[test]
    fn menu_commands_mutate_structure() {
        let (mut world, data, view) = setup();
        world.with_view(view, |v, w| {
            assert!(v.perform(w, "table-add-row"));
            assert!(v.perform(w, "table-add-col"));
        });
        let t = world.data::<TableData>(data).unwrap();
        assert_eq!((t.rows(), t.cols()), (5, 4));
    }
}
