//! The frame: message line, dialog facility, and the draggable divider
//! with its event *overlap band*.
//!
//! The paper's figure 1 shows a frame providing a message line above the
//! application body, and §3 uses the frame twice as the argument for
//! parental authority:
//!
//! * "The frame accepts the mouse event directly if it is close to the
//!   dividing line between its two children (in this case the user is
//!   allowed to adjust the position of the dividing line)."
//! * "In order to allow the user to easily drag that line, the frame
//!   allocates a slightly larger area to accept mouse events. **That area
//!   overlaps the space allocated to the frame's children.** If the
//!   handling of events was dictated by the screen layout, this
//!   interaction would be much more difficult to provide."
//!
//! [`FrameView`] implements exactly that: a ±[`GRAB_BAND`] band around the
//! divider in which the frame consumes mouse events that *physically* lie
//! inside a child. The integration tests drive a click into the band and
//! verify the child never sees it — and that the same click one pixel
//! outside the band reaches the child.
//!
//! The frame also provides the paper's footnote-4 dialog facility: a
//! question posed on the message line whose typed answer is dispatched as
//! a command, with the frame intercepting keystrokes (via `filter_key`,
//! more parental authority) while the dialog is up.

use std::any::Any;

use atk_graphics::{Color, FontDesc, Point, Rect, Size};
use atk_wm::{Button, CursorShape, Graphic, Key, MouseAction};

use atk_core::{MenuItem, Update, View, ViewBase, ViewId, World};

/// Height of the message line in pixels.
pub const MESSAGE_LINE_HEIGHT: i32 = 14;
/// Half-height of the divider's event overlap band.
pub const GRAB_BAND: i32 = 3;

/// A pending dialog: question, and where the answer goes.
#[derive(Clone)]
struct Dialog {
    question: String,
    answer: String,
    target: ViewId,
    command: String,
}

/// The frame view. See the module docs.
#[derive(Clone)]
pub struct FrameView {
    base: ViewBase,
    upper: Option<ViewId>,
    lower: Option<ViewId>,
    /// Fraction of the body height given to the upper child.
    divider_frac: f32,
    dragging_divider: bool,
    message: String,
    dialog: Option<Dialog>,
    font: FontDesc,
    /// Mouse events the frame consumed inside the overlap band
    /// (instrumentation for the E1 experiment).
    pub band_grabs: u64,
}

impl FrameView {
    /// An empty frame.
    pub fn new() -> FrameView {
        FrameView {
            base: ViewBase::new(),
            upper: None,
            lower: None,
            divider_frac: 0.5,
            dragging_divider: false,
            message: String::new(),
            dialog: None,
            font: FontDesc::default_body(),
            band_grabs: 0,
        }
    }

    /// Installs the single body child.
    pub fn set_body(&mut self, world: &mut World, body: ViewId) {
        world.set_view_parent(body, Some(self.base.id));
        self.upper = Some(body);
        self.lower = None;
        self.relayout(world);
    }

    /// Installs two panes separated by the draggable divider.
    pub fn set_panes(&mut self, world: &mut World, upper: ViewId, lower: ViewId) {
        world.set_view_parent(upper, Some(self.base.id));
        world.set_view_parent(lower, Some(self.base.id));
        self.upper = Some(upper);
        self.lower = Some(lower);
        self.relayout(world);
    }

    /// Sets the message line text.
    pub fn set_message(&mut self, world: &mut World, text: &str) {
        self.message = text.to_string();
        world.post_damage(
            self.base.id,
            Rect::new(
                0,
                0,
                world.view_bounds(self.base.id).width,
                MESSAGE_LINE_HEIGHT,
            ),
        );
    }

    /// The message line text.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Poses a question on the message line. When the user finishes the
    /// answer with Return, `target` receives `perform("{command}:{answer}")`.
    pub fn prompt(&mut self, world: &mut World, question: &str, target: ViewId, command: &str) {
        self.dialog = Some(Dialog {
            question: question.to_string(),
            answer: String::new(),
            target,
            command: command.to_string(),
        });
        world.post_damage_full(self.base.id);
    }

    /// True if a dialog is up.
    pub fn dialog_active(&self) -> bool {
        self.dialog.is_some()
    }

    /// Current divider fraction.
    pub fn divider_frac(&self) -> f32 {
        self.divider_frac
    }

    fn body_rect(&self, world: &World) -> Rect {
        let size = world.view_bounds(self.base.id).size();
        Rect::new(
            0,
            MESSAGE_LINE_HEIGHT,
            size.width,
            (size.height - MESSAGE_LINE_HEIGHT).max(0),
        )
    }

    /// Divider y in frame coordinates (only meaningful with two panes).
    pub fn divider_y(&self, world: &World) -> i32 {
        let body = self.body_rect(world);
        body.y + (body.height as f32 * self.divider_frac) as i32
    }

    fn relayout(&mut self, world: &mut World) {
        let body = self.body_rect(world);
        match (self.upper, self.lower) {
            (Some(only), None) => {
                world.set_view_bounds(only, body);
            }
            (Some(upper), Some(lower)) => {
                let dy = self.divider_y(world);
                world.set_view_bounds(upper, Rect::new(body.x, body.y, body.width, dy - body.y));
                world.set_view_bounds(
                    lower,
                    Rect::new(body.x, dy + 1, body.width, body.bottom() - dy - 1),
                );
            }
            _ => {}
        }
    }

    fn in_grab_band(&self, world: &World, pt: Point) -> bool {
        if self.lower.is_none() {
            return false;
        }
        let dy = self.divider_y(world);
        (pt.y - dy).abs() <= GRAB_BAND && self.body_rect(world).contains(pt)
    }
}

impl Default for FrameView {
    fn default() -> Self {
        FrameView::new()
    }
}

impl View for FrameView {
    fn class_name(&self) -> &'static str {
        "frame"
    }
    fn id(&self) -> ViewId {
        self.base.id
    }
    fn set_id(&mut self, id: ViewId) {
        self.base.id = id;
    }
    fn children(&self) -> Vec<ViewId> {
        self.upper.into_iter().chain(self.lower).collect()
    }

    /// The divider is drawn over the panes; a lone pane is never
    /// painted over.
    fn paints_over_children(&self) -> bool {
        self.lower.is_some()
    }

    fn desired_size(&mut self, world: &mut World, budget: i32) -> Size {
        let mut s = Size::new(budget, MESSAGE_LINE_HEIGHT);
        if let Some(u) = self.upper {
            let us = world
                .with_view(u, |v, w| v.desired_size(w, budget))
                .unwrap_or(Size::ZERO);
            s.height += us.height;
            s.width = s.width.max(us.width);
        }
        s
    }

    fn layout(&mut self, world: &mut World) {
        self.relayout(world);
    }

    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, update: Update) {
        let size = world.view_bounds(self.base.id).size();
        // Message line.
        let msg_rect = Rect::new(0, 0, size.width, MESSAGE_LINE_HEIGHT);
        if g.clip_touches(msg_rect) {
            g.set_foreground(Color::WHITE);
            g.fill_rect(msg_rect);
            g.set_foreground(Color::BLACK);
            g.draw_line(
                Point::new(0, MESSAGE_LINE_HEIGHT - 1),
                Point::new(size.width - 1, MESSAGE_LINE_HEIGHT - 1),
            );
            g.set_font(self.font.clone());
            let text = match &self.dialog {
                Some(d) => format!("{} {}", d.question, d.answer),
                None => self.message.clone(),
            };
            g.draw_string(Point::new(3, 2), &text);
        }
        // Children, then the divider painted *over* them (the parent
        // repaints after the children — the ordering §3 motivates).
        if let Some(u) = self.upper {
            world.draw_child(u, g, update);
        }
        if let Some(l) = self.lower {
            world.draw_child(l, g, update);
            let dy = self.divider_y(world);
            g.set_foreground(Color::BLACK);
            g.draw_line(Point::new(0, dy), Point::new(size.width - 1, dy));
        }
    }

    fn mouse(&mut self, world: &mut World, action: MouseAction, pt: Point) -> bool {
        // An in-progress divider drag owns the stream.
        if self.dragging_divider {
            match action {
                MouseAction::Drag(Button::Left) => {
                    let body = self.body_rect(world);
                    if body.height > 2 {
                        let frac = (pt.y - body.y) as f32 / body.height as f32;
                        self.divider_frac = frac.clamp(0.1, 0.9);
                        self.relayout(world);
                        world.post_damage_full(self.base.id);
                    }
                    return true;
                }
                MouseAction::Up(Button::Left) => {
                    self.dragging_divider = false;
                    return true;
                }
                _ => {}
            }
        }
        // The overlap band: the frame takes these even though the point
        // is physically inside a child.
        if self.in_grab_band(world, pt) {
            if let MouseAction::Down(Button::Left) = action {
                self.dragging_divider = true;
                self.band_grabs += 1;
                return true;
            }
            if matches!(action, MouseAction::Movement) {
                return true;
            }
        }
        // Message line clicks are the frame's.
        if pt.y < MESSAGE_LINE_HEIGHT {
            return true;
        }
        for child in [self.upper, self.lower].into_iter().flatten() {
            if world.mouse_to_child(child, action, pt) {
                return true;
            }
        }
        false
    }

    /// Dialog mode intercepts every keystroke — parental authority over
    /// the keyboard.
    fn filter_key(&mut self, world: &mut World, key: Key, _target: ViewId) -> Option<Key> {
        let Some(dialog) = self.dialog.as_mut() else {
            return Some(key);
        };
        match key {
            Key::Char(c) => dialog.answer.push(c),
            Key::Backspace => {
                dialog.answer.pop();
            }
            Key::Return => {
                let d = self.dialog.take().expect("dialog checked above");
                let cmd = format!("{}:{}", d.command, d.answer);
                world.with_view(d.target, |v, w| v.perform(w, &cmd));
            }
            Key::Escape => {
                self.dialog = None;
            }
            _ => {}
        }
        world.post_damage(
            self.base.id,
            Rect::new(
                0,
                0,
                world.view_bounds(self.base.id).width,
                MESSAGE_LINE_HEIGHT,
            ),
        );
        None
    }

    fn menus(&self, _world: &World) -> Vec<MenuItem> {
        vec![
            MenuItem::new("File", "Save", "save-document"),
            MenuItem::new("File", "Quit", "quit"),
        ]
    }

    fn perform(&mut self, world: &mut World, command: &str) -> bool {
        match command {
            "quit" => {
                self.set_message(world, "quit requested");
                true
            }
            _ => false,
        }
    }

    fn cursor_at(&self, world: &World, pt: Point) -> Option<CursorShape> {
        if self.in_grab_band(world, pt) {
            return Some(CursorShape::HorizontalDrag);
        }
        for child in [self.upper, self.lower].into_iter().flatten() {
            let b = world.view_bounds(child);
            if b.contains(pt) {
                return world
                    .view_dyn(child)
                    .and_then(|v| v.cursor_at(world, pt - b.origin()));
            }
        }
        None
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

    struct CountView {
        base: ViewBase,
        mouse_events: u64,
        commands: Vec<String>,
    }
    impl CountView {
        fn new() -> CountView {
            CountView {
                base: ViewBase::new(),
                mouse_events: 0,
                commands: Vec::new(),
            }
        }
    }
    impl View for CountView {
        fn class_name(&self) -> &'static str {
            "count"
        }
        fn id(&self) -> ViewId {
            self.base.id
        }
        fn set_id(&mut self, id: ViewId) {
            self.base.id = id;
        }
        fn desired_size(&mut self, _w: &mut World, _b: i32) -> Size {
            Size::new(10, 10)
        }
        fn draw(&mut self, _w: &mut World, _g: &mut dyn Graphic, _u: Update) {}
        fn mouse(&mut self, _w: &mut World, _a: MouseAction, _p: Point) -> bool {
            self.mouse_events += 1;
            true
        }
        fn perform(&mut self, _w: &mut World, command: &str) -> bool {
            self.commands.push(command.to_string());
            true
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_pane_frame() -> (World, ViewId, ViewId, ViewId) {
        let mut world = World::new();
        let upper = world.insert_view(Box::new(CountView::new()));
        let lower = world.insert_view(Box::new(CountView::new()));
        let frame = world.insert_view(Box::new(FrameView::new()));
        world.set_view_bounds(frame, Rect::new(0, 0, 200, 214));
        world.with_view(frame, |v, w| {
            v.as_any_mut()
                .downcast_mut::<FrameView>()
                .unwrap()
                .set_panes(w, upper, lower);
        });
        (world, frame, upper, lower)
    }

    #[test]
    fn panes_split_at_divider() {
        let (world, frame, upper, lower) = two_pane_frame();
        let fv = world.view_as::<FrameView>(frame).unwrap();
        let dy = fv.divider_y(&world);
        assert_eq!(dy, MESSAGE_LINE_HEIGHT + 100);
        assert_eq!(world.view_bounds(upper).bottom(), dy);
        assert_eq!(world.view_bounds(lower).y, dy + 1);
    }

    #[test]
    fn overlap_band_steals_events_from_children() {
        let (mut world, frame, upper, lower) = two_pane_frame();
        let dy = world.view_as::<FrameView>(frame).unwrap().divider_y(&world);
        // Click 2px above the divider: physically inside `upper`, but
        // within the grab band — the frame must take it.
        world.with_view(frame, |v, w| {
            v.mouse(w, MouseAction::Down(Button::Left), Point::new(50, dy - 2));
            v.mouse(w, MouseAction::Up(Button::Left), Point::new(50, dy - 2));
        });
        assert_eq!(world.view_as::<CountView>(upper).unwrap().mouse_events, 0);
        assert_eq!(world.view_as::<CountView>(lower).unwrap().mouse_events, 0);
        assert_eq!(world.view_as::<FrameView>(frame).unwrap().band_grabs, 1);
    }

    #[test]
    fn outside_band_reaches_child() {
        let (mut world, frame, upper, _lower) = two_pane_frame();
        let dy = world.view_as::<FrameView>(frame).unwrap().divider_y(&world);
        world.with_view(frame, |v, w| {
            v.mouse(
                w,
                MouseAction::Down(Button::Left),
                Point::new(50, dy - GRAB_BAND - 1),
            );
        });
        assert_eq!(world.view_as::<CountView>(upper).unwrap().mouse_events, 1);
    }

    #[test]
    fn divider_drag_moves_split() {
        let (mut world, frame, upper, _lower) = two_pane_frame();
        let dy = world.view_as::<FrameView>(frame).unwrap().divider_y(&world);
        world.with_view(frame, |v, w| {
            v.mouse(w, MouseAction::Down(Button::Left), Point::new(50, dy));
            v.mouse(w, MouseAction::Drag(Button::Left), Point::new(50, dy + 40));
            v.mouse(w, MouseAction::Up(Button::Left), Point::new(50, dy + 40));
        });
        let new_dy = world.view_as::<FrameView>(frame).unwrap().divider_y(&world);
        assert_eq!(new_dy, dy + 40);
        assert_eq!(world.view_bounds(upper).bottom(), new_dy);
    }

    #[test]
    fn cursor_is_drag_in_band_only() {
        let (world, frame, ..) = two_pane_frame();
        let fv = world.view_dyn(frame).unwrap();
        let dy = world.view_as::<FrameView>(frame).unwrap().divider_y(&world);
        assert_eq!(
            fv.cursor_at(&world, Point::new(10, dy + GRAB_BAND)),
            Some(CursorShape::HorizontalDrag)
        );
        assert_eq!(
            fv.cursor_at(&world, Point::new(10, dy + GRAB_BAND + 2)),
            None
        );
    }

    #[test]
    fn dialog_intercepts_keys_and_dispatches_answer() {
        let (mut world, frame, upper, _) = two_pane_frame();
        world.with_view(frame, |v, w| {
            let f = v.as_any_mut().downcast_mut::<FrameView>().unwrap();
            f.prompt(w, "File name?", upper, "open");
        });
        // Keys are filtered (consumed), accumulating the answer.
        let filtered = world.with_view(frame, |v, w| {
            let mut consumed = true;
            for k in [Key::Char('a'), Key::Char('b'), Key::Return] {
                if v.filter_key(w, k, upper).is_some() {
                    consumed = false;
                }
            }
            consumed
        });
        assert_eq!(filtered, Some(true));
        assert_eq!(
            world.view_as::<CountView>(upper).unwrap().commands,
            vec!["open:ab".to_string()]
        );
        assert!(!world.view_as::<FrameView>(frame).unwrap().dialog_active());
    }

    #[test]
    fn message_line_updates() {
        let (mut world, frame, ..) = two_pane_frame();
        world.with_view(frame, |v, w| {
            v.as_any_mut()
                .downcast_mut::<FrameView>()
                .unwrap()
                .set_message(w, "hello");
        });
        assert_eq!(
            world.view_as::<FrameView>(frame).unwrap().message(),
            "hello"
        );
        assert!(world.has_damage());
    }

    #[test]
    fn frame_contributes_file_menus() {
        let (world, frame, ..) = two_pane_frame();
        let menus = world.view_dyn(frame).unwrap().menus(&world);
        assert!(menus.iter().any(|m| m.label == "Quit"));
    }
}
