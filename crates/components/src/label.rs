//! A static text label.

use std::any::Any;

use atk_graphics::{Color, FontDesc, Point, Rect, Size};
use atk_wm::Graphic;

use atk_core::{Update, View, ViewBase, ViewId, World};

/// A one-line, non-interactive text view.
#[derive(Clone)]
pub struct LabelView {
    base: ViewBase,
    text: String,
    font: FontDesc,
    color: Color,
    centered: bool,
}

impl LabelView {
    /// Creates a label.
    pub fn new(text: &str) -> LabelView {
        LabelView {
            base: ViewBase::new(),
            text: text.to_string(),
            font: FontDesc::default_body(),
            color: Color::BLACK,
            centered: false,
        }
    }

    /// Builder: use a specific font.
    pub fn with_font(mut self, font: FontDesc) -> LabelView {
        self.font = font;
        self
    }

    /// Builder: center the text.
    pub fn centered(mut self) -> LabelView {
        self.centered = true;
        self
    }

    /// The current text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Changes the text and posts damage.
    pub fn set_text(&mut self, world: &mut World, text: &str) {
        if self.text != text {
            self.text = text.to_string();
            world.post_damage_full(self.base.id);
        }
    }
}

impl View for LabelView {
    fn class_name(&self) -> &'static str {
        "label"
    }
    fn id(&self) -> ViewId {
        self.base.id
    }
    fn set_id(&mut self, id: ViewId) {
        self.base.id = id;
    }

    fn desired_size(&mut self, _world: &mut World, _budget: i32) -> Size {
        let m = self.font.metrics();
        Size::new(self.font.string_width(&self.text) + 4, m.line_height)
    }

    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, _update: Update) {
        let bounds = Rect::at(Point::ORIGIN, world.view_bounds(self.base.id).size());
        g.set_font(self.font.clone());
        g.set_foreground(self.color);
        if self.centered {
            g.draw_string_centered(bounds, &self.text);
        } else {
            let m = g.font_metrics();
            let y = (bounds.height - m.ascent - m.descent) / 2 + m.ascent;
            g.draw_string_baseline(Point::new(2, y), &self.text);
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
    use atk_graphics::Size;
    use atk_wm::WindowSystem;

    #[test]
    fn label_draws_its_text() {
        let mut world = World::new();
        let label = world.insert_view(Box::new(LabelView::new("Hi")));
        world.set_view_bounds(label, Rect::new(0, 0, 60, 12));
        let mut ws = atk_wm::x11sim::X11Sim::new();
        let mut win = ws.open_window("t", Size::new(60, 12));
        world.with_view(label, |v, w| {
            v.draw(w, win.graphic(), Update::Full);
        });
        let snap = win.snapshot();
        assert!(snap.count_pixels(snap.bounds(), Color::BLACK) > 8);
    }

    #[test]
    fn set_text_posts_damage() {
        let mut world = World::new();
        let label = world.insert_view(Box::new(LabelView::new("a")));
        world.set_view_bounds(label, Rect::new(0, 0, 60, 12));
        world.view_as_mut::<LabelView>(label);
        let mut lv = LabelView::new("a");
        lv.set_id(label);
        lv.set_text(&mut world, "b");
        assert!(world.has_damage());
    }

    #[test]
    fn desired_size_tracks_text_width() {
        let mut world = World::new();
        let mut short = LabelView::new("a");
        let mut long = LabelView::new("a much longer label");
        assert!(
            long.desired_size(&mut world, 1000).width > short.desired_size(&mut world, 1000).width
        );
    }
}
