//! # atk-text — the multi-font, multi-media text component
//!
//! The flagship component of the Andrew Toolkit (paper §1–2): styled text
//! that can embed *any* other component inline, editable in place. The
//! crate splits along the paper's data-object/view line:
//!
//! * [`buffer`] — gap buffer and sticky marks (the raw characters);
//! * [`style`] — styles, the interned style table, and run-length style
//!   assignment;
//! * [`data`] — [`TextData`]: characters + styles + embedded-object
//!   anchors, with the datastream external representation of §5;
//! * [`view`] — [`TextView`]: wrap layout, incremental redraw from change
//!   records, selection/caret editing, emacs-style bindings, and inset
//!   hosting for embedded components.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod data;
pub mod page;
pub mod style;
pub mod view;

pub use buffer::{GapBuffer, Gravity, MarkId, MarkTable};
pub use data::TextData;
pub use page::PageView;
pub use style::{Style, StyleId, StyleRuns, StyleTable};
pub use view::{RedrawStats, TextView};

use atk_class::ModuleSpec;
use atk_core::Catalog;

/// Registers the text component (module `"text"`).
pub fn register(catalog: &mut Catalog) {
    let _ = catalog.add_module(ModuleSpec::new(
        "text",
        96_000,
        &["text", "textview", "pageview"],
        &["components"],
    ));
    catalog.register_data("text", || Box::new(TextData::new()));
    catalog.register_view("textview", || Box::new(TextView::new()));
    catalog.register_view("pageview", || Box::new(PageView::new()));
    catalog.set_default_view("text", "textview");
}

#[cfg(test)]
mod tests {
    use super::*;
    use atk_core::{ChangeRec, ObserverRef, Update, View, World};
    use atk_graphics::{Color, Point, Rect, Size};
    use atk_wm::{Button, Key, MouseAction, WindowEvent, WindowSystem};

    fn world_with_text(content: &str) -> (World, atk_core::DataId, atk_core::ViewId) {
        let mut world = World::new();
        register(&mut world.catalog);
        atk_components::register(&mut world.catalog);
        let data = world.insert_data(Box::new(TextData::from_str(content)));
        let view = world.new_view("textview").unwrap();
        world.with_view(view, |v, w| v.set_data_object(w, data));
        world.set_view_bounds(view, Rect::new(0, 0, 300, 200));
        let _ = world.take_damage_region();
        (world, data, view)
    }

    fn draw_to_snapshot(world: &mut World, view: atk_core::ViewId) -> atk_graphics::Framebuffer {
        let mut ws = atk_wm::x11sim::X11Sim::new();
        let b = world.view_bounds(view);
        let mut win = ws.open_window("t", Size::new(b.width, b.height));
        world.with_view(view, |v, w| v.draw(w, win.graphic(), Update::Full));
        win.snapshot()
    }

    #[test]
    fn typing_inserts_at_caret() {
        let (mut world, data, view) = world_with_text("");
        world.with_view(view, |v, w| {
            for c in "hello".chars() {
                v.key(w, Key::Char(c));
            }
        });
        assert_eq!(world.data::<TextData>(data).unwrap().text(), "hello");
    }

    #[test]
    fn editing_commands_work() {
        let (mut world, data, view) = world_with_text("hello");
        world.with_view(view, |v, w| {
            let tv = v.as_any_mut().downcast_mut::<TextView>().unwrap();
            tv.set_caret(w, 5);
            tv.perform(w, "delete-backward-char");
            tv.perform(w, "beginning-of-line");
            tv.perform(w, "delete-char");
        });
        assert_eq!(world.data::<TextData>(data).unwrap().text(), "ell");
    }

    #[test]
    fn kill_and_yank() {
        let (mut world, data, view) = world_with_text("one\ntwo");
        world.with_view(view, |v, w| {
            let tv = v.as_any_mut().downcast_mut::<TextView>().unwrap();
            tv.set_caret(w, 0);
            tv.perform(w, "kill-line");
            tv.perform(w, "end-of-text");
            tv.perform(w, "yank");
        });
        assert_eq!(world.data::<TextData>(data).unwrap().text(), "\ntwoone");
    }

    #[test]
    fn click_places_caret_and_drag_selects() {
        let (mut world, _, view) = world_with_text("hello world");
        world.with_view(view, |v, w| {
            v.mouse(w, MouseAction::Down(Button::Left), Point::new(5, 3));
            v.mouse(w, MouseAction::Drag(Button::Left), Point::new(60, 3));
            v.mouse(w, MouseAction::Up(Button::Left), Point::new(60, 3));
        });
        let tv = world.view_as::<TextView>(view).unwrap();
        let sel = tv.selection().expect("drag should select");
        assert_eq!(sel.0, 0);
        assert!(sel.1 > 3, "selection end {}", sel.1);
    }

    #[test]
    fn layout_wraps_long_lines() {
        let (mut world, _, view) = world_with_text(&"word ".repeat(40));
        world.with_view(view, |v, w| {
            let tv = v.as_any_mut().downcast_mut::<TextView>().unwrap();
            tv.ensure_layout(w);
            assert!(tv.line_count() > 2, "lines: {}", tv.line_count());
        });
    }

    #[test]
    fn two_views_one_data_object() {
        // Paper §2's flagship scenario: edit in one view, see it in the
        // other.
        let (mut world, data, view1) = world_with_text("shared");
        let view2 = world.new_view("textview").unwrap();
        world.with_view(view2, |v, w| v.set_data_object(w, data));
        world.set_view_bounds(view2, Rect::new(0, 0, 300, 200));
        let _ = world.take_damage_region();

        world.with_view(view1, |v, w| {
            let tv = v.as_any_mut().downcast_mut::<TextView>().unwrap();
            tv.set_caret(w, 6);
            tv.insert_at_caret(w, "!");
        });
        world.flush_notifications();
        // Both views were notified; view2 posted damage.
        assert!(world.view_as::<TextView>(view2).unwrap().stats.partial >= 1);
        // And drawing view2 shows the new text.
        let snap = draw_to_snapshot(&mut world, view2);
        assert!(snap.count_pixels(snap.bounds(), Color::BLACK) > 20);
    }

    #[test]
    fn incremental_damage_is_smaller_for_late_edits() {
        let content = "line\n".repeat(30);
        let (mut world, data, view) = world_with_text(&content);
        world.with_view(view, |v, w| {
            v.as_any_mut()
                .downcast_mut::<TextView>()
                .unwrap()
                .ensure_layout(w);
        });
        // Edit far down but still on-screen: damage starts well below the
        // top of the view instead of covering everything.
        let rec = world.data_mut::<TextData>(data).unwrap().insert(70, "x");
        world.notify(data, rec);
        world.flush_notifications();
        let region = world.take_damage_region();
        assert!(
            region.bounding_box().y > 50,
            "damage {:?}",
            region.bounding_box()
        );
    }

    #[test]
    fn plain_insert_damages_a_single_line_strip() {
        // The delayed-update payoff: a character insert that does not
        // re-wrap damages only its own line.
        let content = "line\n".repeat(15);
        let (mut world, data, view) = world_with_text(&content);
        world.with_view(view, |v, w| {
            v.as_any_mut()
                .downcast_mut::<TextView>()
                .unwrap()
                .ensure_layout(w);
        });
        let rec = world.data_mut::<TextData>(data).unwrap().insert(7, "x");
        world.notify(data, rec);
        world.flush_notifications();
        let region = world.take_damage_region();
        let bb = region.bounding_box();
        assert!(bb.height <= 14, "one line strip, got {bb}");
        assert!(bb.y >= 8 && bb.y <= 16, "strip at line 1, got {bb}");
    }

    #[test]
    fn newline_insert_damages_only_the_shifted_strip() {
        let content = "aaa\nbbb\nccc\nddd\n";
        let (mut world, data, view) = world_with_text(content);
        world.with_view(view, |v, w| {
            v.as_any_mut()
                .downcast_mut::<TextView>()
                .unwrap()
                .ensure_layout(w);
        });
        // Split line 1: everything from line 1 down shifts. The split
        // line is damaged; the lines below it keep their pixels, which
        // move down a line instead of repainting.
        let rec = world.data_mut::<TextData>(data).unwrap().insert(5, "\n");
        world.notify(data, rec);
        world.flush_notifications();
        let region = world.take_damage_region();
        let bb = region.bounding_box();
        assert!(bb.y >= 8, "line 0 untouched, got {bb}");
        let moves = world.take_moves_for(view);
        let &[(rows, 0, dy)] = &moves[..] else {
            panic!("one move expected, got {moves:?}");
        };
        assert!(dy >= 8 && rows.y >= bb.y + dy, "{rows} moved by {dy}");
        assert_eq!(
            bb.bottom(),
            rows.y + dy,
            "the split line's strip ends where the tail lands"
        );
        assert!(bb.height >= 2 * dy, "the split line's two halves, got {bb}");
    }

    #[test]
    fn offscreen_edit_posts_no_damage() {
        let content = "line\n".repeat(200);
        let (mut world, data, view) = world_with_text(&content);
        world.with_view(view, |v, w| {
            v.as_any_mut()
                .downcast_mut::<TextView>()
                .unwrap()
                .ensure_layout(w);
        });
        // Far below the 200px viewport.
        let rec = world.data_mut::<TextData>(data).unwrap().insert(900, "x");
        world.notify(data, rec);
        world.flush_notifications();
        let region = world.take_damage_region();
        assert!(region.is_empty(), "offscreen edit damaged {region:?}");
    }

    #[test]
    fn styled_text_renders_differently() {
        let (mut world, data, view) = world_with_text("bold?");
        let plain = draw_to_snapshot(&mut world, view);
        let rec =
            world
                .data_mut::<TextData>(data)
                .unwrap()
                .apply_style(0, 5, Style::body().bolded());
        world.notify(data, rec);
        world.flush_notifications();
        let bold = draw_to_snapshot(&mut world, view);
        assert!(
            bold.count_pixels(bold.bounds(), Color::BLACK)
                > plain.count_pixels(plain.bounds(), Color::BLACK)
        );
    }

    #[test]
    fn embedded_text_inset_is_created_and_editable_in_place() {
        // A text inside a text: the host view instantiates a textview
        // inset through the catalog and routes mouse events into it.
        let (mut world, data, view) = world_with_text("before  after");
        let inner = world.insert_data(Box::new(TextData::from_str("INNER")));
        let rec = world
            .data_mut::<TextData>(data)
            .unwrap()
            .add_embedded(7, inner, "textview");
        world.notify(data, rec);
        world.flush_notifications();
        world.with_view(view, |v, w| {
            v.as_any_mut()
                .downcast_mut::<TextView>()
                .unwrap()
                .ensure_layout(w);
        });
        // The inset view exists and is parented under the host.
        let tv_children = world.view_dyn(view).unwrap().children();
        assert_eq!(tv_children.len(), 1);
        let inset = tv_children[0];
        assert_eq!(world.view_parent(inset), Some(view));
        assert_eq!(world.view_dyn(inset).unwrap().data_object(), Some(inner));
        // Draw once so inset bounds are placed, then click inside it.
        let _snap = draw_to_snapshot(&mut world, view);
        let b = world.view_bounds(inset);
        assert!(!b.is_empty());
        world.with_view(view, |v, w| {
            v.mouse(
                w,
                MouseAction::Down(Button::Left),
                Point::new(b.x + 2, b.y + 2),
            );
        });
        // The inner view got the caret (it consumed the press).
        let inner_tv = world.view_as::<TextView>(inset).unwrap();
        assert!(inner_tv.caret() <= 5);
    }

    /// A focused text view as the root of a window, painted, and the
    /// height of one of its lines.
    fn focused_window(content: &str) -> (World, atk_core::InteractionManager, i32) {
        let (mut world, _, view) = world_with_text(content);
        let mut ws = atk_wm::x11sim::X11Sim::new();
        let window = ws.open_window("t", Size::new(300, 200));
        let mut im = atk_core::InteractionManager::new(&mut world, window, view);
        world.with_view(view, |v, w| v.on_focus(w, true));
        im.pump(&mut world);
        let lines = content.lines().count() as i32;
        let line = world.view_as::<TextView>(view).unwrap().content_height() / lines;
        (world, im, line)
    }

    /// Pumps the queued events, then demands the incremental frame equal
    /// a full redraw.
    fn assert_repaints_like_a_full_redraw(
        world: &mut World,
        im: &mut atk_core::InteractionManager,
    ) {
        im.pump(world);
        let incremental = im.snapshot().unwrap();
        im.redraw_full(world);
        assert_eq!(incremental, im.snapshot().unwrap());
    }

    // Caret and selection moves damage only the lines they leave and
    // reach; each move below must still erase what it leaves.
    #[test]
    fn caret_and_selection_moves_repaint_like_a_full_redraw() {
        let (mut world, mut im, line) = focused_window("aaaa\nbbbb\ncccc\ndddd\neeee");
        let at = |l: i32| 2 + l * line;
        let steps = [
            WindowEvent::left_down(30, at(0)),
            WindowEvent::left_down(30, at(3)),
            WindowEvent::Mouse {
                action: MouseAction::Drag(Button::Left),
                pos: Point::new(10, at(1)),
            },
            WindowEvent::left_up(10, at(1)),
            WindowEvent::left_down(20, at(4)),
            WindowEvent::Key(Key::Up),
            WindowEvent::Key(Key::Ctrl('e')),
            WindowEvent::Key(Key::Ctrl('a')),
        ];
        for ev in steps {
            im.window_mut().post_event(ev);
            assert_repaints_like_a_full_redraw(&mut world, &mut im);
        }
    }

    // Events queued in one batch: the click lands while the keystroke's
    // change notification is still queued, so the line table still holds
    // the old positions and puts the new caret on the wrong line. Caret
    // damage must not trust the table then.
    #[test]
    fn a_click_behind_a_queued_edit_repaints_like_a_full_redraw() {
        let (mut world, mut im, line) = focused_window("aaaa\nbbbb\ncccc\ndddd");
        im.window_mut().post_event(WindowEvent::Key(Key::Char('x')));
        im.window_mut()
            .post_event(WindowEvent::left_down(1, 2 * line + 2));
        assert_repaints_like_a_full_redraw(&mut world, &mut im);
    }

    // A scroll moves inset bounds with the text even when the inset's
    // line is not redrawn: a stale inset would keep taking clicks at
    // its old place (the session fuzzer's backend differential found
    // one in fig1).
    #[test]
    fn scrolling_moves_insets_out_of_the_way() {
        let content = format!("before  after{}", "\nline".repeat(40));
        let (mut world, data, view) = world_with_text(&content);
        let inner = world.insert_data(Box::new(TextData::from_str("INNER")));
        let rec = world
            .data_mut::<TextData>(data)
            .unwrap()
            .add_embedded(7, inner, "textview");
        world.notify(data, rec);
        world.flush_notifications();
        let _snap = draw_to_snapshot(&mut world, view);
        let inset = world.view_dyn(view).unwrap().children()[0];
        let before = world.view_bounds(inset);
        world.with_view(view, |v, w| v.scroll_to(w, 100));
        let after = world.view_bounds(inset);
        assert_eq!(
            after,
            Rect::new(before.x, before.y - 100, before.width, before.height)
        );
        // A click where the inset used to be now lands in the host text.
        world.with_view(view, |v, w| {
            v.mouse(
                w,
                MouseAction::Down(Button::Left),
                Point::new(before.x + 2, before.y + 2),
            );
        });
        assert!(world.view_as::<TextView>(view).unwrap().caret() > 7);
    }

    #[test]
    fn scroll_protocol() {
        let (mut world, _, view) = world_with_text(&"line\n".repeat(100));
        world.with_view(view, |v, w| {
            v.as_any_mut()
                .downcast_mut::<TextView>()
                .unwrap()
                .ensure_layout(w);
        });
        let info = world.view_dyn(view).unwrap().scroll_info(&world).unwrap();
        assert!(info.total > info.visible);
        world.with_view(view, |v, w| v.scroll_to(w, info.total / 2));
        let info2 = world.view_dyn(view).unwrap().scroll_info(&world).unwrap();
        assert!(info2.offset > 0);
    }

    #[test]
    fn observer_detaches_on_rebind() {
        let (mut world, data, view) = world_with_text("a");
        let other = world.insert_data(Box::new(TextData::from_str("b")));
        world.with_view(view, |v, w| v.set_data_object(w, other));
        assert!(world
            .observers_of(data)
            .iter()
            .all(|o| *o != ObserverRef::View(view)));
        assert!(world.observers_of(other).contains(&ObserverRef::View(view)));
    }

    #[test]
    fn caret_follows_remote_edits() {
        let (mut world, data, view) = world_with_text("0123456789");
        world.with_view(view, |v, w| {
            v.as_any_mut()
                .downcast_mut::<TextView>()
                .unwrap()
                .set_caret(w, 8);
        });
        // Another agent inserts 3 chars at 2.
        let rec = world.data_mut::<TextData>(data).unwrap().insert(2, "abc");
        world.notify(data, rec);
        world.flush_notifications();
        assert_eq!(world.view_as::<TextView>(view).unwrap().caret(), 11);
        let _ = ChangeRec::Full;
    }
}

#[cfg(test)]
mod search_tests {
    use super::*;
    use atk_core::{View, World};
    use atk_graphics::Rect;

    fn setup(content: &str) -> (World, atk_core::ViewId) {
        let mut world = World::new();
        register(&mut world.catalog);
        atk_components::register(&mut world.catalog);
        let data = world.insert_data(Box::new(TextData::from_str(content)));
        let view = world.new_view("textview").unwrap();
        world.with_view(view, |v, w| v.set_data_object(w, data));
        world.set_view_bounds(view, Rect::new(0, 0, 300, 200));
        (world, view)
    }

    #[test]
    fn search_finds_and_selects_next_occurrence() {
        let (mut world, view) = setup("alpha beta gamma beta end");
        world.with_view(view, |v, w| {
            assert!(v.perform(w, "search:beta"));
        });
        let tv = world.view_as::<TextView>(view).unwrap();
        assert_eq!(tv.caret(), 6);
        assert_eq!(tv.selection(), Some((6, 10)));
        // Search again: the later occurrence.
        world.with_view(view, |v, w| {
            v.perform(w, "search:beta");
        });
        assert_eq!(world.view_as::<TextView>(view).unwrap().caret(), 17);
    }

    #[test]
    fn search_wraps_around() {
        let (mut world, view) = setup("needle in the hay");
        world.with_view(view, |v, w| {
            let tv = v.as_any_mut().downcast_mut::<TextView>().unwrap();
            tv.set_caret(w, 10);
            tv.perform(w, "search:needle");
        });
        assert_eq!(world.view_as::<TextView>(view).unwrap().caret(), 0);
    }

    #[test]
    fn search_miss_leaves_caret_alone() {
        let (mut world, view) = setup("plain text");
        world.with_view(view, |v, w| {
            v.perform(w, "search:zebra");
        });
        assert_eq!(world.view_as::<TextView>(view).unwrap().caret(), 0);
    }
}

#[cfg(test)]
mod caret_line_tests {
    use super::*;
    use atk_core::{View, World};
    use atk_graphics::Rect;

    fn setup(content: &str) -> (World, atk_core::ViewId) {
        let mut world = World::new();
        register(&mut world.catalog);
        atk_components::register(&mut world.catalog);
        let data = world.insert_data(Box::new(TextData::from_str(content)));
        let view = world.new_view("textview").unwrap();
        world.with_view(view, |v, w| v.set_data_object(w, data));
        world.set_view_bounds(view, Rect::new(0, 0, 300, 200));
        (world, view)
    }

    // Regression: a caret sitting exactly on a newline character falls
    // between line ranges ([start, end) with the next line starting at
    // end+1). line_index_of used to resolve that gap to the *document's
    // last* line, so next-line/previous-line computed the caret column
    // as caret - last_line.start and underflowed (found by the session
    // fuzzer in crates/check).
    #[test]
    fn caret_on_newline_moves_down_without_underflow() {
        let (mut world, view) = setup("ab\ncdef\nghi\njkl");
        world.with_view(view, |v, w| {
            let tv = v.as_any_mut().downcast_mut::<TextView>().unwrap();
            tv.set_caret(w, 2); // on the first '\n'
            tv.perform(w, "next-line");
        });
        // Column 2 of "cdef" is position 3 + 2 = 5.
        assert_eq!(world.view_as::<TextView>(view).unwrap().caret(), 5);
    }

    #[test]
    fn caret_on_newline_moves_up_to_short_line() {
        let (mut world, view) = setup("ab\ncdef\nghi");
        world.with_view(view, |v, w| {
            let tv = v.as_any_mut().downcast_mut::<TextView>().unwrap();
            tv.set_caret(w, 7); // on the second '\n', column 4 of "cdef"
            tv.perform(w, "previous-line");
        });
        // Column 4 clamps to the end of "ab" (position 2).
        assert_eq!(world.view_as::<TextView>(view).unwrap().caret(), 2);
    }
}
