//! Views and the vocabulary of the view tree (paper §3).
//!
//! A view "contains the information about how the data is to be displayed
//! and how the user is to manipulate the data object". Views form a tree;
//! each view is a rectangle completely contained in its parent. The
//! toolkit's defining architectural choice — *parental authority* — is
//! visible in this trait's shape: there is no global hit-testing; a
//! parent's [`View::mouse`] decides whether to consume an event or
//! forward it (with translated coordinates) to a child of its choosing,
//! and ancestors get [`View::filter_key`] before the focused view sees a
//! keystroke.

use std::any::Any;

use atk_graphics::{Point, Rect, Size};
use atk_wm::{CursorShape, Graphic, Key, MouseAction};

use crate::data::ChangeRec;
use crate::ids::{DataId, ViewId};
use crate::menus::MenuItem;
use crate::world::World;

/// What kind of repaint a draw call is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// Redraw everything in the view's bounds.
    Full,
    /// Redraw only inside the given rectangle (view-local
    /// coordinates): the bounding box of the damage. The clip holds the
    /// damage itself, which [`Graphic::clip_touches`] tests.
    Partial(Rect),
}

impl Update {
    /// The update translated into a child's coordinate space.
    pub fn translated(self, dx: i32, dy: i32) -> Update {
        match self {
            Update::Full => Update::Full,
            Update::Partial(r) => Update::Partial(r.translate(dx, dy)),
        }
    }

    /// The rect that needs repainting, given the view's local bounds.
    pub fn rect_for(self, local_bounds: Rect) -> Rect {
        match self {
            Update::Full => local_bounds,
            Update::Partial(r) => r.intersect(local_bounds),
        }
    }
}

/// Interface a scrollable view exposes so a scrollbar (or keyboard
/// paging) can drive it without knowing its type — one of the paper's
/// "minimal protocols" between components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrollInfo {
    /// Total extent of the content, in content units (pixels or lines).
    pub total: i32,
    /// Extent currently visible.
    pub visible: i32,
    /// Offset of the top of the visible portion.
    pub offset: i32,
}

/// The view half of a component.
///
/// Geometry lives in the [`World`]: a view's bounds (in parent
/// coordinates) are set by its parent during layout with
/// [`World::set_view_bounds`] and queried with [`World::view_bounds`].
/// During [`View::draw`] the graphic is already translated and clipped so
/// the view draws in its own local space, `(0,0)`–`(w,h)`.
pub trait View: Any {
    /// Class name, as in the class registry.
    fn class_name(&self) -> &'static str;

    /// This view's id (assigned at insertion).
    fn id(&self) -> ViewId;
    /// Records the id; called exactly once by [`World::insert_view`].
    fn set_id(&mut self, id: ViewId);

    /// The data object displayed, if any (a scrollbar has none — paper
    /// §2: "there are many cases when a view will be used to solely
    /// provide a user interface function").
    fn data_object(&self) -> Option<DataId> {
        None
    }

    /// Binds this view to a data object. This is the generic step an
    /// embedding parent performs after instantiating a view class from
    /// the catalog — it is how a text view can host a table view it was
    /// never compiled against. Views that take a data object should also
    /// register themselves as observers here. Returns false if this view
    /// kind takes no data object.
    fn set_data_object(&mut self, world: &mut World, data: DataId) -> bool {
        let _ = (world, data);
        false
    }

    /// Direct children, for tree walks and diagnostics.
    fn children(&self) -> Vec<ViewId> {
        Vec::new()
    }

    /// Preferred size given a width budget (used by parents embedding
    /// this view, e.g. text wrapping an inset around it).
    fn desired_size(&mut self, world: &mut World, width_budget: i32) -> Size;

    /// Lays out children after the view's bounds changed. Called by
    /// [`World::set_view_bounds`].
    fn layout(&mut self, world: &mut World) {
        let _ = world;
    }

    /// Draws the view into `g` (already translated/clipped to local
    /// space).
    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, update: Update);

    /// Handles a mouse event at `pt` (local coordinates). Returns true if
    /// the event was consumed (by this view or a descendant it chose to
    /// forward to).
    fn mouse(&mut self, world: &mut World, action: MouseAction, pt: Point) -> bool {
        let _ = (world, action, pt);
        false
    }

    /// Parental authority over keystrokes: every ancestor of the focused
    /// view sees the key first (root-most first) and may consume it
    /// (return `None`) or transform it. The default passes it through.
    fn filter_key(&mut self, world: &mut World, key: Key, target: ViewId) -> Option<Key> {
        let _ = (world, target);
        Some(key)
    }

    /// Handles a keystroke delivered to this view (it has the input
    /// focus, or a descendant declined it). Returns true if handled.
    fn key(&mut self, world: &mut World, key: Key) -> bool {
        let _ = (world, key);
        false
    }

    /// Menu items this view contributes. The interaction manager merges
    /// contributions along the focus path, children overriding parents —
    /// the paper's menu negotiation.
    fn menus(&self, world: &World) -> Vec<MenuItem> {
        let _ = world;
        Vec::new()
    }

    /// Executes a named command (from a menu selection or a key binding).
    /// Returns true if the command was recognized.
    fn perform(&mut self, world: &mut World, command: &str) -> bool {
        let _ = (world, command);
        false
    }

    /// The cursor to show at `pt` (local coordinates), or `None` to defer
    /// to the parent — the paper's cursor negotiation.
    fn cursor_at(&self, world: &World, pt: Point) -> Option<CursorShape> {
        let _ = (world, pt);
        None
    }

    /// A data object this view observes has changed (the delayed-update
    /// protocol). Implementations typically map the change record to a
    /// damage rect and post it.
    fn observed_changed(&mut self, world: &mut World, source: DataId, change: &ChangeRec) {
        let _ = (source, change);
        // Default: conservative full repaint.
        world.post_damage_full(self.id());
    }

    /// Focus gained/lost notification.
    fn on_focus(&mut self, world: &mut World, gained: bool) {
        let _ = (world, gained);
    }

    /// A timer scheduled with [`World::schedule_timer`] fired.
    fn timer(&mut self, world: &mut World, token: u32) {
        let _ = (world, token);
    }

    /// Whether [`View::draw`] may paint inside a child's bounds after
    /// the child drew (a border, a highlight, a divider over it). A
    /// child of such a view does not own the pixels it shows, so
    /// [`World::post_move`] damages its pixels instead of moving them.
    /// The default says yes; a container that only ever paints beside
    /// its children says no.
    fn paints_over_children(&self) -> bool {
        true
    }

    /// Scroll protocol, if this view is scrollable.
    fn scroll_info(&self, world: &World) -> Option<ScrollInfo> {
        let _ = world;
        None
    }

    /// Scrolls so that content offset `offset` is at the top.
    fn scroll_to(&mut self, world: &mut World, offset: i32) {
        let _ = (world, offset);
    }

    /// Deep-copies this view for a template fork ([`World::fork`]).
    ///
    /// The copy must be observably identical: same ids recorded, same
    /// layout/caret/scroll state, so a forked session behaves
    /// byte-for-byte like the session it was forked from. Classes that
    /// cannot be forked return `None` (the default), which makes the
    /// whole world fork fail naming the class — test probes simply
    /// never appear in forkable scenes.
    fn fork(&self) -> Option<Box<dyn View>> {
        None
    }

    /// Bytes of immutable payload this view shares with its forks via
    /// `Arc` instead of copying (summed into `world.fork_shared_bytes`).
    fn shared_payload_bytes(&self) -> u64 {
        0
    }

    /// Upcast for concrete access.
    fn as_any(&self) -> &dyn Any;
    /// Upcast for concrete mutation.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Boilerplate every view embeds: its id.
///
/// ```ignore
/// struct MyView { base: ViewBase, ... }
/// impl View for MyView {
///     fn id(&self) -> ViewId { self.base.id }
///     fn set_id(&mut self, id: ViewId) { self.base.id = id; }
///     ...
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ViewBase {
    /// The view's id in the world ([`ViewId::dangling`] until inserted).
    pub id: ViewId,
}

impl ViewBase {
    /// A base with a dangling id.
    pub fn new() -> ViewBase {
        ViewBase {
            id: ViewId::dangling(),
        }
    }
}

impl Default for ViewBase {
    fn default() -> Self {
        ViewBase::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_translation_and_rects() {
        let u = Update::Partial(Rect::new(10, 10, 5, 5));
        assert_eq!(
            u.translated(-10, -10),
            Update::Partial(Rect::new(0, 0, 5, 5))
        );
        assert_eq!(Update::Full.translated(3, 3), Update::Full);
        let local = Rect::new(0, 0, 12, 12);
        assert_eq!(u.rect_for(local), Rect::new(10, 10, 2, 2));
        assert_eq!(Update::Full.rect_for(local), local);
    }
}
