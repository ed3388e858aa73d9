//! The interaction manager (paper §3).
//!
//! "At the top of the tree is a view called the interaction manager which
//! is a window provided by the underlying window system. The interaction
//! manager has the responsibility of translating input events … from the
//! window system to the rest of the view tree \[and\] is also responsible
//! for synchronizing drawing requests between views. By design, it has
//! one child view, of arbitrary type."
//!
//! [`InteractionManager`] owns a backend [`Window`] and the root
//! [`ViewId`]. Its event loop:
//!
//! 1. dequeues window events and routes them — mouse events go to the
//!    root view, which decides disposition all the way down (parental
//!    authority); keys run the ancestor filter chain before reaching the
//!    focus; menu requests collect and merge contributions along the
//!    focus path;
//! 2. grants any pending focus request;
//! 3. flushes delayed-update notifications
//!    ([`World::flush_notifications`]);
//! 4. turns accumulated damage into **one** update pass down the tree —
//!    the "post up, come back down" protocol that lets parents repaint
//!    over children in the right order. Moves views posted
//!    ([`World::post_move`]) are copied on screen first, so the pass
//!    repaints only what changed.

use atk_graphics::{Framebuffer, Point, Rect, Region};
use atk_wm::{CursorShape, Key, MouseAction, Window, WindowEvent, WindowSystem};

use crate::ids::ViewId;
use crate::menus::{merge_menus, MenuItem};
use crate::view::Update;
use crate::world::World;

/// Statistics kept by the interaction manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImStats {
    /// Window events dispatched.
    pub events: u64,
    /// Damage-driven update passes down the tree ([`InteractionManager::draw_region`]).
    pub updates: u64,
    /// Forced whole-window repaints ([`InteractionManager::draw`]).
    pub full_redraws: u64,
    /// Notifications flushed.
    pub notifications: u64,
    /// Keys consumed by ancestor filters (parental authority in action).
    pub keys_filtered: u64,
}

impl ImStats {
    /// Update passes of either kind.
    pub fn total_draws(&self) -> u64 {
        self.updates + self.full_redraws
    }
}

/// The top of the view tree. See the module docs.
pub struct InteractionManager {
    window: Box<dyn Window>,
    root: ViewId,
    focus: Option<ViewId>,
    offered_menus: Vec<MenuItem>,
    /// Where the menu pop-up is painted while it is up (window
    /// coordinates); see [`InteractionManager::dismiss_menu_overlay`].
    menu_overlay: Option<Rect>,
    stats: ImStats,
    running: bool,
}

impl InteractionManager {
    /// Creates an interaction manager over `window` with the given root
    /// view, sizing the root to fill the window.
    pub fn new(world: &mut World, window: Box<dyn Window>, root: ViewId) -> InteractionManager {
        let size = window.size();
        world.set_view_bounds(root, Rect::new(0, 0, size.width, size.height));
        InteractionManager {
            window,
            root,
            focus: Some(root),
            offered_menus: Vec::new(),
            menu_overlay: None,
            stats: ImStats::default(),
            running: true,
        }
    }

    /// The root view.
    pub fn root(&self) -> ViewId {
        self.root
    }

    /// The focused view, if any.
    pub fn focus(&self) -> Option<ViewId> {
        self.focus
    }

    /// Statistics so far.
    pub fn stats(&self) -> ImStats {
        self.stats
    }

    /// True until a `Close` event is processed.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// The underlying window, read-only (to borrow its frame).
    pub fn window(&self) -> &dyn Window {
        self.window.as_ref()
    }

    /// The underlying window (to inject events or adjust the title).
    pub fn window_mut(&mut self) -> &mut dyn Window {
        self.window.as_mut()
    }

    /// Menus offered at the last `MenuRequest` (tests and the scripted
    /// driver inspect these).
    pub fn offered_menus(&self) -> &[MenuItem] {
        &self.offered_menus
    }

    /// A snapshot of the window contents. Every backend renders to
    /// pixels, so this is always `Some`.
    pub fn snapshot(&self) -> Option<Framebuffer> {
        Some(self.window.snapshot())
    }

    /// Forks this interaction manager onto a fresh window of `ws`,
    /// pairing with [`World::fork`] to duplicate a whole session.
    ///
    /// The new window is opened at the same title on the template's
    /// frame, borrowed through [`Window::with_frame`]
    /// ([`WindowSystem::open_window_on`] — a clone sharing the frame's
    /// bands on pixel-store backends, one blit op elsewhere), with no
    /// birth events (the template already dispatched its own), so the
    /// fork starts from the exact same frame a cold build would have
    /// produced. Focus, offered menus, stats, and the running flag
    /// carry over; the root id stays valid because the forked world
    /// preserves ids.
    pub fn fork_onto(&self, ws: &mut dyn WindowSystem) -> InteractionManager {
        let title = self.window.title();
        let mut opened = None;
        self.window
            .with_frame(&mut |frame| opened = Some(ws.open_window_on(title, frame)));
        let mut window = opened.expect("with_frame lends the frame once");
        window.set_cursor(self.window.cursor());
        InteractionManager {
            window,
            root: self.root,
            focus: self.focus,
            offered_menus: self.offered_menus.clone(),
            menu_overlay: self.menu_overlay,
            stats: self.stats,
            running: self.running,
        }
    }

    /// Processes every queued window event, then settles notifications
    /// and damage. Returns the number of events handled.
    pub fn pump(&mut self, world: &mut World) -> usize {
        let handled = self.dispatch_queued(world);
        self.settle(world);
        handled
    }

    /// The dispatch half of [`InteractionManager::pump`]: routes every
    /// queued window event, without settling. Returns the number of
    /// events handled.
    pub(crate) fn dispatch_queued(&mut self, world: &mut World) -> usize {
        let mut handled = 0;
        while let Some(ev) = self.window.next_event() {
            self.dispatch(world, ev);
            handled += 1;
        }
        handled
    }

    /// Posts an event and immediately pumps.
    pub fn feed(&mut self, world: &mut World, ev: WindowEvent) {
        self.window.post_event(ev);
        self.pump(world);
    }

    /// Routes one event.
    pub fn dispatch(&mut self, world: &mut World, ev: WindowEvent) {
        self.stats.events += 1;
        world.collector().count("im.events", 1);
        let _span = world.collector().span("im.dispatch");
        if !matches!(ev, WindowEvent::MenuRequest { .. }) {
            self.dismiss_menu_overlay(world);
        }
        match ev {
            WindowEvent::Mouse { action, pos } => {
                world.with_view(self.root, |v, w| v.mouse(w, action, pos));
                if action == MouseAction::Movement {
                    self.update_cursor(world, pos);
                }
            }
            WindowEvent::Key(key) => {
                self.dispatch_key(world, key);
            }
            WindowEvent::MenuRequest { pos } => {
                self.offered_menus = self.collect_menus(world);
                self.draw_menu_overlay(world, pos);
            }
            WindowEvent::MenuSelect(command) => {
                self.dispatch_command(world, &command);
            }
            WindowEvent::Expose(r) => {
                self.draw(world, Update::Partial(r));
            }
            WindowEvent::Resize(size) => {
                world.set_view_bounds(self.root, Rect::new(0, 0, size.width, size.height));
                self.draw(world, Update::Full);
            }
            WindowEvent::Tick(ms) => {
                for (view, token) in world.advance_clock(ms) {
                    world.with_view(view, |v, w| v.timer(w, token));
                }
            }
            WindowEvent::Close => {
                self.running = false;
            }
        }
        self.apply_focus_request(world);
    }

    /// Delivers a key with parental authority: each ancestor of the focus
    /// (root-most first) may consume or transform it; then the focus
    /// handles it; unhandled keys bubble back up.
    fn dispatch_key(&mut self, world: &mut World, key: Key) {
        let Some(focus) = self.focus.filter(|f| world.view_exists(*f)) else {
            return;
        };
        let path = world.path_to(focus);
        let mut key = key;
        for &ancestor in &path[..path.len().saturating_sub(1)] {
            let out = world
                .with_view(ancestor, |v, w| v.filter_key(w, key, focus))
                .flatten();
            match out {
                Some(k) => key = k,
                None => {
                    self.stats.keys_filtered += 1;
                    world.collector().count("im.keys_filtered", 1);
                    return;
                }
            }
        }
        let handled = world
            .with_view(focus, |v, w| v.key(w, key))
            .unwrap_or(false);
        if !handled {
            for &ancestor in path[..path.len().saturating_sub(1)].iter().rev() {
                let consumed = world
                    .with_view(ancestor, |v, w| v.key(w, key))
                    .unwrap_or(false);
                if consumed {
                    break;
                }
            }
        }
    }

    /// Collects and merges menu contributions along the focus path.
    pub fn collect_menus(&mut self, world: &mut World) -> Vec<MenuItem> {
        let Some(focus) = self.focus.filter(|f| world.view_exists(*f)) else {
            return Vec::new();
        };
        let path = world.path_to(focus);
        let mut contributions = Vec::with_capacity(path.len());
        for &v in &path {
            let items = world
                .with_view(v, |view, w| view.menus(w))
                .unwrap_or_default();
            contributions.push(items);
        }
        merge_menus(&contributions)
    }

    /// Dispatches a command leaf-first along the focus path until some
    /// view performs it. Returns true if performed.
    pub fn dispatch_command(&mut self, world: &mut World, command: &str) -> bool {
        let Some(focus) = self.focus.filter(|f| world.view_exists(*f)) else {
            return false;
        };
        let path = world.path_to(focus);
        for &v in path.iter().rev() {
            let done = world
                .with_view(v, |view, w| view.perform(w, command))
                .unwrap_or(false);
            if done {
                return true;
            }
        }
        false
    }

    /// Selects an offered menu item by label and dispatches its command.
    /// Returns false if no such label was offered.
    pub fn select_menu(&mut self, world: &mut World, label: &str) -> bool {
        let item = self
            .offered_menus
            .iter()
            .find(|m| m.label == label || format!("{}/{}", m.card, m.label) == label)
            .cloned();
        match item {
            Some(m) => self.dispatch_command(world, &m.command),
            None => false,
        }
    }

    fn apply_focus_request(&mut self, world: &mut World) {
        if let Some(req) = world.take_focus_request() {
            if Some(req) != self.focus {
                if let Some(old) = self.focus {
                    world.with_view(old, |v, w| v.on_focus(w, false));
                }
                self.focus = Some(req);
                world.with_view(req, |v, w| v.on_focus(w, true));
            }
        }
    }

    /// Cursor arbitration: ask the tree (root decides, possibly deferring
    /// to descendants) which cursor applies at `pos`.
    fn update_cursor(&mut self, world: &mut World, pos: Point) {
        let shape = world
            .view_dyn(self.root)
            .and_then(|v| v.cursor_at(world, pos))
            .unwrap_or(CursorShape::Arrow);
        if self.window.cursor().shape != shape {
            let handle = atk_wm::CursorHandle { shape, id: 0 };
            self.window.set_cursor(handle);
        }
    }

    /// Flushes notifications and converts accumulated damage into a
    /// single update pass.
    pub fn settle(&mut self, world: &mut World) {
        let _span = world.collector().span("im.settle");
        self.flush_quiescent(world);
        self.repaint_damage(world);
    }

    /// The flush half of [`InteractionManager::settle`]: drains
    /// deferred commands and notifications to quiescence and grants
    /// any pending focus request, without painting. Exposed separately
    /// so [`StepDriver::apply`](crate::StepDriver::apply) can time the
    /// settle and paint phases apart.
    pub fn flush_quiescent(&mut self, world: &mut World) {
        // Deferred commands first (child -> ancestor messages), then
        // notifications; both may post damage. Loop until quiescent.
        for _ in 0..8 {
            world.flush_commands();
            let n = world.flush_notifications();
            self.stats.notifications += n as u64;
            if n == 0 {
                break;
            }
        }
        self.apply_focus_request(world);
    }

    /// The paint half of [`InteractionManager::settle`]: copies the
    /// queued moves on screen, then converts accumulated damage into
    /// one clipped update pass. Returns true if anything was painted.
    pub fn repaint_damage(&mut self, world: &mut World) -> bool {
        let moved = self.apply_moves(world);
        if world.has_damage() {
            let region = world.take_damage_region_for(self.root);
            if !region.is_empty() {
                self.draw_region(world, &region);
                return true;
            }
        }
        moved
    }

    /// Copies this window's queued moves on screen, unclipped and in the
    /// order they were posted ([`World::post_move`]). Everything that
    /// paints the window runs this first: a move describes the screen
    /// as the last paint left it. The view tree may reach past the
    /// window's frame (a scripted resize lays the tree out at a size
    /// the frame does not take), so the pixels a move would have brought
    /// from past the frame's edge are damaged instead, and so is
    /// wherever a later move carries them. Returns true if anything
    /// moved.
    fn apply_moves(&mut self, world: &mut World) -> bool {
        let moves = world.take_moves_for(self.root);
        if moves.is_empty() {
            return false;
        }
        let frame = Rect::at(Point::ORIGIN, self.window.size());
        let g = self.window.graphic();
        let mut missing: Vec<Rect> = Vec::new();
        for &(src, dx, dy) in &moves {
            let carried: Vec<Rect> = missing
                .iter()
                .map(|r| r.intersect(src).translate(dx, dy))
                .collect();
            missing.extend(carried);
            let copied = src.intersect(frame).translate(dx, dy).intersect(frame);
            missing.extend(src.translate(dx, dy).intersect(frame).subtract(copied));
            if !copied.is_empty() {
                g.copy_area(copied.translate(-dx, -dy), copied.origin());
            }
        }
        g.flush();
        for r in missing {
            world.post_damage(self.root, r);
        }
        true
    }

    /// An update pass clipped to a damage region (window coordinates).
    pub fn draw_region(&mut self, world: &mut World, region: &Region) {
        self.stats.updates += 1;
        world.collector().count("im.updates", 1);
        world
            .collector()
            .observe("im.damage_rects", region.rects().len() as u64);
        {
            let _span = world.collector().span("im.update_pass");
            let g = self.window.graphic();
            g.gsave();
            g.clip_region(region);
            for r in region.rects() {
                g.clear_rect(*r);
            }
            let update = Update::Partial(region.bounding_box());
            world.with_view(self.root, |v, w| v.draw(w, g, update));
            g.grestore();
            g.flush();
        }
    }

    /// One update pass down the tree.
    pub fn draw(&mut self, world: &mut World, update: Update) {
        self.apply_moves(world);
        self.stats.full_redraws += 1;
        world.collector().count("im.full_redraws", 1);
        {
            let _span = world.collector().span("im.update_pass");
            let g = self.window.graphic();
            let bounds = world.view_bounds(self.root);
            g.gsave();
            if let Update::Partial(r) = update {
                g.clip_rect(r);
                g.clear_rect(r);
            } else {
                g.clear_rect(bounds);
            }
            world.with_view(self.root, |v, w| v.draw(w, g, update));
            g.grestore();
            g.flush();
        }
    }

    /// Requests and performs a full repaint.
    pub fn redraw_full(&mut self, world: &mut World) {
        self.draw(world, Update::Full);
    }

    /// Takes the menu pop-up down: like an unmapped X pop-up, it exposes
    /// what it covered, so the next update pass repaints all of it. The
    /// pop-up stays up through the menu choice and goes with the next
    /// event.
    fn dismiss_menu_overlay(&mut self, world: &mut World) {
        if let Some(r) = self.menu_overlay.take() {
            world.post_damage(self.root, r);
        }
    }

    /// Paints the merged menu as a transient pop-up overlay at `pos`, in
    /// the period style (cards side by side, items beneath), painted
    /// straight onto the window: it is no view's content, and lives
    /// only until [`InteractionManager::dismiss_menu_overlay`].
    fn draw_menu_overlay(&mut self, world: &mut World, pos: Point) {
        if self.offered_menus.is_empty() {
            return;
        }
        self.apply_moves(world);
        // Group items by card preserving order.
        let mut cards: Vec<(&str, Vec<&MenuItem>)> = Vec::new();
        for item in &self.offered_menus {
            match cards.iter_mut().find(|(c, _)| *c == item.card) {
                Some((_, items)) => items.push(item),
                None => cards.push((item.card.as_str(), vec![item])),
            }
        }
        let g = self.window.graphic();
        let m = g.font_metrics();
        let row_h = m.line_height + 2;
        let card_w = 90;
        let max_rows = cards.iter().map(|(_, v)| v.len()).max().unwrap_or(0) as i32;
        let total = Rect::new(
            pos.x,
            pos.y,
            card_w * cards.len() as i32 + 2,
            row_h * (max_rows + 1) + 4,
        );
        self.menu_overlay = Some(match self.menu_overlay {
            Some(up) => up.union(total),
            None => total,
        });
        g.gsave();
        g.set_foreground(atk_graphics::Color::WHITE);
        g.fill_rect(total);
        g.set_foreground(atk_graphics::Color::BLACK);
        g.draw_rect(total);
        for (ci, (card, items)) in cards.iter().enumerate() {
            let x = pos.x + 1 + ci as i32 * card_w;
            let header = Rect::new(x, pos.y + 1, card_w, row_h);
            g.set_foreground(atk_graphics::Color::LIGHT_GRAY);
            g.fill_rect(header);
            g.set_foreground(atk_graphics::Color::BLACK);
            g.draw_string_centered(header, card);
            g.draw_line(
                Point::new(x, pos.y + 1 + row_h),
                Point::new(x + card_w - 1, pos.y + 1 + row_h),
            );
            if ci > 0 {
                g.draw_line(Point::new(x, pos.y + 1), Point::new(x, total.bottom() - 2));
            }
            for (ri, item) in items.iter().enumerate() {
                g.draw_string(
                    Point::new(x + 4, pos.y + 3 + row_h * (ri as i32 + 1)),
                    &item.label,
                );
            }
        }
        g.grestore();
        g.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::ChangeRec;
    use crate::ids::DataId;
    use crate::view::{View, ViewBase};
    use atk_graphics::Size;
    use atk_wm::{Button, WindowSystem};
    use std::any::Any;

    /// A probe view that logs everything the IM sends it.
    struct Probe {
        base: ViewBase,
        child: Option<ViewId>,
        keys: Vec<Key>,
        filtered: Vec<Key>,
        consume_filtered: bool,
        commands: Vec<String>,
        menu_items: Vec<MenuItem>,
        draws: u64,
        timers: Vec<u32>,
        focus_events: Vec<bool>,
        keymap: crate::keymap::Keymap,
        keystate: crate::keymap::KeyState,
    }

    impl Probe {
        fn new() -> Probe {
            Probe {
                base: ViewBase::new(),
                child: None,
                keys: Vec::new(),
                filtered: Vec::new(),
                consume_filtered: false,
                commands: Vec::new(),
                menu_items: Vec::new(),
                draws: 0,
                timers: Vec::new(),
                focus_events: Vec::new(),
                keymap: crate::keymap::Keymap::new(),
                keystate: crate::keymap::KeyState::new(),
            }
        }
    }

    impl View for Probe {
        fn class_name(&self) -> &'static str {
            "probe"
        }
        fn id(&self) -> ViewId {
            self.base.id
        }
        fn set_id(&mut self, id: ViewId) {
            self.base.id = id;
        }
        fn children(&self) -> Vec<ViewId> {
            self.child.into_iter().collect()
        }
        fn desired_size(&mut self, _w: &mut World, _b: i32) -> Size {
            Size::new(10, 10)
        }
        fn layout(&mut self, world: &mut World) {
            if let Some(c) = self.child {
                let size = world.view_bounds(self.base.id).size();
                world.set_view_bounds(c, Rect::new(10, 10, size.width - 20, size.height - 20));
            }
        }
        fn draw(&mut self, world: &mut World, g: &mut dyn atk_wm::Graphic, update: Update) {
            self.draws += 1;
            if let Some(c) = self.child {
                world.draw_child(c, g, update);
            }
        }
        fn mouse(&mut self, world: &mut World, action: MouseAction, pt: Point) -> bool {
            if let Some(c) = self.child {
                if world.mouse_to_child(c, action, pt) {
                    return true;
                }
            }
            if let MouseAction::Down(Button::Left) = action {
                world.request_focus(self.base.id);
            }
            true
        }
        fn filter_key(&mut self, _w: &mut World, key: Key, _t: ViewId) -> Option<Key> {
            self.filtered.push(key);
            if self.consume_filtered {
                None
            } else {
                Some(key)
            }
        }
        fn key(&mut self, _w: &mut World, key: Key) -> bool {
            // With a keymap installed the probe behaves like a real
            // editing view: resolve chords, report unbound keys as
            // unhandled so they bubble to the parent. Without one it
            // swallows everything (the original probe behavior).
            if !self.keymap.is_empty() {
                use crate::keymap::KeyOutcome;
                return match self.keystate.feed(&[&self.keymap], key) {
                    KeyOutcome::Command(cmd) => {
                        self.commands.push(cmd);
                        true
                    }
                    KeyOutcome::Pending => true,
                    KeyOutcome::Unbound(_) => false,
                };
            }
            self.keys.push(key);
            true
        }
        fn menus(&self, _w: &World) -> Vec<MenuItem> {
            self.menu_items.clone()
        }
        fn perform(&mut self, _w: &mut World, command: &str) -> bool {
            self.commands.push(command.to_string());
            command != "unhandled"
        }
        fn timer(&mut self, _w: &mut World, token: u32) {
            self.timers.push(token);
        }
        fn on_focus(&mut self, _w: &mut World, gained: bool) {
            self.focus_events.push(gained);
        }
        fn observed_changed(&mut self, _w: &mut World, _d: DataId, _c: &ChangeRec) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn setup() -> (World, InteractionManager, ViewId, ViewId) {
        let mut world = World::new();
        let child = world.insert_view(Box::new(Probe::new()));
        let mut root_probe = Probe::new();
        root_probe.child = Some(child);
        let root = world.insert_view(Box::new(root_probe));
        world.set_view_parent(child, Some(root));
        let mut ws = atk_wm::x11sim::X11Sim::new();
        let win = ws.open_window("t", Size::new(100, 100));
        let mut im = InteractionManager::new(&mut world, win, root);
        im.pump(&mut world); // Consume the birth expose.
        (world, im, root, child)
    }

    #[test]
    fn birth_expose_draws_the_tree() {
        let (world, _im, root, _child) = setup();
        assert!(world.view_as::<Probe>(root).unwrap().draws >= 1);
    }

    #[test]
    fn focus_follows_click_with_transitions() {
        let (mut world, mut im, root, child) = setup();
        assert_eq!(im.focus(), Some(root));
        // Click inside the child: it takes the focus.
        im.feed(&mut world, WindowEvent::left_down(50, 50));
        assert_eq!(im.focus(), Some(child));
        assert_eq!(
            world.view_as::<Probe>(child).unwrap().focus_events,
            vec![true]
        );
        // Click in the root's margin: focus returns.
        im.feed(&mut world, WindowEvent::left_down(2, 2));
        assert_eq!(im.focus(), Some(root));
        assert_eq!(
            world.view_as::<Probe>(child).unwrap().focus_events,
            vec![true, false]
        );
    }

    #[test]
    fn keys_run_ancestor_filters_first() {
        let (mut world, mut im, root, child) = setup();
        im.feed(&mut world, WindowEvent::left_down(50, 50)); // Focus child.
        im.feed(&mut world, WindowEvent::ch('k'));
        let rootp = world.view_as::<Probe>(root).unwrap();
        assert_eq!(rootp.filtered, vec![Key::Char('k')]);
        assert!(rootp.keys.is_empty(), "root must not handle the key");
        assert_eq!(
            world.view_as::<Probe>(child).unwrap().keys,
            vec![Key::Char('k')]
        );
    }

    #[test]
    fn consuming_filter_blocks_the_focus() {
        let (mut world, mut im, root, child) = setup();
        im.feed(&mut world, WindowEvent::left_down(50, 50));
        world.view_as_mut::<Probe>(root).unwrap().consume_filtered = true;
        im.feed(&mut world, WindowEvent::ch('x'));
        assert!(world.view_as::<Probe>(child).unwrap().keys.is_empty());
        assert_eq!(im.stats().keys_filtered, 1);
    }

    #[test]
    fn same_chord_resolves_by_focus_depth_not_globally() {
        let (mut world, mut im, root, child) = setup();
        world
            .view_as_mut::<Probe>(root)
            .unwrap()
            .keymap
            .bind1(Key::Ctrl('s'), "frame-search");
        world
            .view_as_mut::<Probe>(child)
            .unwrap()
            .keymap
            .bind1(Key::Ctrl('s'), "text-search");
        // Focus starts at the root: its own map resolves the key.
        im.feed(&mut world, WindowEvent::Key(Key::Ctrl('s')));
        assert_eq!(
            world.view_as::<Probe>(root).unwrap().commands,
            vec!["frame-search"]
        );
        // Focus the child: the same key now means something else.
        im.feed(&mut world, WindowEvent::left_down(50, 50));
        im.feed(&mut world, WindowEvent::Key(Key::Ctrl('s')));
        assert_eq!(
            world.view_as::<Probe>(child).unwrap().commands,
            vec!["text-search"]
        );
        assert_eq!(world.view_as::<Probe>(root).unwrap().commands.len(), 1);
    }

    #[test]
    fn unbound_key_after_valid_prefix_bubbles_to_parent() {
        let (mut world, mut im, root, child) = setup();
        world
            .view_as_mut::<Probe>(child)
            .unwrap()
            .keymap
            .bind(&[Key::Ctrl('x'), Key::Ctrl('s')], "save-document");
        im.feed(&mut world, WindowEvent::left_down(50, 50));
        // A valid prefix is consumed by the focus while it waits.
        im.feed(&mut world, WindowEvent::Key(Key::Ctrl('x')));
        assert!(world.view_as::<Probe>(root).unwrap().keys.is_empty());
        // The chord breaks: the focus reports the key unhandled and the
        // parent (empty map, swallows everything) sees it bubble.
        im.feed(&mut world, WindowEvent::Key(Key::Char('q')));
        assert!(world.view_as::<Probe>(child).unwrap().commands.is_empty());
        assert_eq!(
            world.view_as::<Probe>(root).unwrap().keys,
            vec![Key::Char('q')]
        );
    }

    #[test]
    fn dangling_prefix_at_end_of_script_is_inert() {
        let (mut world, mut im, root, child) = setup();
        world
            .view_as_mut::<Probe>(child)
            .unwrap()
            .keymap
            .bind(&[Key::Ctrl('x'), Key::Ctrl('s')], "save-document");
        im.feed(&mut world, WindowEvent::left_down(50, 50));
        // The script ends mid-chord: no command fires, nothing leaks to
        // the parent, and the session stays live.
        let script = crate::EventScript::parse("key C-x\n").unwrap();
        script.run(&mut im, &mut world);
        assert!(world.view_as::<Probe>(child).unwrap().commands.is_empty());
        assert!(world.view_as::<Probe>(root).unwrap().keys.is_empty());
        // The pending chord survives the script boundary: the next live
        // keystroke completes it.
        im.feed(&mut world, WindowEvent::Key(Key::Ctrl('s')));
        assert_eq!(
            world.view_as::<Probe>(child).unwrap().commands,
            vec!["save-document"]
        );
    }

    #[test]
    fn menus_merge_root_and_focus() {
        let (mut world, mut im, root, child) = setup();
        world.view_as_mut::<Probe>(root).unwrap().menu_items =
            vec![MenuItem::new("File", "Quit", "quit")];
        world.view_as_mut::<Probe>(child).unwrap().menu_items =
            vec![MenuItem::new("Edit", "Cut", "cut")];
        im.feed(&mut world, WindowEvent::left_down(50, 50));
        im.feed(&mut world, WindowEvent::MenuRequest { pos: Point::ORIGIN });
        let labels: Vec<String> = im.offered_menus().iter().map(|m| m.label.clone()).collect();
        assert_eq!(labels, vec!["Quit".to_string(), "Cut".to_string()]);
        // Selection dispatches leaf-first.
        assert!(im.select_menu(&mut world, "Cut"));
        assert_eq!(world.view_as::<Probe>(child).unwrap().commands, vec!["cut"]);
    }

    #[test]
    fn unhandled_commands_bubble_to_ancestors() {
        let (mut world, mut im, root, child) = setup();
        im.feed(&mut world, WindowEvent::left_down(50, 50));
        // The child's perform returns false for "unhandled".
        im.dispatch_command(&mut world, "unhandled");
        assert_eq!(
            world.view_as::<Probe>(child).unwrap().commands,
            vec!["unhandled"]
        );
        assert_eq!(
            world.view_as::<Probe>(root).unwrap().commands,
            vec!["unhandled"]
        );
    }

    #[test]
    fn ticks_fire_timers_in_order() {
        let (mut world, mut im, _root, child) = setup();
        world.schedule_timer(child, 100, 7);
        world.schedule_timer(child, 50, 3);
        im.feed(&mut world, WindowEvent::Tick(60));
        assert_eq!(world.view_as::<Probe>(child).unwrap().timers, vec![3]);
        im.feed(&mut world, WindowEvent::Tick(60));
        assert_eq!(world.view_as::<Probe>(child).unwrap().timers, vec![3, 7]);
    }

    #[test]
    fn fork_onto_copies_window_and_state() {
        let (mut world, mut im, _root, child) = setup();
        im.feed(&mut world, WindowEvent::left_down(50, 50)); // Focus the child.
        let mut ws2 = atk_wm::x11sim::X11Sim::new();
        let fork = im.fork_onto(&mut ws2);
        assert_eq!(fork.focus(), Some(child));
        assert_eq!(fork.stats(), im.stats());
        assert_eq!(fork.root(), im.root());
        assert!(fork.is_running());
        assert_eq!(fork.snapshot().unwrap(), im.snapshot().unwrap());
    }

    #[test]
    fn close_stops_the_loop() {
        let (mut world, mut im, ..) = setup();
        assert!(im.is_running());
        im.feed(&mut world, WindowEvent::Close);
        assert!(!im.is_running());
    }

    #[test]
    fn resize_relayouts_and_redraws() {
        let (mut world, mut im, root, child) = setup();
        let draws_before = world.view_as::<Probe>(root).unwrap().draws;
        im.feed(&mut world, WindowEvent::Resize(Size::new(200, 150)));
        assert_eq!(world.view_bounds(root), Rect::new(0, 0, 200, 150));
        assert_eq!(world.view_bounds(child), Rect::new(10, 10, 180, 130));
        assert!(world.view_as::<Probe>(root).unwrap().draws > draws_before);
    }

    #[test]
    fn damage_triggers_exactly_one_update_pass() {
        let (mut world, mut im, root, child) = setup();
        let draws_before = world.view_as::<Probe>(root).unwrap().draws;
        world.post_damage(child, Rect::new(0, 0, 5, 5));
        world.post_damage(child, Rect::new(5, 5, 5, 5));
        im.settle(&mut world);
        assert_eq!(
            world.view_as::<Probe>(root).unwrap().draws,
            draws_before + 1
        );
    }
}

#[cfg(test)]
mod menu_overlay_tests {
    use super::*;
    use crate::view::{View, ViewBase};
    use atk_graphics::Size;
    use atk_wm::WindowSystem;
    use std::any::Any;

    struct Menued {
        base: ViewBase,
    }
    impl View for Menued {
        fn class_name(&self) -> &'static str {
            "menued"
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
        fn draw(&mut self, _w: &mut World, _g: &mut dyn atk_wm::Graphic, _u: Update) {}
        fn menus(&self, _w: &World) -> Vec<MenuItem> {
            vec![
                MenuItem::new("File", "Save", "save"),
                MenuItem::new("Edit", "Cut", "cut"),
            ]
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn menu_request_paints_a_popup() {
        let mut world = World::new();
        let root = world.insert_view(Box::new(Menued {
            base: ViewBase::new(),
        }));
        let mut ws = atk_wm::x11sim::X11Sim::new();
        let win = ws.open_window("t", Size::new(300, 200));
        let mut im = InteractionManager::new(&mut world, win, root);
        im.pump(&mut world);
        let before = im.snapshot().unwrap();
        im.feed(
            &mut world,
            WindowEvent::MenuRequest {
                pos: Point::new(40, 30),
            },
        );
        let after = im.snapshot().unwrap();
        assert_ne!(before, after, "popup must be visible");
        // Two cards: File and Edit.
        assert_eq!(im.offered_menus().len(), 2);
        // The overlay is transient: a full redraw wipes it.
        im.redraw_full(&mut world);
        assert_eq!(im.snapshot().unwrap(), before);
    }

    // Whatever the next event damages, the pop-up goes with it: its
    // whole rect is exposed, as an unmapped X pop-up's would be.
    #[test]
    fn the_next_event_takes_the_popup_down() {
        let mut world = World::new();
        let root = world.insert_view(Box::new(Menued {
            base: ViewBase::new(),
        }));
        let mut ws = atk_wm::x11sim::X11Sim::new();
        let win = ws.open_window("t", Size::new(300, 200));
        let mut im = InteractionManager::new(&mut world, win, root);
        im.pump(&mut world);
        let before = im.snapshot().unwrap();
        for _ in 0..2 {
            im.feed(
                &mut world,
                WindowEvent::MenuRequest {
                    pos: Point::new(40, 30),
                },
            );
        }
        assert_ne!(before, im.snapshot().unwrap());
        im.feed(&mut world, WindowEvent::Tick(1));
        assert_eq!(im.snapshot().unwrap(), before);
        // It stays up through a menu choice, and goes with the event
        // after it.
        im.feed(
            &mut world,
            WindowEvent::MenuRequest {
                pos: Point::new(100, 60),
            },
        );
        im.select_menu(&mut world, "Save");
        im.pump(&mut world);
        assert_ne!(before, im.snapshot().unwrap());
        im.feed(&mut world, WindowEvent::Tick(1));
        assert_eq!(im.snapshot().unwrap(), before);
    }
}
