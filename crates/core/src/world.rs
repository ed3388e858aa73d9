//! The `World`: owner of every data object and view, and home of the
//! observer and damage machinery.
//!
//! All toolkit objects live in two arenas here. Views and data objects
//! refer to each other only by id, so any method can receive `&mut World`
//! without aliasing; when the world needs to call *into* an object with
//! itself as an argument (dispatch), it temporarily moves the object's box
//! out of its slot — see [`World::with_view`] / [`World::with_data`].
//!
//! The world also owns:
//! * the **observer lists** and the **pending-notification queue** that
//!   implement the paper's delayed update (§2): mutators call
//!   [`World::notify`], and the interaction manager later drains the
//!   queue with [`World::flush_notifications`], fanning each change
//!   record out to every observer;
//! * the **damage list**: views post view-local dirty rectangles
//!   ([`World::post_damage`]), and the update cycle converts them to
//!   window coordinates by walking the parent chain (the paper's
//!   "update request is posted up the tree"). A view whose pixels only
//!   shift posts a move instead ([`World::post_move`]): the update
//!   cycle copies those pixels on screen before it repaints the damage;
//! * the **virtual clock and timers** that drive animations and the
//!   console deterministically;
//! * the component [`Catalog`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use atk_graphics::{Point, Rect, Region};
use atk_trace::Collector;
use atk_wm::{Graphic, MouseAction};

use crate::arena::Arena;
use crate::catalog::{Catalog, CatalogError};
use crate::data::{ChangeRec, DataObject, ObserverRef};
use crate::ids::{DataId, DataMark, ViewId, ViewMark};
use crate::view::{Update, View};

struct DataSlot {
    obj: Option<Box<dyn DataObject>>,
    observers: Vec<ObserverRef>,
    version: u64,
}

struct ViewSlot {
    view: Option<Box<dyn View>>,
    parent: Option<ViewId>,
    /// Bounds in the *parent's* coordinate space.
    bounds: Rect,
}

#[derive(Clone)]
struct Timer {
    due_ms: u64,
    view: ViewId,
    token: u32,
}

/// A memoized view→window transform: translate a view-local rect by
/// `(dx, dy)` and intersect with `clip` (window coordinates) to get the
/// visible window-space rect — no tree walk. `root` is the view's root
/// ancestor. Valid only while `epoch` matches the world's geometry
/// epoch, which is bumped on any bounds or parent change.
#[derive(Clone, Copy)]
struct CachedXform {
    epoch: u64,
    dx: i32,
    dy: i32,
    clip: Rect,
    root: ViewId,
}

/// A queued move: the window-space pixels of `src`, in the window
/// whose root view is `root`, shift by `(dx, dy)`.
#[derive(Clone, Copy)]
struct PendingMove {
    root: ViewId,
    src: Rect,
    dx: i32,
    dy: i32,
}

/// The object world. See the module docs.
pub struct World {
    data: Arena<DataSlot, DataMark>,
    views: Arena<ViewSlot, ViewMark>,
    pending: VecDeque<(DataId, ChangeRec)>,
    damage: Vec<(ViewId, Rect)>,
    /// Moves in the order they were posted; see [`World::post_move`].
    moves: Vec<PendingMove>,
    /// Component catalog (public: applications register components).
    pub catalog: Catalog,
    focus_request: Option<ViewId>,
    pending_commands: Vec<(ViewId, String)>,
    clock_ms: u64,
    timers: Vec<Timer>,
    notifications_delivered: u64,
    /// View→window transform cache; see [`CachedXform`].
    xform_cache: HashMap<ViewId, CachedXform>,
    /// Bumped on every geometry or parent change; stale cache entries
    /// are detected by epoch mismatch instead of eager invalidation.
    xform_epoch: u64,
    /// Metrics/span sink for the update pipeline; defaults to the
    /// process-wide collector, which starts disabled (near-zero cost).
    collector: Arc<Collector>,
}

impl World {
    /// An empty world with a default (free-cost, dynamic) catalog.
    pub fn new() -> World {
        World::with_catalog(Catalog::default())
    }

    /// An empty world with a specific catalog.
    pub fn with_catalog(catalog: Catalog) -> World {
        World {
            data: Arena::new(),
            views: Arena::new(),
            pending: VecDeque::new(),
            damage: Vec::new(),
            moves: Vec::new(),
            catalog,
            focus_request: None,
            pending_commands: Vec::new(),
            clock_ms: 0,
            timers: Vec::new(),
            notifications_delivered: 0,
            xform_cache: HashMap::new(),
            xform_epoch: 0,
            collector: atk_trace::global(),
        }
    }

    // --- Instrumentation ----------------------------------------------------

    /// The collector this world reports into.
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// Replaces the collector (tests inject a private, enabled one so
    /// runs stay isolated and deterministic).
    pub fn set_collector(&mut self, collector: Arc<Collector>) {
        self.collector = collector;
    }

    // --- Forking ------------------------------------------------------------

    /// Deep-forks the whole world: both arenas (slot-for-slot, so every
    /// `DataId`/`ViewId` stays valid), observer lists, the pending
    /// notification queue, the damage list, deferred commands, the focus
    /// request, the virtual clock and timers, and the catalog. Pending
    /// moves are not carried: they describe the source's screen, which
    /// a forked window only copies once the source has settled.
    ///
    /// The xform cache and its epoch are *carried*, not reset: the
    /// fork's geometry is identical, so carrying the cache keeps a
    /// forked session's hit/miss counters byte-identical to a session
    /// built from scratch (the fork-vs-fresh differential oracle checks
    /// exactly that).
    ///
    /// Fails with the first class that does not implement
    /// [`View::fork`]/[`DataObject::fork`]. Counters (`world.forks`,
    /// `world.fork_us`, `world.fork_shared_bytes`) land on the *source*
    /// world's collector — the template's — so per-session collectors
    /// stay indistinguishable from cold-built ones.
    pub fn fork(&self) -> Result<World, String> {
        let start = std::time::Instant::now();
        let mut shared_bytes = 0u64;
        let data = self.data.fork_with(|slot| {
            let obj = match &slot.obj {
                Some(o) => match o.fork() {
                    Some(f) => {
                        shared_bytes += o.shared_payload_bytes();
                        f
                    }
                    None => {
                        return Err(format!(
                            "data class `{}` does not support forking",
                            o.class_name()
                        ))
                    }
                },
                None => return Err("data object taken out during fork".to_string()),
            };
            Ok(DataSlot {
                obj: Some(obj),
                observers: slot.observers.clone(),
                version: slot.version,
            })
        })?;
        let views = self.views.fork_with(|slot| {
            let view = match &slot.view {
                Some(v) => match v.fork() {
                    Some(f) => {
                        shared_bytes += v.shared_payload_bytes();
                        f
                    }
                    None => {
                        return Err(format!(
                            "view class `{}` does not support forking",
                            v.class_name()
                        ))
                    }
                },
                None => return Err("view taken out during fork".to_string()),
            };
            Ok(ViewSlot {
                view: Some(view),
                parent: slot.parent,
                bounds: slot.bounds,
            })
        })?;
        let fork = World {
            data,
            views,
            pending: self.pending.clone(),
            damage: self.damage.clone(),
            moves: Vec::new(),
            catalog: self.catalog.clone(),
            focus_request: self.focus_request,
            pending_commands: self.pending_commands.clone(),
            clock_ms: self.clock_ms,
            timers: self.timers.clone(),
            notifications_delivered: self.notifications_delivered,
            xform_cache: self.xform_cache.clone(),
            xform_epoch: self.xform_epoch,
            collector: self.collector.clone(),
        };
        self.collector.count("world.forks", 1);
        self.collector
            .observe("world.fork_us", start.elapsed().as_micros() as u64);
        self.collector
            .count("world.fork_shared_bytes", shared_bytes);
        Ok(fork)
    }

    // --- Data objects -----------------------------------------------------

    /// Inserts a data object, returning its id.
    pub fn insert_data(&mut self, obj: Box<dyn DataObject>) -> DataId {
        self.data.insert(DataSlot {
            obj: Some(obj),
            observers: Vec::new(),
            version: 0,
        })
    }

    /// Removes a data object (observers are dropped with it).
    pub fn remove_data(&mut self, id: DataId) -> Option<Box<dyn DataObject>> {
        self.data.remove(id).and_then(|s| s.obj)
    }

    /// Creates a data object of `class` through the catalog.
    pub fn create_data(&mut self, class: &str) -> Result<Box<dyn DataObject>, CatalogError> {
        self.catalog.new_data(class)
    }

    /// Creates and inserts a data object of `class`.
    pub fn new_data(&mut self, class: &str) -> Result<DataId, CatalogError> {
        let obj = self.catalog.new_data(class)?;
        Ok(self.insert_data(obj))
    }

    /// Number of live data objects.
    pub fn data_count(&self) -> usize {
        self.data.len()
    }

    /// Dynamic access to a data object.
    pub fn data_dyn(&self, id: DataId) -> Option<&dyn DataObject> {
        self.data.get(id).and_then(|s| s.obj.as_deref())
    }

    /// Typed shared access to a data object.
    ///
    /// # Panics
    ///
    /// Panics if the id is live but the object is not a `T` — that is a
    /// programming error, not a data condition.
    pub fn data<T: DataObject>(&self, id: DataId) -> Option<&T> {
        self.data.get(id).and_then(|s| s.obj.as_deref()).map(|o| {
            o.as_any()
                .downcast_ref::<T>()
                .expect("data object has unexpected concrete type")
        })
    }

    /// Typed exclusive access to a data object. See [`World::data`].
    pub fn data_mut<T: DataObject>(&mut self, id: DataId) -> Option<&mut T> {
        self.data
            .get_mut(id)
            .and_then(|s| s.obj.as_deref_mut())
            .map(|o| {
                o.as_any_mut()
                    .downcast_mut::<T>()
                    .expect("data object has unexpected concrete type")
            })
    }

    /// Calls `f` with the data object temporarily moved out, so `f` may
    /// use the world freely (e.g. to notify further observers).
    pub fn with_data<R>(
        &mut self,
        id: DataId,
        f: impl FnOnce(&mut dyn DataObject, &mut World) -> R,
    ) -> Option<R> {
        let mut obj = self.data.get_mut(id)?.obj.take()?;
        let r = f(obj.as_mut(), self);
        if let Some(slot) = self.data.get_mut(id) {
            slot.obj = Some(obj);
        }
        Some(r)
    }

    /// Monotonic modification version of a data object.
    pub fn data_version(&self, id: DataId) -> u64 {
        self.data.get(id).map(|s| s.version).unwrap_or(0)
    }

    // --- Observers and delayed update --------------------------------------

    /// Registers `observer` on `data` (idempotent).
    pub fn add_observer(&mut self, data: DataId, observer: ObserverRef) {
        if let Some(slot) = self.data.get_mut(data) {
            if !slot.observers.contains(&observer) {
                slot.observers.push(observer);
            }
        }
    }

    /// Unregisters `observer` from `data`.
    pub fn remove_observer(&mut self, data: DataId, observer: ObserverRef) {
        if let Some(slot) = self.data.get_mut(data) {
            slot.observers.retain(|o| *o != observer);
        }
    }

    /// Observers of `data` (diagnostics).
    pub fn observers_of(&self, data: DataId) -> Vec<ObserverRef> {
        self.data
            .get(data)
            .map(|s| s.observers.clone())
            .unwrap_or_default()
    }

    /// Announces that `data` changed. The notification is queued; nothing
    /// is delivered until [`World::flush_notifications`] — the delayed
    /// update of paper §2.
    pub fn notify(&mut self, data: DataId, change: ChangeRec) {
        if let Some(slot) = self.data.get_mut(data) {
            slot.version += 1;
            self.pending.push_back((data, change));
            self.collector.count("world.notify", 1);
        }
    }

    /// True if notifications are queued.
    pub fn has_pending_notifications(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Delivers queued notifications to observers (which may enqueue
    /// more, e.g. a chart data object relaying a table change to its own
    /// observers). Returns the number delivered.
    ///
    /// A safety cap breaks pathological notification cycles.
    pub fn flush_notifications(&mut self) -> usize {
        let _span = self.collector.span("world.flush_notifications");
        let mut delivered = 0usize;
        let cap = 100_000;
        while let Some((data, change)) = self.pending.pop_front() {
            let observers = self
                .data
                .get(data)
                .map(|s| s.observers.clone())
                .unwrap_or_default();
            for obs in observers {
                delivered += 1;
                match obs {
                    ObserverRef::View(vid) => {
                        self.with_view(vid, |v, w| v.observed_changed(w, data, &change));
                    }
                    ObserverRef::Data(did) => {
                        let ch = change.clone();
                        self.with_data(did, |d, w| d.observed_changed(w, did, data, &ch));
                    }
                }
                if delivered >= cap {
                    self.pending.clear();
                    return delivered;
                }
            }
        }
        self.notifications_delivered += delivered as u64;
        self.collector
            .count("world.notifications_delivered", delivered as u64);
        delivered
    }

    /// Total notifications delivered since startup (instrumentation).
    pub fn notifications_delivered(&self) -> u64 {
        self.notifications_delivered
    }

    // --- Views -------------------------------------------------------------

    /// Inserts a view, assigning its id.
    pub fn insert_view(&mut self, view: Box<dyn View>) -> ViewId {
        let id = self.views.insert(ViewSlot {
            view: Some(view),
            parent: None,
            bounds: Rect::EMPTY,
        });
        if let Some(slot) = self.views.get_mut(id) {
            if let Some(v) = slot.view.as_mut() {
                v.set_id(id);
            }
        }
        id
    }

    /// Creates and inserts a view of `class` through the catalog.
    pub fn new_view(&mut self, class: &str) -> Result<ViewId, CatalogError> {
        let v = self.catalog.new_view(class)?;
        Ok(self.insert_view(v))
    }

    /// Removes a view and (recursively) its children.
    pub fn remove_view_tree(&mut self, id: ViewId) {
        let children = self
            .views
            .get(id)
            .and_then(|s| s.view.as_ref())
            .map(|v| v.children())
            .unwrap_or_default();
        for c in children {
            self.remove_view_tree(c);
        }
        self.views.remove(id);
        self.xform_cache.remove(&id);
        self.xform_epoch += 1;
    }

    /// Number of live views.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Ids of every live view (diagnostics and invariant checkers: the
    /// session fuzzer's view-tree oracle walks all views, not just the
    /// ones reachable from one root).
    pub fn view_ids(&self) -> Vec<ViewId> {
        self.views.ids()
    }

    /// True if `id` names a live view.
    pub fn view_exists(&self, id: ViewId) -> bool {
        self.views.contains(id)
    }

    /// Dynamic shared access to a view (e.g. for cursor queries that
    /// recurse with only `&World`).
    pub fn view_dyn(&self, id: ViewId) -> Option<&dyn View> {
        self.views.get(id).and_then(|s| s.view.as_deref())
    }

    /// Typed shared access to a view.
    pub fn view_as<T: View>(&self, id: ViewId) -> Option<&T> {
        self.views
            .get(id)
            .and_then(|s| s.view.as_deref())
            .and_then(|v| v.as_any().downcast_ref::<T>())
    }

    /// Typed exclusive access to a view (no world re-entry: use
    /// [`World::with_view`] for that).
    pub fn view_as_mut<T: View>(&mut self, id: ViewId) -> Option<&mut T> {
        self.views
            .get_mut(id)
            .and_then(|s| s.view.as_deref_mut())
            .and_then(|v| v.as_any_mut().downcast_mut::<T>())
    }

    /// Calls `f` with the view temporarily moved out so it can receive
    /// `&mut World`. Returns `None` if the view is missing **or already
    /// taken** (re-entrant dispatch into the same view is a no-op rather
    /// than a panic).
    pub fn with_view<R>(
        &mut self,
        id: ViewId,
        f: impl FnOnce(&mut dyn View, &mut World) -> R,
    ) -> Option<R> {
        let mut v = self.views.get_mut(id)?.view.take()?;
        let r = f(v.as_mut(), self);
        if let Some(slot) = self.views.get_mut(id) {
            slot.view = Some(v);
        }
        Some(r)
    }

    /// A view's bounds, in its parent's coordinates.
    pub fn view_bounds(&self, id: ViewId) -> Rect {
        self.views.get(id).map(|s| s.bounds).unwrap_or(Rect::EMPTY)
    }

    /// Sets a view's bounds and runs its layout.
    pub fn set_view_bounds(&mut self, id: ViewId, bounds: Rect) {
        let changed = match self.views.get_mut(id) {
            Some(slot) => {
                let changed = slot.bounds != bounds;
                slot.bounds = bounds;
                changed
            }
            None => false,
        };
        if changed {
            self.xform_epoch += 1;
            self.with_view(id, |v, w| v.layout(w));
        }
    }

    /// A view's parent.
    pub fn view_parent(&self, id: ViewId) -> Option<ViewId> {
        self.views.get(id).and_then(|s| s.parent)
    }

    /// Links `child` under `parent` (geometry only; the parent keeps its
    /// own child list).
    pub fn set_view_parent(&mut self, child: ViewId, parent: Option<ViewId>) {
        if let Some(slot) = self.views.get_mut(child) {
            slot.parent = parent;
            self.xform_epoch += 1;
        }
    }

    /// The path from the root ancestor down to `id`, inclusive.
    pub fn path_to(&self, id: ViewId) -> Vec<ViewId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.view_parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Converts a view-local rect to window coordinates by walking the
    /// parent chain. Returns `None` if the view is not rooted.
    pub fn to_window_rect(&self, view: ViewId, local: Rect) -> Rect {
        let mut r = local;
        let mut cur = Some(view);
        while let Some(id) = cur {
            let b = self.view_bounds(id);
            r = r.translate(b.x, b.y);
            cur = self.view_parent(id);
        }
        r
    }

    // --- Damage ------------------------------------------------------------

    /// Posts a view-local dirty rectangle ("update request posted up the
    /// tree").
    ///
    /// Posting is O(1): rects accumulate in a pending list that is
    /// bulk-coalesced when drained ([`World::take_damage_region`]). A
    /// cheap containment check against the most recent entry absorbs the
    /// common repeat patterns (same caret rect, growing invalidation) at
    /// post time; absorbed rects count as `world.damage_coalesced`.
    pub fn post_damage(&mut self, view: ViewId, local: Rect) {
        if local.is_empty() {
            return;
        }
        if let Some(&(last_view, last_rect)) = self.damage.last() {
            if last_view == view {
                if last_rect.contains_rect(local) {
                    self.collector.count("world.damage_coalesced", 1);
                    return;
                }
                if local.contains_rect(last_rect) {
                    self.damage.last_mut().unwrap().1 = local;
                    self.collector.count("world.damage_coalesced", 1);
                    return;
                }
            }
        }
        self.damage.push((view, local));
        self.collector.count("world.post_damage", 1);
    }

    /// Posts a move of the view's pixels: the view-local rect `local`
    /// shifts by `(dx, dy)`. The move is cut to the view's visible
    /// window rect, both where the pixels come from and where they land,
    /// and queued in order with damage: the update cycle copies the
    /// pixels on screen ([`World::take_moves_for`]) before it repaints
    /// the damage. What the copy cannot supply is damaged: the part of
    /// `local` the move leaves behind, the part of where it lands that
    /// comes into sight from out of it, and whatever earlier posts
    /// damaged inside the source, which is stale and rides along to
    /// where the move puts it.
    ///
    /// The view promises that, once the move is made, every pixel it
    /// lands is right unless damage covers it. It can keep that promise
    /// only for pixels it alone paints, so a view with an ancestor that
    /// [paints over its children](View::paints_over_children) has the
    /// rect damaged instead.
    pub fn post_move(&mut self, view: ViewId, local: Rect, dx: i32, dy: i32) {
        if (dx, dy) == (0, 0) || local.is_empty() {
            return;
        }
        let x = self.window_xform(view);
        let whole = local.translate(x.dx, x.dy);
        let shown = whole.intersect(x.clip);
        let lands = shown.translate(dx, dy).intersect(x.clip);
        let ghost = whole.translate(dx, dy).intersect(x.clip);
        if lands.is_empty() || self.painted_over(view) {
            self.post_window_damage(x.root, shown);
            self.post_window_damage(x.root, ghost);
            return;
        }
        let src = lands.translate(-dx, -dy);
        let mut stale = Vec::new();
        for i in 0..self.damage.len() {
            let (v, r) = self.damage[i];
            if self.window_xform(v).root == x.root {
                let carried = self.clip_damage_to_window(v, r).intersect(src);
                stale.push(carried.translate(dx, dy));
            }
        }
        stale.extend(shown.subtract(whole.translate(dx, dy)));
        stale.extend(ghost.subtract(lands));
        for r in stale {
            self.post_window_damage(x.root, r);
        }
        self.moves.push(PendingMove {
            root: x.root,
            src,
            dx,
            dy,
        });
        self.collector.count("world.moves", 1);
    }

    /// Whether an ancestor of `view` may paint over it. An ancestor out
    /// of its slot (mid-dispatch) cannot be asked, so it counts as one
    /// that may.
    fn painted_over(&self, view: ViewId) -> bool {
        let mut at = self.view_parent(view);
        while let Some(parent) = at {
            if self
                .view_dyn(parent)
                .is_none_or(|p| p.paints_over_children())
            {
                return true;
            }
            at = self.view_parent(parent);
        }
        false
    }

    /// Posts a window-space rect as damage of the root view `root`.
    fn post_window_damage(&mut self, root: ViewId, r: Rect) {
        let x = self.window_xform(root);
        self.post_damage(root, r.translate(-x.dx, -x.dy));
    }

    /// Takes the queued moves of the window whose root view is `root`,
    /// in the order they were posted, as window-space `(src, dx, dy)`.
    pub fn take_moves_for(&mut self, root: ViewId) -> Vec<(Rect, i32, i32)> {
        let mut taken = Vec::new();
        self.moves.retain(|m| {
            let mine = m.root == root;
            if mine {
                taken.push((m.src, m.dx, m.dy));
            }
            !mine
        });
        taken
    }

    /// Posts the view's whole bounds as damage.
    pub fn post_damage_full(&mut self, view: ViewId) {
        let size = self.view_bounds(view).size();
        self.post_damage(view, Rect::at(Point::ORIGIN, size));
    }

    /// True if damage is queued.
    pub fn has_damage(&self) -> bool {
        !self.damage.is_empty()
    }

    /// Number of queued damage entries (post-time coalescing makes this
    /// smaller than the number of `post_damage` calls).
    pub fn pending_damage_len(&self) -> usize {
        self.damage.len()
    }

    /// Drains the damage list into a window-coordinate region.
    ///
    /// The pending rects are converted through the cached view→window
    /// transforms and coalesced in one bulk union sweep
    /// ([`Region::from_rects`]) — O(n log n) instead of the O(n²·bands)
    /// of unioning one rect at a time.
    pub fn take_damage_region(&mut self) -> Region {
        let _span = self.collector.span("world.damage_to_window");
        let posted = std::mem::take(&mut self.damage);
        self.collector
            .observe("world.damage_drained", posted.len() as u64);
        let rects: Vec<Rect> = posted
            .into_iter()
            .map(|(view, local)| self.clip_damage_to_window(view, local))
            .collect();
        Region::from_rects(rects)
    }

    /// Drains only the damage belonging to the tree rooted at `root`,
    /// leaving other windows' damage queued. Each interaction manager
    /// settles its own window this way — several windows can share one
    /// world (paper §2's multi-window editing).
    pub fn take_damage_region_for(&mut self, root: ViewId) -> Region {
        let _span = self.collector.span("world.damage_to_window");
        let posted = std::mem::take(&mut self.damage);
        let mut rects = Vec::new();
        let mut keep = Vec::new();
        for (view, local) in posted {
            if self.window_xform(view).root == root {
                rects.push(self.clip_damage_to_window(view, local));
            } else {
                keep.push((view, local));
            }
        }
        self.damage = keep;
        self.collector
            .observe("world.damage_drained", rects.len() as u64);
        Region::from_rects(rects)
    }

    /// Converts view-local damage to window coordinates, clipping to the
    /// visible extent at every level on the way up — via the memoized
    /// transform, so the tree walk happens once per geometry epoch
    /// rather than once per rect.
    fn clip_damage_to_window(&mut self, view: ViewId, local: Rect) -> Rect {
        let x = self.window_xform(view);
        local.translate(x.dx, x.dy).intersect(x.clip)
    }

    /// The view's window transform, from cache or by one root→view walk
    /// (which fills the cache for every ancestor on the path too).
    fn window_xform(&mut self, view: ViewId) -> CachedXform {
        if let Some(c) = self.xform_cache.get(&view) {
            if c.epoch == self.xform_epoch {
                self.collector.count("world.xform_cache_hit", 1);
                return *c;
            }
        }
        self.collector.count("world.xform_cache_miss", 1);
        let path = self.path_to(view);
        let root = path[0];
        let (mut dx, mut dy) = (0i32, 0i32);
        let mut clip: Option<Rect> = None;
        let mut cached = CachedXform {
            epoch: self.xform_epoch,
            dx: 0,
            dy: 0,
            clip: Rect::EMPTY,
            root,
        };
        for &id in &path {
            let b = self.view_bounds(id);
            dx += b.x;
            dy += b.y;
            let extent = Rect::new(dx, dy, b.width, b.height);
            let c = match clip {
                Some(c) => c.intersect(extent),
                None => extent,
            };
            clip = Some(c);
            cached = CachedXform {
                epoch: self.xform_epoch,
                dx,
                dy,
                clip: c,
                root,
            };
            self.xform_cache.insert(id, cached);
        }
        cached
    }

    // --- Dispatch helpers ---------------------------------------------------

    /// Draws `child` through `g`: clips to the child's bounds, translates
    /// into its space, and calls its draw with a correspondingly
    /// translated update. A child the clip does not reach is not drawn.
    pub fn draw_child(&mut self, child: ViewId, g: &mut dyn Graphic, update: Update) {
        let b = self.view_bounds(child);
        if b.is_empty() || !g.clip_touches(b) {
            return;
        }
        g.gsave();
        g.clip_rect(b);
        g.translate(b.x, b.y);
        let child_update = update.translated(-b.x, -b.y);
        self.with_view(child, |v, w| v.draw(w, g, child_update));
        g.grestore();
    }

    /// Forwards a mouse event to `child` if the point is inside its
    /// bounds (parent coordinates), translating to child coordinates.
    /// Returns true if the child consumed it.
    pub fn mouse_to_child(&mut self, child: ViewId, action: MouseAction, pt: Point) -> bool {
        let b = self.view_bounds(child);
        if !b.contains(pt) {
            return false;
        }
        self.mouse_to_child_unchecked(child, action, pt)
    }

    /// Forwards a mouse event to `child` regardless of bounds (parents
    /// may grant a child events outside its rectangle, e.g. drags).
    pub fn mouse_to_child_unchecked(
        &mut self,
        child: ViewId,
        action: MouseAction,
        pt: Point,
    ) -> bool {
        let b = self.view_bounds(child);
        let local = pt - b.origin();
        self.with_view(child, |v, w| v.mouse(w, action, local))
            .unwrap_or(false)
    }

    // --- Focus ---------------------------------------------------------------

    /// Requests the input focus for `view`; granted by the interaction
    /// manager at the end of the current dispatch.
    pub fn request_focus(&mut self, view: ViewId) {
        self.focus_request = Some(view);
    }

    /// Takes the pending focus request (interaction manager only).
    pub fn take_focus_request(&mut self) -> Option<ViewId> {
        self.focus_request.take()
    }

    /// Posts a command to be performed on `target` once the current
    /// dispatch unwinds. This is how a child safely talks to an ancestor
    /// that is on the call stack above it (a list selecting into its
    /// coordinator): direct re-entry would find the ancestor's slot
    /// empty.
    pub fn post_command(&mut self, target: ViewId, command: &str) {
        self.pending_commands.push((target, command.to_string()));
    }

    /// Delivers queued commands (interaction manager / test drivers).
    /// Returns how many were performed.
    pub fn flush_commands(&mut self) -> usize {
        let mut n = 0;
        // Commands may enqueue further commands; bound the cascade.
        for _ in 0..64 {
            let batch = std::mem::take(&mut self.pending_commands);
            if batch.is_empty() {
                break;
            }
            for (target, cmd) in batch {
                n += 1;
                self.with_view(target, |v, w| v.perform(w, &cmd));
            }
        }
        n
    }

    /// True if commands are queued.
    pub fn has_pending_commands(&self) -> bool {
        !self.pending_commands.is_empty()
    }

    // --- Clock and timers -------------------------------------------------

    /// The virtual time, in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.clock_ms
    }

    /// Schedules `view.timer(token)` to fire `delay_ms` from now.
    pub fn schedule_timer(&mut self, view: ViewId, delay_ms: u64, token: u32) {
        self.timers.push(Timer {
            due_ms: self.clock_ms + delay_ms,
            view,
            token,
        });
    }

    /// Cancels all timers for a view.
    pub fn cancel_timers(&mut self, view: ViewId) {
        self.timers.retain(|t| t.view != view);
    }

    /// Advances the virtual clock, returning the timers that came due in
    /// order.
    pub fn advance_clock(&mut self, ms: u64) -> Vec<(ViewId, u32)> {
        self.clock_ms += ms;
        // Keep an injected manual trace clock in lock-step with the
        // virtual clock, so span timestamps line up with timer time.
        self.collector.advance_clock_us(ms.saturating_mul(1000));
        let now = self.clock_ms;
        let mut due: Vec<(u64, ViewId, u32)> = Vec::new();
        self.timers.retain(|t| {
            if t.due_ms <= now {
                due.push((t.due_ms, t.view, t.token));
                false
            } else {
                true
            }
        });
        due.sort_by_key(|(d, ..)| *d);
        if !due.is_empty() {
            self.collector.count("world.timers_fired", due.len() as u64);
        }
        due.into_iter().map(|(_, v, t)| (v, t)).collect()
    }
}

impl Default for World {
    fn default() -> Self {
        World::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::UnknownObject;
    use crate::view::{ScrollInfo, ViewBase};
    use atk_graphics::Size;
    use std::any::Any;

    // A minimal view that records events for assertions.
    struct ProbeView {
        base: ViewBase,
        children: Vec<ViewId>,
        changes_seen: usize,
        last_mouse: Option<Point>,
    }

    impl ProbeView {
        fn new() -> ProbeView {
            ProbeView {
                base: ViewBase::new(),
                children: Vec::new(),
                changes_seen: 0,
                last_mouse: None,
            }
        }
    }

    impl View for ProbeView {
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
            self.children.clone()
        }
        fn desired_size(&mut self, _w: &mut World, _budget: i32) -> Size {
            Size::new(10, 10)
        }
        fn draw(&mut self, _w: &mut World, _g: &mut dyn Graphic, _u: Update) {}
        fn mouse(&mut self, world: &mut World, _a: MouseAction, pt: Point) -> bool {
            self.last_mouse = Some(pt);
            // Forward to any child containing the point — parental choice.
            let kids = self.children.clone();
            for k in kids {
                if world.mouse_to_child(k, _a, pt) {
                    return true;
                }
            }
            true
        }
        fn observed_changed(&mut self, world: &mut World, _d: DataId, _c: &ChangeRec) {
            self.changes_seen += 1;
            world.post_damage_full(self.id());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn scroll_info(&self, _w: &World) -> Option<ScrollInfo> {
            None
        }
    }

    #[test]
    fn insert_view_assigns_id() {
        let mut w = World::new();
        let id = w.insert_view(Box::new(ProbeView::new()));
        assert_eq!(w.view_as::<ProbeView>(id).unwrap().id(), id);
    }

    #[test]
    fn observer_notification_is_delayed_until_flush() {
        let mut w = World::new();
        let d = w.insert_data(Box::new(UnknownObject::new("x")));
        let v = w.insert_view(Box::new(ProbeView::new()));
        w.add_observer(d, ObserverRef::View(v));
        w.notify(d, ChangeRec::Full);
        assert_eq!(w.view_as::<ProbeView>(v).unwrap().changes_seen, 0);
        assert!(w.has_pending_notifications());
        let n = w.flush_notifications();
        assert_eq!(n, 1);
        assert_eq!(w.view_as::<ProbeView>(v).unwrap().changes_seen, 1);
    }

    #[test]
    fn multiple_views_all_hear_one_change() {
        let mut w = World::new();
        let d = w.insert_data(Box::new(UnknownObject::new("x")));
        let vs: Vec<ViewId> = (0..5)
            .map(|_| {
                let v = w.insert_view(Box::new(ProbeView::new()));
                w.add_observer(d, ObserverRef::View(v));
                v
            })
            .collect();
        w.notify(d, ChangeRec::Full);
        w.flush_notifications();
        for v in vs {
            assert_eq!(w.view_as::<ProbeView>(v).unwrap().changes_seen, 1);
        }
    }

    #[test]
    fn observer_registration_is_idempotent() {
        let mut w = World::new();
        let d = w.insert_data(Box::new(UnknownObject::new("x")));
        let v = w.insert_view(Box::new(ProbeView::new()));
        w.add_observer(d, ObserverRef::View(v));
        w.add_observer(d, ObserverRef::View(v));
        assert_eq!(w.observers_of(d).len(), 1);
        w.remove_observer(d, ObserverRef::View(v));
        assert!(w.observers_of(d).is_empty());
    }

    #[test]
    fn version_bumps_on_notify() {
        let mut w = World::new();
        let d = w.insert_data(Box::new(UnknownObject::new("x")));
        assert_eq!(w.data_version(d), 0);
        w.notify(d, ChangeRec::Full);
        w.notify(d, ChangeRec::Meta);
        assert_eq!(w.data_version(d), 2);
    }

    #[test]
    fn damage_converts_to_window_coordinates() {
        let mut w = World::new();
        let parent = w.insert_view(Box::new(ProbeView::new()));
        let child = w.insert_view(Box::new(ProbeView::new()));
        w.set_view_parent(child, Some(parent));
        w.set_view_bounds(parent, Rect::new(100, 50, 200, 200));
        w.set_view_bounds(child, Rect::new(10, 20, 50, 50));
        w.post_damage(child, Rect::new(1, 2, 5, 5));
        let region = w.take_damage_region();
        assert_eq!(region.bounding_box(), Rect::new(111, 72, 5, 5));
        assert!(!w.has_damage());
    }

    /// A move is cut to the view and queued; the pixels it leaves
    /// behind, pixels of the moved rect coming into sight, and earlier
    /// damage inside its source (carried to where it lands) are damaged.
    #[test]
    fn a_move_damages_what_the_copy_cannot_supply() {
        let mut w = World::new();
        let v = w.insert_view(Box::new(ProbeView::new()));
        w.set_view_bounds(v, Rect::new(0, 0, 100, 100));
        w.post_damage(v, Rect::new(0, 50, 100, 5));
        // Rows 40..140 shift down 10: 40..90 of them are in sight.
        w.post_move(v, Rect::new(0, 40, 100, 100), 0, 10);
        assert_eq!(
            w.take_moves_for(v),
            vec![(Rect::new(0, 40, 100, 50), 0, 10)]
        );
        let region = w.take_damage_region();
        for (y, damaged) in [(39, false), (40, true), (49, true), (50, true), (55, false)] {
            assert_eq!(region.contains(Point::new(5, y)), damaged, "row {y}");
        }
        // The earlier damage at 50..55 rides along to 60..65.
        assert!(region.contains(Point::new(5, 62)));
        assert!(!region.contains(Point::new(5, 70)));
        // Moving up: the rows that come into sight from below the view,
        // 90..100, are damaged.
        w.post_move(v, Rect::new(0, 40, 100, 100), 0, -10);
        assert_eq!(
            w.take_moves_for(v),
            vec![(Rect::new(0, 40, 100, 60), 0, -10)]
        );
        let region = w.take_damage_region();
        assert!(region.contains(Point::new(5, 95)) && !region.contains(Point::new(5, 85)));
        // A child of a view that may paint over it gets damage only.
        let child = w.insert_view(Box::new(ProbeView::new()));
        w.set_view_parent(child, Some(v));
        w.set_view_bounds(child, Rect::new(0, 0, 50, 50));
        w.post_move(child, Rect::new(0, 10, 50, 40), 0, 5);
        assert!(w.take_moves_for(v).is_empty());
        assert_eq!(
            w.take_damage_region().bounding_box(),
            Rect::new(0, 10, 50, 40)
        );
    }

    /// A sideways move: a row's tail shifts right past the view's edge,
    /// or left, leaving its edge's strip behind; earlier damage in the
    /// source rides along sideways.
    #[test]
    fn a_sideways_move_damages_the_columns_it_exposes() {
        let mut w = World::new();
        let v = w.insert_view(Box::new(ProbeView::new()));
        w.set_view_bounds(v, Rect::new(0, 0, 100, 100));
        w.post_damage(v, Rect::new(60, 20, 1, 10));
        // Columns 30..100 of rows 20..30 shift right 14: what lands past
        // the right edge is dropped, and columns 30..44 are left behind.
        w.post_move(v, Rect::new(30, 20, 70, 10), 14, 0);
        assert_eq!(
            w.take_moves_for(v),
            vec![(Rect::new(30, 20, 56, 10), 14, 0)]
        );
        let region = w.take_damage_region();
        for (x, damaged) in [
            (29, false),
            (30, true),
            (43, true),
            (44, false),
            (60, true),
            (74, true),
            (75, false),
        ] {
            assert_eq!(region.contains(Point::new(x, 25)), damaged, "column {x}");
        }
        assert!(!region.contains(Point::new(35, 19)) && !region.contains(Point::new(35, 30)));
        // Shifting left: columns 86..100 come into sight from past the
        // right edge of the source.
        w.post_move(v, Rect::new(44, 20, 56, 10), -14, 0);
        assert_eq!(
            w.take_moves_for(v),
            vec![(Rect::new(44, 20, 56, 10), -14, 0)]
        );
        assert_eq!(
            w.take_damage_region().bounding_box(),
            Rect::new(86, 20, 14, 10)
        );
    }

    #[test]
    fn damage_clips_to_view_extents() {
        let mut w = World::new();
        let v = w.insert_view(Box::new(ProbeView::new()));
        w.set_view_bounds(v, Rect::new(10, 10, 20, 20));
        w.post_damage(v, Rect::new(15, 15, 100, 100));
        let region = w.take_damage_region();
        assert_eq!(region.bounding_box(), Rect::new(25, 25, 5, 5));
    }

    #[test]
    fn contained_damage_posts_coalesce_at_post_time() {
        let mut w = World::new();
        let v = w.insert_view(Box::new(ProbeView::new()));
        w.set_view_bounds(v, Rect::new(0, 0, 100, 100));
        // Growing rects on the same view: each new post swallows the
        // previous pending entry...
        w.post_damage(v, Rect::new(10, 10, 5, 5));
        w.post_damage(v, Rect::new(10, 10, 20, 20));
        // ...and a rect already inside the pending entry is absorbed.
        w.post_damage(v, Rect::new(12, 12, 3, 3));
        assert_eq!(w.pending_damage_len(), 1);
        let region = w.take_damage_region();
        assert_eq!(region.bounding_box(), Rect::new(10, 10, 20, 20));
    }

    #[test]
    fn xform_cache_invalidates_on_geometry_and_parent_changes() {
        let mut w = World::new();
        let parent = w.insert_view(Box::new(ProbeView::new()));
        let child = w.insert_view(Box::new(ProbeView::new()));
        w.set_view_parent(child, Some(parent));
        w.set_view_bounds(parent, Rect::new(100, 50, 200, 200));
        w.set_view_bounds(child, Rect::new(10, 20, 50, 50));
        w.post_damage(child, Rect::new(1, 2, 5, 5));
        assert_eq!(
            w.take_damage_region().bounding_box(),
            Rect::new(111, 72, 5, 5)
        );
        // Move the parent: the cached child transform must not be reused.
        w.set_view_bounds(parent, Rect::new(0, 0, 200, 200));
        w.post_damage(child, Rect::new(1, 2, 5, 5));
        assert_eq!(
            w.take_damage_region().bounding_box(),
            Rect::new(11, 22, 5, 5)
        );
        // Reparent to the root: offsets drop the old parent's origin.
        w.set_view_parent(child, None);
        w.post_damage(child, Rect::new(1, 2, 5, 5));
        assert_eq!(
            w.take_damage_region().bounding_box(),
            Rect::new(11, 22, 5, 5)
        );
    }

    #[test]
    fn mouse_routing_translates_coordinates() {
        let mut w = World::new();
        let parent = w.insert_view(Box::new(ProbeView::new()));
        let child = w.insert_view(Box::new(ProbeView::new()));
        w.set_view_parent(child, Some(parent));
        w.set_view_bounds(parent, Rect::new(0, 0, 100, 100));
        w.set_view_bounds(child, Rect::new(30, 30, 40, 40));
        w.view_as_mut::<ProbeView>(parent)
            .unwrap()
            .children
            .push(child);
        let consumed = w.with_view(parent, |v, w| {
            v.mouse(
                w,
                MouseAction::Down(atk_wm::Button::Left),
                Point::new(35, 45),
            )
        });
        assert_eq!(consumed, Some(true));
        assert_eq!(
            w.view_as::<ProbeView>(child).unwrap().last_mouse,
            Some(Point::new(5, 15))
        );
    }

    #[test]
    fn timers_fire_in_order_when_clock_advances() {
        let mut w = World::new();
        let v = w.insert_view(Box::new(ProbeView::new()));
        w.schedule_timer(v, 100, 2);
        w.schedule_timer(v, 50, 1);
        assert!(w.advance_clock(49).is_empty());
        assert_eq!(w.advance_clock(1), vec![(v, 1)]);
        assert_eq!(w.advance_clock(1000), vec![(v, 2)]);
        assert!(w.advance_clock(1000).is_empty());
    }

    #[test]
    fn cancel_timers_removes_them() {
        let mut w = World::new();
        let v = w.insert_view(Box::new(ProbeView::new()));
        w.schedule_timer(v, 10, 1);
        w.cancel_timers(v);
        assert!(w.advance_clock(100).is_empty());
    }

    #[test]
    fn path_to_walks_from_root() {
        let mut w = World::new();
        let a = w.insert_view(Box::new(ProbeView::new()));
        let b = w.insert_view(Box::new(ProbeView::new()));
        let c = w.insert_view(Box::new(ProbeView::new()));
        w.set_view_parent(b, Some(a));
        w.set_view_parent(c, Some(b));
        assert_eq!(w.path_to(c), vec![a, b, c]);
        assert_eq!(w.path_to(a), vec![a]);
    }

    #[test]
    fn remove_view_tree_removes_descendants() {
        let mut w = World::new();
        let a = w.insert_view(Box::new(ProbeView::new()));
        let b = w.insert_view(Box::new(ProbeView::new()));
        w.set_view_parent(b, Some(a));
        w.view_as_mut::<ProbeView>(a).unwrap().children.push(b);
        w.remove_view_tree(a);
        assert!(!w.view_exists(a));
        assert!(!w.view_exists(b));
        assert_eq!(w.view_count(), 0);
    }

    // A forkable probe: clones itself, reporting a payload size.
    #[derive(Clone)]
    struct ForkProbe {
        base: ViewBase,
        ticks: Vec<u32>,
    }

    impl View for ForkProbe {
        fn class_name(&self) -> &'static str {
            "forkprobe"
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
        fn timer(&mut self, _w: &mut World, token: u32) {
            self.ticks.push(token);
        }
        fn fork(&self) -> Option<Box<dyn View>> {
            Some(Box::new(self.clone()))
        }
        fn shared_payload_bytes(&self) -> u64 {
            16
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn fork_fails_naming_the_unforkable_class() {
        let mut w = World::new();
        w.insert_view(Box::new(ProbeView::new()));
        let err = w.fork().map(|_| ()).unwrap_err();
        assert!(err.contains("`probe`"), "{err}");
    }

    #[test]
    fn fork_carries_state_and_isolates_mutations() {
        let mut w = World::new();
        let d = w.insert_data(Box::new(UnknownObject::new("x")));
        let v = w.insert_view(Box::new(ForkProbe {
            base: ViewBase::new(),
            ticks: Vec::new(),
        }));
        w.set_view_bounds(v, Rect::new(5, 5, 50, 50));
        w.add_observer(d, ObserverRef::View(v));
        w.notify(d, ChangeRec::Full);
        w.schedule_timer(v, 100, 9);
        w.advance_clock(40);

        let mut f = w.fork().unwrap();
        // Ids, geometry, queues, and the clock carried over.
        assert_eq!(f.view_bounds(v), Rect::new(5, 5, 50, 50));
        assert_eq!(f.observers_of(d), vec![ObserverRef::View(v)]);
        assert!(f.has_pending_notifications());
        assert_eq!(f.now_ms(), 40);
        // The timer fires at the same virtual instant in the fork.
        assert_eq!(f.advance_clock(60), vec![(v, 9)]);
        // Mutating the fork leaves the source untouched (and vice versa).
        f.view_as_mut::<ForkProbe>(v).unwrap().ticks.push(1);
        assert!(w.view_as::<ForkProbe>(v).unwrap().ticks.is_empty());
        let d2 = f.insert_data(Box::new(UnknownObject::new("y")));
        assert!(w.data_dyn(d2).is_none());
        // Fresh inserts mint identical ids on both sides (same free list).
        let a = w.insert_data(Box::new(UnknownObject::new("z")));
        let b = f.insert_data(Box::new(UnknownObject::new("z")));
        assert_ne!(a, b, "fork already used the next slot");
    }

    #[test]
    fn fork_counts_on_the_source_collector() {
        let collector = Arc::new(Collector::new());
        collector.enable();
        let mut w = World::new();
        w.set_collector(collector.clone());
        w.insert_view(Box::new(ForkProbe {
            base: ViewBase::new(),
            ticks: Vec::new(),
        }));
        let f = w.fork().unwrap();
        let snap = collector.snapshot();
        assert_eq!(snap.counter("world.forks"), 1);
        assert_eq!(snap.counter("world.fork_shared_bytes"), 16);
        // The fork inherits the collector until the caller replaces it.
        assert!(Arc::ptr_eq(f.collector(), &collector));
    }

    #[test]
    fn with_view_is_reentrancy_safe() {
        let mut w = World::new();
        let v = w.insert_view(Box::new(ProbeView::new()));
        let outer = w.with_view(v, |_, w| {
            // Re-entering the same view while it is taken is a no-op.
            w.with_view(v, |_, _| 42)
        });
        assert_eq!(outer, Some(None));
        // And the view is back afterwards.
        assert!(w.view_as::<ProbeView>(v).is_some());
    }
}
