//! The six session oracles.
//!
//! Each check returns `None` when the invariant holds, or a human
//! readable description of the violation. They exploit the two protocol
//! guarantees the paper's architecture rests on: delayed update means an
//! incremental damage pass must converge to the same pixels as a
//! from-scratch redraw (§2) — and, one layer down, an incremental
//! *relayout* must converge to the same line table as a from-scratch
//! re-wrap — and the datastream writer/reader pair must be a bijection
//! on documents it produced itself (§5). The `fork` oracle extends the
//! differential family to the template-fork fast path: a session forked
//! from a pre-warmed template world must be indistinguishable, under any
//! traffic, from one built cold.

use atk_core::{document_to_string, read_document, ViewId, World};
use atk_graphics::Rect;

use crate::Session;

/// Which oracle tripped (or is enabled, in [`crate::OracleSet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Incremental repaint ≡ full redraw.
    Repaint,
    /// save → load → save is byte identity.
    Roundtrip,
    /// View-tree structural invariants.
    Tree,
    /// X11Sim and AwmSim agree pixel-for-pixel and count-for-count.
    Backend,
    /// Incremental text relayout ≡ from-scratch relayout.
    Layout,
    /// Template-forked session ≡ cold-built session under the same
    /// traffic.
    Fork,
}

impl Oracle {
    /// Every oracle, in the order `run_oracles` checks them.
    pub const ALL: [Oracle; 6] = [
        Oracle::Backend,
        Oracle::Fork,
        Oracle::Layout,
        Oracle::Repaint,
        Oracle::Roundtrip,
        Oracle::Tree,
    ];

    /// The oracle's short name (`repaint`, `tree`, …).
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Repaint => "repaint",
            Oracle::Roundtrip => "roundtrip",
            Oracle::Tree => "tree",
            Oracle::Backend => "backend",
            Oracle::Layout => "layout",
            Oracle::Fork => "fork",
        }
    }

    /// Histogram key for this oracle's per-invocation wall time.
    pub fn us_key(self) -> &'static str {
        match self {
            Oracle::Repaint => "check.oracle_us.repaint",
            Oracle::Roundtrip => "check.oracle_us.roundtrip",
            Oracle::Tree => "check.oracle_us.tree",
            Oracle::Backend => "check.oracle_us.backend",
            Oracle::Layout => "check.oracle_us.layout",
            Oracle::Fork => "check.oracle_us.fork",
        }
    }

    /// Counter key for this oracle's violation count.
    pub fn violations_key(self) -> &'static str {
        match self {
            Oracle::Repaint => "check.violations.repaint",
            Oracle::Roundtrip => "check.violations.roundtrip",
            Oracle::Tree => "check.violations.tree",
            Oracle::Backend => "check.violations.backend",
            Oracle::Layout => "check.violations.layout",
            Oracle::Fork => "check.violations.fork",
        }
    }
}

impl std::fmt::Display for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A tripped oracle with its explanation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub oracle: Oracle,
    /// What exactly diverged.
    pub detail: String,
}

fn count_pixel_diffs(a: &atk_graphics::Framebuffer, b: &atk_graphics::Framebuffer) -> usize {
    if a.width() != b.width() || a.height() != b.height() {
        return (a.width() * a.height()).unsigned_abs() as usize;
    }
    let mut diffs = 0;
    for y in 0..a.height() {
        for x in 0..a.width() {
            if a.get(x, y) != b.get(x, y) {
                diffs += 1;
            }
        }
    }
    diffs
}

/// Repaint equivalence: the framebuffer produced by the incremental
/// damage path must equal a from-scratch full redraw of the same world.
///
/// A `MenuRequest` paints a transient pop-up overlay directly on the
/// window without posting damage — the period behaviour of a grabbed X
/// pop-up — so while it is up the incremental framebuffer
/// *legitimately* differs from a full redraw. The next step takes it
/// down and exposes what it covered. The session tracks whether the
/// last step put it up ([`Session::overlay_possible`]); then we skip
/// the comparison and only resynchronise with a full redraw.
pub fn check_repaint(s: &mut Session) -> Option<String> {
    let before = s.im.snapshot()?;
    s.im.redraw_full(&mut s.world);
    if s.overlay_possible {
        s.overlay_possible = false;
        return None;
    }
    let after = s.im.snapshot()?;
    if before != after {
        let diffs = count_pixel_diffs(&before, &after);
        return Some(format!(
            "incremental framebuffer diverges from full redraw ({diffs} pixels)"
        ));
    }
    None
}

/// Finds the first data-bearing view under `root` (breadth-first), i.e.
/// the scene's document.
pub fn find_document(world: &World, root: ViewId) -> Option<atk_core::DataId> {
    let mut queue = vec![root];
    let mut i = 0;
    while i < queue.len() {
        let v = queue[i];
        i += 1;
        let Some(view) = world.view_dyn(v) else {
            continue;
        };
        if let Some(d) = view.data_object() {
            return Some(d);
        }
        queue.extend(view.children());
    }
    None
}

/// Datastream round-trip: serialize the live document, read it into a
/// fresh world, serialize again, require byte equality.
pub fn check_roundtrip(s: &Session) -> Option<String> {
    let doc = find_document(&s.world, s.im.root())?;
    let first = document_to_string(&s.world, doc);
    let mut fresh = atk_apps::standard_world();
    let reread = match read_document(&mut fresh, &first) {
        Ok(id) => id,
        Err(e) => {
            return Some(format!(
                "serialized document does not read back: {e:?} (stream {} bytes)",
                first.len()
            ))
        }
    };
    let second = document_to_string(&fresh, reread);
    if first != second {
        return Some(format!(
            "save/load/save is not identity: {} vs {} bytes, first divergence at byte {}",
            first.len(),
            second.len(),
            first
                .bytes()
                .zip(second.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(first.len().min(second.len())),
        ));
    }
    None
}

/// View-tree invariants: parent/child links mutually consistent, no
/// dangling ids, parent chains acyclic, child bounds clipped inside
/// non-scrolling parents, and the focus reachable from the root.
pub fn check_tree(s: &Session) -> Option<String> {
    let world = &s.world;
    let root = s.im.root();
    if let Some(p) = world.view_parent(root) {
        return Some(format!("root {root:?} has a parent {p:?}"));
    }
    let ids = world.view_ids();
    let total = ids.len();
    for &id in &ids {
        let Some(view) = world.view_dyn(id) else {
            return Some(format!("live id {id:?} has no view"));
        };
        // Downward links: every listed child exists and points back.
        for c in view.children() {
            if !world.view_exists(c) {
                return Some(format!("view {id:?} lists dangling child {c:?}"));
            }
            if world.view_parent(c) != Some(id) {
                return Some(format!(
                    "child {c:?} of {id:?} has parent {:?}",
                    world.view_parent(c)
                ));
            }
        }
        // Upward link: the parent must exist, and walking up must
        // terminate (no cycles).
        let mut cur = id;
        let mut hops = 0;
        while let Some(p) = world.view_parent(cur) {
            if !world.view_exists(p) {
                return Some(format!("view {cur:?} has dangling parent {p:?}"));
            }
            cur = p;
            hops += 1;
            if hops > total {
                return Some(format!("parent chain from {id:?} cycles"));
            }
        }
        // Clipping: children of non-scrolling parents stay inside the
        // parent's local rect. Scrolling parents (text, table, list)
        // legitimately park content children off-rect, and zero-area
        // children are layout's way of hiding a view.
        if let Some(p) = world.view_parent(id) {
            let scrolls = world
                .view_dyn(p)
                .and_then(|v| v.scroll_info(world))
                .is_some();
            let b = world.view_bounds(id);
            if !scrolls && b.width > 0 && b.height > 0 {
                let pb = world.view_bounds(p);
                let local = Rect::new(0, 0, pb.width, pb.height);
                if !local.contains_rect(b) {
                    return Some(format!(
                        "child {id:?} bounds {b:?} escape parent {p:?} rect {local:?}"
                    ));
                }
            }
        }
    }
    // Focus: must exist and have exactly one path, ending at the root.
    if let Some(f) = s.im.focus() {
        if !world.view_exists(f) {
            return Some(format!("focus {f:?} is a dead view"));
        }
        let path = world.path_to(f);
        if path.first() != Some(&root) {
            return Some(format!(
                "focus path {path:?} does not start at root {root:?}"
            ));
        }
        if path.last() != Some(&f) {
            return Some(format!("focus path {path:?} does not end at focus {f:?}"));
        }
    }
    None
}

/// Layout differential: every text view's incrementally maintained line
/// table must be byte-identical to what a from-scratch relayout of the
/// same document at the same width produces. This is the oracle for the
/// edit-local relayout path — the one place a wrong convergence bound or
/// a stale memoized width would show up before any pixel does.
pub fn check_layout(s: &mut Session) -> Option<String> {
    for id in s.world.view_ids() {
        let result = s.world.with_view(id, |view, world| {
            view.as_any_mut()
                .downcast_mut::<atk_text::TextView>()
                .map(|tv| tv.verify_layout_against_full(world))
        });
        if let Some(Some(Err(detail))) = result {
            return Some(format!("textview {id:?}: {detail}"));
        }
    }
    None
}

/// The comparison both differential oracles share: after the same
/// script, two sessions must agree on pixels, update-pass counts, and
/// damage-rect counts. `what` names the pairing in the violation text
/// (`between backends`, `between cold build and fork`).
fn compare_sessions(a: &Session, b: &Session, what: &str) -> Option<String> {
    match (a.im.snapshot(), b.im.snapshot()) {
        (Some(fa), Some(fb)) => {
            if fa != fb {
                let diffs = count_pixel_diffs(&fa, &fb);
                return Some(format!("framebuffers diverge {what} ({diffs} pixels)"));
            }
        }
        _ => return Some(format!("a session cannot snapshot ({what})")),
    }
    let sa = a.world.collector().snapshot();
    let sb = b.world.collector().snapshot();
    for key in ["im.updates", "im.full_redraws", "im.events"] {
        let (ca, cb) = (sa.counter(key), sb.counter(key));
        if ca != cb {
            return Some(format!("counter {key} diverges {what}: {ca} vs {cb}"));
        }
    }
    let ha = sa.histogram("im.damage_rects").map(|h| (h.count, h.sum));
    let hb = sb.histogram("im.damage_rects").map(|h| (h.count, h.sum));
    if ha != hb {
        return Some(format!(
            "damage-rect histograms diverge {what}: {ha:?} vs {hb:?} (count, sum)"
        ));
    }
    None
}

/// Backend differential: after the same script, the X11Sim and AwmSim
/// sessions must agree on pixels, update-pass counts, and damage-rect
/// counts.
pub fn check_backend(a: &Session, b: &Session) -> Option<String> {
    compare_sessions(a, b, "between backends")
}

/// Fork differential: a session forked from a pre-warmed template world
/// (and fed the same script as the cold-built session under test) must
/// agree on pixels, update-pass counts, and damage-rect counts. Any
/// state the fork secretly shares with its template — or inherits from
/// an earlier fork's traffic — surfaces here.
pub fn check_fork(cold: &Session, forked: &Session) -> Option<String> {
    compare_sessions(cold, forked, "between cold build and fork")
}
