//! The text view: the toolkit's semi-WYSIWYG ("WYSLRN" — *What You See
//! Looks Real Neat*, paper §2) display and editor for [`TextData`].
//!
//! "The text view contains information such as the current selected piece
//! of text, the portion of the text that is currently visible, and the
//! location of the text. The text view provides methods for drawing the
//! text, handling various input events (mouse, keyboard, menus), and
//! manipulating the visual representation of the text."
//!
//! The view keeps a line-layout cache; incoming change records
//! invalidate it from the edited line downward and damage only the
//! affected strip — the incremental half of the delayed-update protocol
//! that experiment E8 measures against redraw-everything.
//!
//! Embedded objects appear as *insets*: at each anchor the view
//! instantiates the anchor's view class through the catalog
//! ([`World::new_view`]), binds it with `set_data_object`, wraps lines
//! around its desired size, and forwards mouse events into it — which is
//! the whole point of the toolkit: the table inside this text is editable
//! in place by a component the text view knows nothing about.

use std::any::Any;
use std::sync::Arc;

use atk_graphics::{Color, Point, Rect, Size, WidthTable};
use atk_wm::{Button, CursorShape, Graphic, Key, MouseAction};

use atk_core::{
    standard_editing_keymap, ChangeRec, DataId, KeyOutcome, KeyState, Keymap, MenuItem, ScrollInfo,
    Update, View, ViewBase, ViewId, World,
};

use crate::data::TextData;
use crate::style::{Style, StyleId};

/// Left/right margin inside the view.
const MARGIN: i32 = 4;

/// One laid-out line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Line {
    /// First buffer position on the line.
    start: usize,
    /// One past the last position (excluding a trailing `\n`).
    end: usize,
    /// Top of the line, in layout (content) coordinates.
    y: i32,
    /// Line height in pixels.
    height: i32,
    /// Baseline offset from the line top.
    baseline: i32,
    /// Left indent of the line's style: its text starts this far in.
    indent: i32,
    /// Pixel width of the line's content including its indent (the x
    /// the wrap scan reached at `end`), memoized so hit-testing past
    /// the line edge can skip the per-char re-measure.
    width: i32,
    /// Highest buffer position the wrap scan *examined* while laying
    /// this line (inclusive). Usually within the next line: the scan
    /// runs to the first overflowing character before rewinding to the
    /// last space, and the line's height keeps the overflow chars'
    /// fonts. Incremental relayout must re-lay any line whose scan
    /// reached the edit, not just the line containing it.
    scan_end: usize,
}

/// How a [`TextView::wrap_lines`] pass finished.
struct WrapEnd {
    /// Content-coordinate y just below the last line appended.
    next_y: i32,
    /// Index into the *old* line table where layout re-converged, when
    /// an incremental pass stopped early.
    converged: Option<usize>,
}

/// What an edit moved on screen, in content coordinates.
struct Reflow {
    /// Rows whose pixels may have changed: `(top, bottom)`.
    strip: (i32, i32),
    /// Lines that kept their wrap but shifted: `(old top, old bottom,
    /// dy)`, the bottom being the end of the text.
    tail: Option<(i32, i32, i32)>,
    /// The one line re-laid, `(before, after)`, when the edit re-laid
    /// only its own line and every other line kept its place.
    row: Option<(Line, Line)>,
}

/// Convergence target for an incremental wrap pass.
struct Converge<'a> {
    /// The pre-edit line table.
    old: &'a [Line],
    /// Net byte delta of the edit (inserted − deleted).
    delta: i64,
    /// Last pre-edit position the edit touched. Old line starts must be
    /// strictly past it before they can be trusted to have shifted
    /// uniformly by `delta`: marks sitting exactly on the boundary move
    /// by gravity, not uniformly.
    edit_end_old: usize,
}

/// Chunked read-through view of a text's characters and style runs.
///
/// Layout interleaves measuring (shared `World` borrow) with inset
/// `desired_size` calls (`&mut World`), so it cannot hold a text borrow
/// across the scan. Snapshotting the whole document per relayout — what
/// full relayout used to do — costs O(document) even when one line is
/// re-wrapped; this cursor fetches a small window on demand instead,
/// keeping a pass proportional to the characters it actually examines.
#[derive(Default)]
struct CharCursor {
    base: usize,
    chars: Vec<char>,
    /// Style runs covering the chunk, `(start, len, id)` in absolute
    /// buffer positions.
    runs: Vec<(usize, usize, StyleId)>,
}

/// Characters fetched per cursor refill.
const CURSOR_CHUNK: usize = 256;

impl CharCursor {
    fn refill(&mut self, world: &World, data_id: DataId, i: usize) {
        self.base = i;
        self.chars.clear();
        self.runs.clear();
        let Some(text) = world.data::<TextData>(data_id) else {
            return;
        };
        let end = (i + CURSOR_CHUNK).min(text.len());
        self.chars
            .extend((i..end).map(|p| text.char_at(p).unwrap_or(' ')));
        self.runs = text.runs_in(i, end.max(i + 1));
    }

    fn ensure(&mut self, world: &World, data_id: DataId, i: usize) {
        if i < self.base || i >= self.base + self.chars.len() {
            self.refill(world, data_id, i);
        }
    }

    fn char_at(&mut self, world: &World, data_id: DataId, i: usize) -> char {
        self.ensure(world, data_id, i);
        self.chars
            .get(i.wrapping_sub(self.base))
            .copied()
            .unwrap_or(' ')
    }

    fn style_at(&mut self, world: &World, data_id: DataId, i: usize) -> StyleId {
        self.ensure(world, data_id, i);
        for &(s, l, id) in &self.runs {
            if i >= s && i < s + l {
                return id;
            }
        }
        0
    }
}

/// Per-style measurement data resolved once per wrap pass: indent,
/// vertical metrics, and the shared width table of the style's font.
struct StyleMetrics {
    indent: i32,
    line_height: i32,
    ascent: i32,
    widths: Arc<WidthTable>,
}

/// Lazily built `StyleId` → [`StyleMetrics`] map. Ids are small dense
/// indices into the document's interned style table, so a `Vec` slot
/// per id beats hashing the `FontDesc` for every character.
#[derive(Default)]
struct StyleMetricsCache {
    by_id: Vec<Option<StyleMetrics>>,
}

impl StyleMetricsCache {
    fn get(&mut self, world: &World, data_id: DataId, id: StyleId) -> &StyleMetrics {
        if id >= self.by_id.len() {
            self.by_id.resize_with(id + 1, || None);
        }
        if self.by_id[id].is_none() {
            let (indent, font) = match world.data::<TextData>(data_id) {
                Some(t) => {
                    let s = t.styles.get(id);
                    (s.indent, s.font())
                }
                None => (0, Style::body().font()),
            };
            let m = font.metrics();
            self.by_id[id] = Some(StyleMetrics {
                indent,
                line_height: m.line_height,
                ascent: m.ascent,
                widths: font.width_table(),
            });
        }
        self.by_id[id].as_ref().expect("just filled")
    }
}

/// Redraw accounting (experiment E8 reads these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedrawStats {
    /// Full-view damage posts.
    pub full: u64,
    /// Partial (line-strip) damage posts.
    pub partial: u64,
    /// Total damaged pixel area posted.
    pub damage_area: i64,
}

/// The text view. See the module docs.
#[derive(Clone)]
pub struct TextView {
    base: ViewBase,
    data: Option<DataId>,
    keymap: Keymap,
    keystate: KeyState,
    caret: usize,
    sel_anchor: Option<usize>,
    scroll_y: i32,
    lines: Vec<Line>,
    layout_valid: bool,
    layout_width: i32,
    /// Inset child views in document (anchor) order — the order layout
    /// first meets them, which is also their paint order. A `Vec`, not a
    /// hash map: child order must not depend on hasher state.
    insets: Vec<(DataId, ViewId)>,
    kill_buffer: String,
    focused: bool,
    /// When true (the default), `ChangeRec::Text` relayouts re-wrap only
    /// from the first affected line until line starts re-converge with
    /// the old table. When false the whole document re-wraps per edit —
    /// kept reachable (like `legacy_region`) as the bench/test oracle.
    incremental: bool,
    /// Notifications pending from this view's own edits: the caret was
    /// already moved by the editing code, so `observed_changed` must not
    /// adjust it again when the delayed notification arrives.
    self_changes: usize,
    /// A typed key edited the text: the caret is scrolled into view once
    /// this view has observed its own edit, when the line table holds
    /// the caret's new line.
    scroll_pending: bool,
    /// Redraw accounting.
    pub stats: RedrawStats,
}

impl TextView {
    /// An unbound text view; attach data with `set_data_object`.
    pub fn new() -> TextView {
        TextView {
            base: ViewBase::new(),
            data: None,
            keymap: standard_editing_keymap(),
            keystate: KeyState::new(),
            caret: 0,
            sel_anchor: None,
            scroll_y: 0,
            lines: Vec::new(),
            layout_valid: false,
            layout_width: 0,
            insets: Vec::new(),
            kill_buffer: String::new(),
            focused: false,
            incremental: true,
            self_changes: 0,
            scroll_pending: false,
            stats: RedrawStats::default(),
        }
    }

    /// The caret position.
    pub fn caret(&self) -> usize {
        self.caret
    }

    /// Moves the caret (clamped), clearing the selection.
    pub fn set_caret(&mut self, world: &mut World, pos: usize) {
        let before = self.marks_strip(world);
        self.caret = pos.min(self.data_len(world));
        self.sel_anchor = None;
        self.damage_marks(world, before);
    }

    /// The selected range, if any.
    pub fn selection(&self) -> Option<(usize, usize)> {
        let a = self.sel_anchor?;
        if a == self.caret {
            return None;
        }
        Some((a.min(self.caret), a.max(self.caret)))
    }

    /// Selects a range explicitly.
    pub fn select(&mut self, world: &mut World, start: usize, end: usize) {
        let before = self.marks_strip(world);
        self.sel_anchor = Some(start);
        self.caret = end;
        self.damage_marks(world, before);
    }

    fn data_len(&self, world: &World) -> usize {
        self.data
            .and_then(|d| world.data::<TextData>(d))
            .map(|t| t.len())
            .unwrap_or(0)
    }

    /// Number of laid-out lines (layout must be current).
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Total layout height in pixels.
    pub fn content_height(&self) -> i32 {
        self.lines.last().map(|l| l.y + l.height).unwrap_or(0)
    }

    // --- Layout -------------------------------------------------------------

    /// Recomputes the line layout if stale. Returns true if it ran.
    pub fn ensure_layout(&mut self, world: &mut World) -> bool {
        let width = world.view_bounds(self.base.id).width - 2 * MARGIN;
        if self.layout_valid && self.layout_width == width {
            return false;
        }
        self.layout_width = width;
        self.lines.clear();
        let Some(data_id) = self.data else {
            self.layout_valid = true;
            return true;
        };
        if world.data::<TextData>(data_id).is_some() {
            self.wrap_lines(world, data_id, 0, 0, None);
        }
        self.layout_valid = true;
        true
    }

    /// Toggles edit-local relayout (on by default). The full-relayout
    /// path stays reachable so benches and tests can use it as the
    /// oracle for the incremental one.
    pub fn set_incremental_layout(&mut self, on: bool) {
        self.incremental = on;
    }

    /// Appends wrapped lines to `self.lines` starting at buffer position
    /// `start_pos` / content coordinate `start_y`, until end of text or —
    /// when `converge` is given — until a laid line start lands exactly
    /// on a shifted old line start strictly past the edited span, at
    /// which point the old tail is byte-reusable and wrapping stops.
    ///
    /// The wrap loop is the one full relayout has always used (greedy,
    /// break at the last space, overflow chars' fonts kept in the line
    /// height); incremental and from-scratch passes share it so the
    /// differential oracle can demand byte-identical line tables.
    fn wrap_lines(
        &mut self,
        world: &mut World,
        data_id: DataId,
        start_pos: usize,
        start_y: i32,
        converge: Option<Converge<'_>>,
    ) -> WrapEnd {
        let (len, anchors): (usize, Vec<(usize, DataId, String)>) = {
            let Some(text) = world.data::<TextData>(data_id) else {
                return WrapEnd {
                    next_y: start_y,
                    converged: None,
                };
            };
            (text.len(), text.anchors())
        };
        // Make sure inset views exist before measuring. `anchors` is
        // sorted by position, so anchor lookup is a binary search.
        for (_, data, view_class) in &anchors {
            self.ensure_inset(world, *data, view_class);
        }
        let anchor_at = |pos: usize| -> Option<DataId> {
            let i = anchors.partition_point(|(p, ..)| *p < pos);
            (i < anchors.len() && anchors[i].0 == pos).then(|| anchors[i].1)
        };

        let budget = self.layout_width.max(20);
        let mut cursor = CharCursor::default();
        let mut styles = StyleMetricsCache::default();
        let mut y = start_y;
        let mut pos = start_pos;
        let mut relaid: u64 = 0;
        let mut inset_places: Vec<(ViewId, i32, i32, Size)> = Vec::new();
        let mut converged = None;
        loop {
            if let Some(c) = &converge {
                // Reuse the old tail once line starts re-align. Strictly
                // past the edited span only: marks (anchor positions) at
                // the boundary itself shift by gravity, not uniformly.
                let q = pos as i64 - c.delta;
                if q > c.edit_end_old as i64 {
                    let qi = c.old.partition_point(|l| (l.start as i64) < q);
                    if qi < c.old.len() && c.old[qi].start as i64 == q {
                        converged = Some(qi);
                        break;
                    }
                }
            }
            // Lay out one line starting at `pos`.
            let line_style = cursor.style_at(world, data_id, pos.min(len.saturating_sub(1)));
            let indent = styles.get(world, data_id, line_style).indent;
            let mut x = indent;
            let mut i = pos;
            let mut last_break: Option<usize> = None;
            let mut break_x = 0;
            let mut line_height = 0;
            let mut ascent = 0;
            let mut ended_by_newline = false;
            let mut scan_hi: Option<usize> = None;

            while i < len {
                let ch = cursor.char_at(world, data_id, i);
                if ch == '\n' {
                    ended_by_newline = true;
                    scan_hi = Some(i);
                    break;
                }
                let mut pending_inset: Option<(ViewId, Size)> = None;
                let (cw, chh, casc) = if let Some(d) = anchor_at(i) {
                    let inset = self.inset_view(d);
                    let s = inset
                        .and_then(|v| {
                            world.with_view(v, |view, w| view.desired_size(w, budget - x))
                        })
                        .unwrap_or(Size::new(12, 12));
                    if let Some(v) = inset {
                        pending_inset = Some((v, s));
                    }
                    (s.width + 2, s.height + 2, s.height + 1)
                } else {
                    let sid = cursor.style_at(world, data_id, i);
                    let m = styles.get(world, data_id, sid);
                    (m.widths.advance(ch), m.line_height, m.ascent)
                };
                if x + cw > budget && i > pos {
                    // Wrap: prefer the last space. The overflow char was
                    // examined (its width decided the break), so the scan
                    // high-water mark is recorded before the rewind.
                    scan_hi = Some(i);
                    if let Some(b) = last_break {
                        i = b + 1;
                        x = break_x;
                    }
                    break;
                }
                if let Some((vid, s)) = pending_inset {
                    inset_places.push((vid, x, y, s));
                }
                if ch == ' ' {
                    last_break = Some(i);
                    break_x = x + cw;
                }
                x += cw;
                line_height = line_height.max(chh);
                ascent = ascent.max(casc);
                i += 1;
            }
            // At EOF exit `i == len`: the line depends on the text
            // ending there, so an append at `len` must re-lay it.
            let scan_end = scan_hi.unwrap_or(i);
            if line_height == 0 {
                // Empty line: use the style's font height.
                let m = styles.get(world, data_id, line_style);
                line_height = m.line_height;
                ascent = m.ascent;
            }
            self.lines.push(Line {
                start: pos,
                end: i,
                y,
                height: line_height,
                baseline: ascent,
                indent,
                width: x,
                scan_end,
            });
            relaid += 1;
            y += line_height;
            let prev_pos = pos;
            pos = if ended_by_newline { i + 1 } else { i };
            if pos >= len {
                if ended_by_newline {
                    // Trailing empty line after a final newline.
                    let sid = cursor.style_at(world, data_id, len.saturating_sub(1));
                    let m = styles.get(world, data_id, sid);
                    self.lines.push(Line {
                        start: len,
                        end: len,
                        y,
                        height: m.line_height,
                        baseline: m.ascent,
                        indent: m.indent,
                        width: 0,
                        scan_end: len,
                    });
                    relaid += 1;
                    y += m.line_height;
                }
                break;
            }
            if pos == prev_pos {
                // Safety: no progress (budget too small for one char).
                pos += 1;
            }
        }
        world.collector().count("text.relayout_lines", relaid);
        // Position inset child bounds from the placements recorded while
        // measuring (x is in layout space; drawing adds MARGIN; y is the
        // line top in content space — the draw pass subtracts scroll).
        for (vid, x, ly, s) in inset_places {
            world.set_view_bounds(
                vid,
                Rect::new(MARGIN + x + 1, ly - self.scroll_y + 1, s.width, s.height),
            );
        }
        WrapEnd {
            next_y: y,
            converged,
        }
    }

    /// Edit-local relayout for a `ChangeRec::Text`: keeps the prefix of
    /// lines whose wrap scan never reached the edit, re-wraps until line
    /// starts re-converge with the old table, then splices the old tail
    /// shifted by the byte and height deltas. Returns the re-wrapped
    /// strip and how far the tail shifted, or `None` when the bound
    /// data is gone.
    fn relayout_edit(
        &mut self,
        world: &mut World,
        pos: usize,
        inserted: usize,
        deleted: usize,
    ) -> Option<Reflow> {
        let data_id = self.data?;
        world.data::<TextData>(data_id)?;
        let old_lines = std::mem::take(&mut self.lines);
        // First affected line: the first whose wrap scan reached the
        // edit. Walk back from the binary-search candidate — a line's
        // scan can reach past its own end (see `Line::scan_end`), so a
        // *previous* line's geometry may depend on the edited chars.
        let mut first = old_lines.partition_point(|l| l.start < pos);
        while first > 0 && old_lines[first - 1].scan_end >= pos {
            first -= 1;
        }
        let first = first.min(old_lines.len().saturating_sub(1));
        self.lines.reserve(old_lines.len() + 2);
        self.lines.extend_from_slice(&old_lines[..first]);
        let start_pos = old_lines[first].start;
        let start_y = old_lines[first].y;
        let delta = inserted as i64 - deleted as i64;
        let end = self.wrap_lines(
            world,
            data_id,
            start_pos,
            start_y,
            Some(Converge {
                old: &old_lines,
                delta,
                edit_end_old: pos + deleted,
            }),
        );
        let old_total = old_lines.last().map(|l| l.y + l.height).unwrap_or(0);
        match end.converged {
            Some(qi) => {
                let dy = end.next_y - old_lines[qi].y;
                let row = (dy == 0 && qi == first + 1 && self.lines.len() == qi)
                    .then(|| (old_lines[first], self.lines[first]));
                world.collector().count("text.layout_reuse_tail", 1);
                if delta == 0 && dy == 0 {
                    self.lines.extend_from_slice(&old_lines[qi..]);
                } else {
                    self.lines.extend(old_lines[qi..].iter().map(|l| Line {
                        start: (l.start as i64 + delta) as usize,
                        end: (l.end as i64 + delta) as usize,
                        scan_end: (l.scan_end as i64 + delta) as usize,
                        y: l.y + dy,
                        ..*l
                    }));
                    if dy != 0 {
                        let tail_start = (old_lines[qi].start as i64 + delta) as usize;
                        self.shift_tail_insets(world, data_id, tail_start, dy);
                    }
                }
                // Only the re-laid strip changed; a tail that shifted
                // kept its pixels. A tail shorter than it moves up
                // leaves rows of the old strip below its new end,
                // which the strip covers too.
                let old_tail = old_lines[qi].y;
                let bottom = if old_total + dy < old_tail {
                    old_tail
                } else {
                    end.next_y
                };
                Some(Reflow {
                    strip: (start_y, bottom),
                    tail: (dy != 0).then_some((old_tail, old_total, dy)),
                    row,
                })
            }
            None => Some(Reflow {
                strip: (start_y, old_total.max(self.content_height())),
                tail: None,
                row: None,
            }),
        }
    }

    /// After a tail splice moved lines vertically, shift the inset views
    /// anchored on those lines: the re-laid strip repositioned its own
    /// insets, but tail insets kept their old bounds.
    fn shift_tail_insets(&self, world: &mut World, data_id: DataId, tail_start: usize, dy: i32) {
        let anchors = match world.data::<TextData>(data_id) {
            Some(t) => t.anchors(),
            None => return,
        };
        for (p, data, _) in anchors {
            if p >= tail_start {
                if let Some(vid) = self.inset_view(data) {
                    let b = world.view_bounds(vid);
                    world.set_view_bounds(vid, Rect::new(b.x, b.y + dy, b.width, b.height));
                }
            }
        }
    }

    /// Differential oracle hook: checks that the incrementally
    /// maintained line table, and the bounds it gave each inset, are
    /// identical to a from-scratch relayout at the same width,
    /// describing the first divergence on failure. The check changes
    /// nothing it checks: the line table and every inset's bounds are
    /// put back before it returns, so a stale inset is reported here,
    /// not repaired for the next comparison to miss.
    pub fn verify_layout_against_full(&mut self, world: &mut World) -> Result<(), String> {
        let width = world.view_bounds(self.base.id).width - 2 * MARGIN;
        if !self.layout_valid || self.layout_width != width {
            // Stale by design (e.g. a resize not yet drawn); the next
            // ensure_layout starts from scratch anyway.
            return Ok(());
        }
        let inset_bounds = |tv: &TextView, world: &World| -> Vec<(ViewId, Rect)> {
            tv.insets
                .iter()
                .map(|&(_, v)| (v, world.view_bounds(v)))
                .collect()
        };
        let incremental_bounds = inset_bounds(self, world);
        let incremental = std::mem::take(&mut self.lines);
        self.layout_valid = false;
        self.ensure_layout(world);
        let full = std::mem::replace(&mut self.lines, incremental);
        let full_bounds = inset_bounds(self, world);
        for &(v, b) in &incremental_bounds {
            world.set_view_bounds(v, b);
        }
        let incremental = &self.lines;
        if *incremental != full {
            let i = incremental
                .iter()
                .zip(&full)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| incremental.len().min(full.len()));
            return Err(format!(
                "incremental layout diverged from full relayout: \
                 {} vs {} lines, first difference at line {} ({:?} vs {:?})",
                incremental.len(),
                full.len(),
                i,
                incremental.get(i),
                full.get(i),
            ));
        }
        match incremental_bounds
            .iter()
            .zip(&full_bounds)
            .find(|(a, b)| a != b)
        {
            Some(((v, incremental), (_, full))) => Err(format!(
                "inset {v:?} bounds diverged from full relayout: {incremental:?} vs {full:?}"
            )),
            None => Ok(()),
        }
    }

    fn inset_view(&self, data: DataId) -> Option<ViewId> {
        self.insets
            .iter()
            .find(|(d, _)| *d == data)
            .map(|(_, v)| *v)
    }

    fn ensure_inset(&mut self, world: &mut World, data: DataId, view_class: &str) {
        if self.inset_view(data).is_some() {
            return;
        }
        let Ok(vid) = world.new_view(view_class) else {
            return;
        };
        world.set_view_parent(vid, Some(self.base.id));
        world.with_view(vid, |v, w| v.set_data_object(w, data));
        // The wrap around an inset depends on its desired size, which
        // depends on the embedded data — so the text view observes it
        // too, and invalidates its layout when the embedded object
        // changes (e.g. a table growing a column must re-wrap the line
        // holding it).
        world.add_observer(data, atk_core::ObserverRef::View(self.base.id));
        self.insets.push((data, vid));
    }

    // --- Geometry queries ----------------------------------------------------

    fn line_index_of(&self, pos: usize) -> usize {
        // `lines` is sorted by strictly increasing `start`, so the line
        // holding `pos` is the last one starting at or before it — a
        // binary search, not a scan. Positions between lines (a caret
        // sitting on the newline character itself: line ranges are
        // [start, end) and the following line starts at end+1) belong
        // to that same line, which is what a caret there should render
        // against.
        self.lines
            .partition_point(|l| l.start <= pos)
            .saturating_sub(1)
    }

    /// The rectangle of the character at `pos`, in view coordinates
    /// (valid after layout).
    fn char_rect_internal(&self, world: &World, pos: usize) -> Option<Rect> {
        let li = self.line_index_of(pos);
        let line = self.lines.get(li)?;
        let data_id = self.data?;
        let text = world.data::<TextData>(data_id)?;
        let mut x = MARGIN + text.style_value_at(line.start).indent;
        for i in line.start..pos.min(line.end) {
            x += self.char_width_at(world, text, i);
        }
        let w = if pos < line.end {
            self.char_width_at(world, text, pos)
        } else {
            2
        };
        Some(Rect::new(x, line.y - self.scroll_y, w, line.height))
    }

    fn char_width_at(&self, world: &World, text: &TextData, i: usize) -> i32 {
        if let Some((data, _)) = text.anchor_at(i) {
            if let Some(vid) = self.inset_view(data) {
                return world.view_bounds(vid).width + 2;
            }
            return 14;
        }
        let ch = text.char_at(i).unwrap_or(' ');
        text.style_value_at(i).font().char_width(ch)
    }

    /// The buffer position nearest to a view-local point (valid after
    /// layout).
    pub fn pos_at_point(&self, world: &World, pt: Point) -> usize {
        let y = pt.y + self.scroll_y;
        let Some(data_id) = self.data else { return 0 };
        let Some(text) = world.data::<TextData>(data_id) else {
            return 0;
        };
        // Lines are sorted by `y` and vertically contiguous: binary
        // search for the line containing `y`.
        let li = self.lines.partition_point(|l| l.y <= y);
        let line = match self.lines.get(li.wrapping_sub(1)) {
            Some(l) if y < l.y + l.height => l,
            _ if y < 0 => return 0,
            _ => return text.len(),
        };
        // Clicks past the line's memoized extent can't hit a character;
        // skip the per-char re-measure.
        if pt.x >= MARGIN + line.width {
            return line.end;
        }
        let mut x = MARGIN + text.style_value_at(line.start).indent;
        for i in line.start..line.end {
            let w = self.char_width_at(world, text, i);
            if pt.x < x + w / 2 {
                return i;
            }
            x += w;
        }
        line.end
    }

    // --- Editing helpers -------------------------------------------------------

    fn with_data<R>(
        &mut self,
        world: &mut World,
        f: impl FnOnce(&mut TextData) -> (R, ChangeRec),
    ) -> Option<R> {
        let data_id = self.data?;
        let (r, rec) = {
            let text = world.data_mut::<TextData>(data_id)?;
            f(text)
        };
        self.self_changes += 1;
        world.notify(data_id, rec);
        Some(r)
    }

    /// Inserts text at the caret (replacing any selection).
    pub fn insert_at_caret(&mut self, world: &mut World, s: &str) {
        if let Some((a, b)) = self.selection() {
            self.clear_selection_for_edit(world);
            self.with_data(world, |t| ((), t.delete(a, b - a)));
            self.caret = a;
        }
        let caret = self.caret;
        let n = s.chars().count();
        self.with_data(world, |t| ((), t.insert(caret, s)));
        self.caret += n;
    }

    fn delete_range(&mut self, world: &mut World, a: usize, b: usize) {
        if b > a {
            self.clear_selection_for_edit(world);
            self.with_data(world, |t| ((), t.delete(a, b - a)));
            self.caret = a;
        }
    }

    // --- Caret, selection and focus damage -------------------------------------
    //
    // The caret, the selection highlight and the focus show only on the
    // lines the caret and the selection span, so a change to them
    // damages those lines' full-width strips, before and after — never
    // the whole view, unless the line table may not match the screen.

    /// The strip `(top, bottom)`, in content coordinates, of the lines
    /// the caret or the selection is drawn on, or `None` when the line
    /// table may not describe the screen: layout is stale, or a change
    /// notification is still queued (positions already moved, lines not
    /// yet). Content coordinates, because a scroll between taking the
    /// strip and posting it moves the drawn marks with the text.
    fn marks_strip(&self, world: &World) -> Option<(i32, i32)> {
        let width = world.view_bounds(self.base.id).width - 2 * MARGIN;
        if !self.layout_valid || self.layout_width != width || world.has_pending_notifications() {
            return None;
        }
        let (lo, hi) = self.selection().unwrap_or((self.caret, self.caret));
        let first = self.lines.get(self.line_index_of(lo))?;
        let last = self.lines.get(self.line_index_of(hi))?;
        Some((first.y, last.y + last.height))
    }

    /// Posts a full-width strip from [`TextView::marks_strip`], or the
    /// whole view when the strip is unknown.
    fn post_strip(&mut self, world: &mut World, strip: Option<(i32, i32)>) {
        let bounds = world.view_bounds(self.base.id);
        let view = Rect::new(0, 0, bounds.width, bounds.height);
        match strip {
            Some((top, bottom)) => {
                let rect =
                    Rect::new(0, top - self.scroll_y, bounds.width, bottom - top).intersect(view);
                self.stats.partial += 1;
                self.stats.damage_area += rect.area();
                world.post_damage(self.base.id, rect);
            }
            None => {
                self.stats.full += 1;
                self.stats.damage_area += view.area();
                world.post_damage_full(self.base.id);
            }
        }
    }

    /// Damages the lines the caret or selection was drawn on (`before`,
    /// taken with [`TextView::marks_strip`] ahead of the change) and the
    /// lines it is drawn on now. A focus change calls this too: the caret
    /// shows only in a focused view.
    fn damage_marks(&mut self, world: &mut World, before: Option<(i32, i32)>) {
        match (before, self.marks_strip(world)) {
            (Some(a), Some(b)) if a.0 <= b.1 && b.0 <= a.1 => {
                self.post_strip(world, Some((a.0.min(b.0), a.1.max(b.1))));
            }
            (Some(a), Some(b)) => {
                self.post_strip(world, Some(a));
                self.post_strip(world, Some(b));
            }
            _ => self.post_strip(world, None),
        }
    }

    /// Drops the selection ahead of an edit. The edit damages the lines
    /// it re-lays; the highlight may cover lines it does not, so they
    /// are damaged here, while the line table still matches the screen.
    fn clear_selection_for_edit(&mut self, world: &mut World) {
        if self.selection().is_some() {
            let strip = self.marks_strip(world);
            self.post_strip(world, strip);
        }
        self.sel_anchor = None;
    }

    fn line_of_caret(&self) -> usize {
        self.line_index_of(self.caret)
    }

    fn move_caret_line(&mut self, world: &mut World, delta: i32) {
        let before = self.marks_strip(world);
        self.ensure_layout(world);
        let li = self.line_of_caret() as i32 + delta;
        let li = li.clamp(0, self.lines.len().saturating_sub(1) as i32) as usize;
        if let Some(line) = self.lines.get(li) {
            let col = self.caret - self.lines[self.line_of_caret()].start;
            self.caret = (line.start + col).min(line.end);
        }
        self.sel_anchor = None;
        self.scroll_caret_into_view(world);
        self.damage_marks(world, before);
    }

    /// Changes the scroll offset, moving the visible pixels by the
    /// scroll delta ([`World::post_move`] damages the strip the move
    /// exposes); a scroll by the view's height or more damages it all.
    ///
    /// Scrolling shifts every visible pixel; the line-strip diff in
    /// `post_incremental_damage` works in content coordinates and cannot
    /// see it (found by the session fuzzer: type into a caret parked
    /// below the viewport after a resize). The enclosing scroller — if
    /// any — is told through the deferred command channel so its
    /// elevator can repaint; views that don't care ignore the command.
    fn set_scroll_y(&mut self, world: &mut World, y: i32) {
        if y == self.scroll_y {
            return;
        }
        // Inset bounds are view coordinates: they move with the scroll.
        // The draw pass repositions only the insets it paints, so one
        // scrolled out of sight would otherwise keep taking clicks where
        // it used to be.
        let dy = self.scroll_y - y;
        for &(_, vid) in &self.insets {
            let b = world.view_bounds(vid);
            world.set_view_bounds(vid, Rect::new(b.x, b.y + dy, b.width, b.height));
        }
        self.scroll_y = y;
        let size = world.view_bounds(self.base.id).size();
        if dy.abs() < size.height {
            world.post_move(self.base.id, Rect::at(Point::ORIGIN, size), 0, dy);
        } else {
            world.post_damage_full(self.base.id);
        }
        if let Some(parent) = world.view_parent(self.base.id) {
            world.post_command(parent, "scroll-sync");
        }
    }

    fn scroll_caret_into_view(&mut self, world: &mut World) {
        self.ensure_layout(world);
        let h = world.view_bounds(self.base.id).height;
        let li = self.line_of_caret();
        if let Some(line) = self.lines.get(li) {
            let target = if line.y < self.scroll_y {
                line.y
            } else if line.y + line.height > self.scroll_y + h {
                line.y + line.height - h
            } else {
                self.scroll_y
            };
            self.set_scroll_y(world, target);
        }
    }

    /// Applies a style to the selection (or caret word when nothing is
    /// selected).
    pub fn style_selection(&mut self, world: &mut World, build: impl Fn(Style) -> Style) {
        let Some(data_id) = self.data else { return };
        let (a, b) = match self.selection() {
            Some(r) => r,
            None => {
                let t = world.data::<TextData>(data_id).unwrap();
                (t.word_start(self.caret), t.word_end(self.caret))
            }
        };
        if a >= b {
            return;
        }
        let base = {
            let t = world.data::<TextData>(data_id).unwrap();
            t.style_value_at(a).clone()
        };
        let styled = build(base);
        self.with_data(world, |t| ((), t.apply_style(a, b, styled)));
    }

    /// Damages what a change to the bound text changed on screen. An
    /// edit that shifts the lines below it moves their pixels instead
    /// ([`World::post_move`]), unless it is another view's edit while
    /// this view holds a selection anchor: the anchor does not follow
    /// remote edits, so the highlight it draws may not follow the text.
    fn post_incremental_damage(&mut self, world: &mut World, change: &ChangeRec, own: bool) {
        let bounds = world.view_bounds(self.base.id);
        match change {
            ChangeRec::Text {
                pos,
                inserted,
                deleted,
            } if self.layout_valid && !self.lines.is_empty() => {
                let old_height = self.content_height();
                let width = bounds.width - 2 * MARGIN;
                // Edit-local path: re-wrap only the affected lines and
                // damage the strip relayout itself reports. Ablation
                // path (`incremental` off, or the cached layout is for a
                // stale width): full relayout, then diff the old and new
                // line tables to find the changed strip.
                let (strip, tail, row) = if self.incremental && self.layout_width == width {
                    match self.relayout_edit(world, *pos, *inserted, *deleted) {
                        Some(r) => (Some(r.strip), r.tail, r.row),
                        None => (None, None, None),
                    }
                } else {
                    let old_lines = std::mem::take(&mut self.lines);
                    self.layout_valid = false;
                    self.ensure_layout(world);
                    let strip = diff_strip(&old_lines, &self.lines, *pos, *inserted, *deleted);
                    (strip, None, None)
                };
                let movable = own || self.sel_anchor.is_none();
                if let Some((before, after)) = row.filter(|_| movable) {
                    if self.shift_row_tail(world, before, after, *pos, *inserted) {
                        return;
                    }
                }
                let strip = match tail {
                    Some((top, bottom, dy)) if movable => {
                        let rows = Rect::new(0, top - self.scroll_y, bounds.width, bottom - top);
                        world.post_move(self.base.id, rows, 0, dy);
                        strip
                    }
                    // The tail repaints with the strip.
                    Some(_) => strip.map(|(top, _)| (top, bounds.height + self.scroll_y)),
                    None => strip,
                };
                if self.content_height() != old_height {
                    // The scroll extent changed, so a parent scroller's
                    // elevator geometry is stale even though scroll_y is
                    // unchanged (e.g. backspace joining two lines).
                    if let Some(parent) = world.view_parent(self.base.id) {
                        world.post_command(parent, "scroll-sync");
                    }
                }
                match strip {
                    Some((top, bottom)) => {
                        let rect = Rect::new(0, top - self.scroll_y, bounds.width, bottom - top)
                            .intersect(Rect::new(0, 0, bounds.width, bounds.height));
                        self.stats.partial += 1;
                        self.stats.damage_area += rect.area();
                        world.post_damage(self.base.id, rect);
                    }
                    None => {
                        // Off-screen or no visible change.
                        self.stats.partial += 1;
                    }
                }
            }
            _ => {
                self.stats.full += 1;
                self.stats.damage_area += Rect::new(0, 0, bounds.width, bounds.height).area();
                world.post_damage_full(self.base.id);
                self.layout_valid = false;
            }
        }
    }

    /// The sideways fast path for an edit that re-laid only its own
    /// line, `before` → `after`, leaving every other line in place: the
    /// rest of the line after the edit moves by the width the edit added
    /// or removed ([`World::post_move`] damages the strip a delete
    /// exposes at the right edge). What the move cannot supply is
    /// damaged: the edited glyph cells and the column just past them,
    /// where the caret's pixels land when the caret sat at the edit (a
    /// remote insert there leaves the caret in place), deleted cells
    /// the rest of the line does not land on, and the caret's new
    /// column.
    ///
    /// Moving pixels sideways relies on every glyph inking only inside
    /// its advance cell, which the bitmap font guarantees in every
    /// style. Returns false, having posted nothing, unless the line
    /// keeps its start, indent, height and baseline, the edit lies
    /// within it, the rest of the line started inside the view, and no
    /// inset is anchored after the edit (its view's bounds would have
    /// to move too).
    fn shift_row_tail(
        &mut self,
        world: &mut World,
        before: Line,
        after: Line,
        pos: usize,
        inserted: usize,
    ) -> bool {
        let tail = pos + inserted;
        let Some(text) = self.data.and_then(|d| world.data::<TextData>(d)) else {
            return false;
        };
        if (before.start, before.indent, before.height, before.baseline)
            != (after.start, after.indent, after.height, after.baseline)
            || pos < after.start
            || tail > after.end
            || text.has_anchor_in(tail..after.end)
        {
            return false;
        }
        let x_at = |p: usize| self.char_rect_internal(world, p).map_or(0, |r| r.x);
        let edit_x = x_at(pos);
        let tail_x = edit_x
            + (pos..tail)
                .map(|i| self.char_width_at(world, text, i))
                .sum::<i32>();
        let caret = match self.caret {
            c if c == tail => Some(tail_x),
            c if self.line_index_of(c) == self.line_index_of(pos) => Some(x_at(c)),
            _ => None,
        };
        let dx = after.width - before.width;
        let from = tail_x - dx;
        let width = world.view_bounds(self.base.id).width;
        if from >= width {
            return false;
        }
        let y = after.y - self.scroll_y;
        world.post_move(
            self.base.id,
            Rect::new(from, y, width - from, after.height),
            dx,
            0,
        );
        let cells = Rect::new(edit_x, y, tail_x - edit_x + 1, after.height);
        // A delete wider than the rest of the line leaves deleted cells
        // between where the rest lands and where it came from.
        let left = Rect::new(width + dx, y, from - width - dx, after.height);
        for r in [cells, left] {
            world.post_damage(self.base.id, r);
            self.stats.damage_area += r.area();
        }
        if let Some(x) = caret {
            world.post_damage(self.base.id, Rect::new(x, y, 1, after.height));
        }
        self.stats.partial += 1;
        true
    }
}

/// Comparison key for a laid-out line: `(start, end, y, height)` with old
/// positions shifted into post-edit coordinates. `None` marks a line that
/// touches the edited range and is therefore always damaged.
fn line_key(
    line: &Line,
    edit_from: usize,
    edit_to: usize,
    shift: i64,
) -> Option<(i64, i64, i32, i32)> {
    if line.end + 1 >= edit_from && line.start <= edit_to {
        return None;
    }
    let adjust = |p: usize| -> i64 {
        if p >= edit_to {
            p as i64 + shift
        } else {
            p as i64
        }
    };
    Some((adjust(line.start), adjust(line.end), line.y, line.height))
}

/// Early-out for the common case: the edit stayed inside one line and
/// every other line is byte-identical modulo the uniform byte shift, so
/// the damage is exactly that line's strip — no key tables, no
/// allocation. Returns `None` when the precondition doesn't hold and
/// the general diff must run.
fn diff_single_line(
    old: &[Line],
    new: &[Line],
    pos: usize,
    inserted: usize,
    deleted: usize,
) -> Option<(i32, i32)> {
    if old.len() != new.len() || old.is_empty() {
        return None;
    }
    let li = old.partition_point(|l| l.start <= pos).saturating_sub(1);
    let (o, n) = (&old[li], &new[li]);
    if old[..li] != new[..li] || o.start != n.start || o.y != n.y || o.height != n.height {
        return None;
    }
    // The edit must end before the next line, *strictly*: a mark sitting
    // exactly on the boundary moves by gravity, not uniformly, so it
    // cannot be assumed unchanged.
    if let Some(next) = old.get(li + 1) {
        if next.start <= pos + deleted {
            return None;
        }
    }
    let delta = inserted as i64 - deleted as i64;
    for (ol, nl) in old[li + 1..].iter().zip(&new[li + 1..]) {
        if nl.start as i64 != ol.start as i64 + delta
            || nl.end as i64 != ol.end as i64 + delta
            || nl.y != ol.y
            || nl.height != ol.height
            || nl.baseline != ol.baseline
            || nl.width != ol.width
        {
            return None;
        }
    }
    Some((o.y, o.y + o.height))
}

/// The vertical strip (content coordinates) that visually changed between
/// two line layouts, or `None` when nothing did.
fn diff_strip(
    old: &[Line],
    new: &[Line],
    pos: usize,
    inserted: usize,
    deleted: usize,
) -> Option<(i32, i32)> {
    if let Some(strip) = diff_single_line(old, new, pos, inserted, deleted) {
        return Some(strip);
    }
    // Old lines touching [pos, pos+deleted] changed; survivors after it
    // shift by the net delta. New lines touching [pos, pos+inserted]
    // changed; the rest are already in final coordinates.
    let delta = inserted as i64 - deleted as i64;
    let old_keys: Vec<_> = old
        .iter()
        .map(|l| line_key(l, pos, pos + deleted, delta))
        .collect();
    let new_keys: Vec<_> = new
        .iter()
        .map(|l| line_key(l, pos, pos + inserted, 0))
        .collect();

    let equal = |a: &Option<(i64, i64, i32, i32)>, b: &Option<(i64, i64, i32, i32)>| match (a, b) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    };
    let mut front = 0;
    while front < old_keys.len()
        && front < new_keys.len()
        && equal(&old_keys[front], &new_keys[front])
    {
        front += 1;
    }
    let mut back = 0;
    while back < old_keys.len().saturating_sub(front)
        && back < new_keys.len().saturating_sub(front)
        && equal(
            &old_keys[old_keys.len() - 1 - back],
            &new_keys[new_keys.len() - 1 - back],
        )
    {
        back += 1;
    }
    let mut top = i32::MAX;
    let mut bottom = i32::MIN;
    for l in old[front..old.len() - back]
        .iter()
        .chain(new[front..new.len() - back].iter())
    {
        top = top.min(l.y);
        bottom = bottom.max(l.y + l.height);
    }
    if top > bottom {
        None
    } else {
        Some((top, bottom))
    }
}

impl Default for TextView {
    fn default() -> Self {
        TextView::new()
    }
}

impl View for TextView {
    fn class_name(&self) -> &'static str {
        "textview"
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
            world.remove_observer(old, atk_core::ObserverRef::View(self.base.id));
        }
        self.data = Some(data);
        world.add_observer(data, atk_core::ObserverRef::View(self.base.id));
        self.layout_valid = false;
        world.post_damage_full(self.base.id);
        true
    }

    fn desired_size(&mut self, world: &mut World, budget: i32) -> Size {
        // Lay out at the budget width and report the resulting height.
        let current = world.view_bounds(self.base.id);
        if current.width != budget {
            // Measure without disturbing stored bounds: temporary layout.
            let saved_width = self.layout_width;
            let saved_valid = self.layout_valid;
            let saved_lines = std::mem::take(&mut self.lines);
            // Perform a layout pass at the requested width by faking it.
            self.layout_width = budget - 2 * MARGIN;
            self.lines = Vec::new();
            // Reuse ensure_layout's logic would need bounds; do a simple
            // estimate instead: count wrapped lines at the budget.
            let h = self.estimate_height(world, budget);
            self.lines = saved_lines;
            self.layout_width = saved_width;
            self.layout_valid = saved_valid;
            return Size::new(budget.min(360), h);
        }
        self.ensure_layout(world);
        Size::new(budget.min(360), self.content_height().max(12))
    }

    fn layout(&mut self, world: &mut World) {
        self.layout_valid = false;
        self.ensure_layout(world);
    }

    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, update: Update) {
        self.ensure_layout(world);
        let bounds = Rect::at(Point::ORIGIN, world.view_bounds(self.base.id).size());
        let draw_rect = update.rect_for(bounds);
        let Some(data_id) = self.data else {
            return;
        };

        // Collect per-line draw work first (shared borrow), then draw.
        struct Piece {
            x: i32,
            baseline_y: i32,
            text: String,
            font: atk_graphics::FontDesc,
        }
        let mut pieces: Vec<Piece> = Vec::new();
        let mut inset_rects: Vec<(ViewId, Rect)> = Vec::new();
        let mut caret_rect: Option<Rect> = None;
        let mut selection_rects: Vec<Rect> = Vec::new();
        {
            let Some(text) = world.data::<TextData>(data_id) else {
                return;
            };
            let sel = self.selection();
            for line in &self.lines {
                let ly = line.y - self.scroll_y;
                if ly + line.height < draw_rect.y || ly > draw_rect.bottom() {
                    continue;
                }
                // The damage can be several rects (a Return's split line
                // beside the elevator's edge): a line none of them
                // reaches, with the row of slack the test above allows,
                // is not drawn.
                if !g.clip_touches(Rect::new(0, ly - 1, bounds.width, line.height + 2)) {
                    continue;
                }
                let mut x = MARGIN + text.style_value_at(line.start).indent;
                let mut i = line.start;
                while i < line.end {
                    if let Some((data, _)) = text.anchor_at(i) {
                        if let Some(vid) = self.inset_view(data) {
                            let r = Rect::new(
                                x + 1,
                                ly + 1,
                                world.view_bounds(vid).width,
                                world.view_bounds(vid).height,
                            );
                            inset_rects.push((vid, r));
                            x += r.width + 2;
                        } else {
                            x += 14;
                        }
                        i += 1;
                        continue;
                    }
                    // A run of same-style plain characters.
                    let style_id = text.style_at(i);
                    let mut j = i;
                    let mut s = String::new();
                    while j < line.end
                        && text.style_at(j) == style_id
                        && text.anchor_at(j).is_none()
                    {
                        s.push(text.char_at(j).unwrap_or(' '));
                        j += 1;
                    }
                    let font = text.styles.get(style_id).font();
                    let width = font.string_width(&s);
                    pieces.push(Piece {
                        x,
                        baseline_y: ly + line.baseline,
                        text: s,
                        font,
                    });
                    x += width;
                    i = j;
                }
                // Selection highlight covering this line's slice.
                if let Some((a, b)) = sel {
                    if a < line.end.max(line.start + 1) && b > line.start {
                        let sa = a.max(line.start);
                        let sb = b.min(line.end);
                        let xa = self
                            .char_rect_internal(world, sa)
                            .map(|r| r.x)
                            .unwrap_or(MARGIN);
                        let xb = self
                            .char_rect_internal(world, sb.saturating_sub(0))
                            .map(|r| r.x)
                            .unwrap_or(xa);
                        let xb = if sb >= line.end { xb.max(xa + 4) } else { xb };
                        selection_rects.push(Rect::new(xa, ly, (xb - xa).max(2), line.height));
                    }
                }
            }
            // Caret.
            if self.focused && sel.is_none() {
                if let Some(r) = self.char_rect_internal(world, self.caret) {
                    caret_rect = Some(Rect::new(r.x, r.y, 1, r.height));
                }
            }
        }

        g.set_foreground(Color::BLACK);
        for p in &pieces {
            g.set_font(p.font.clone());
            g.draw_string_baseline(Point::new(p.x, p.baseline_y), &p.text);
        }
        for (vid, rect) in inset_rects {
            world.set_view_bounds(vid, rect);
            g.set_foreground(Color::GRAY);
            g.draw_rect(rect.inset(-1));
            world.draw_child(vid, g, Update::Full);
        }
        for r in selection_rects {
            g.invert_rect(r);
        }
        if let Some(r) = caret_rect {
            g.set_foreground(Color::BLACK);
            g.fill_rect(r);
        }
    }

    fn mouse(&mut self, world: &mut World, action: MouseAction, pt: Point) -> bool {
        // Taken before `ensure_layout`: a relayout here means the marks
        // on screen were drawn against another line table.
        let before = self.marks_strip(world);
        self.ensure_layout(world);
        // Editable in place: a press inside an inset goes to the inset.
        // Reverse anchor order: when insets overlap, the topmost (last
        // painted) one gets the event first.
        for &(_, vid) in self.insets.iter().rev() {
            let b = world.view_bounds(vid);
            if b.contains(pt) && world.mouse_to_child(vid, action, pt) {
                return true;
            }
        }
        match action {
            MouseAction::Down(Button::Left) => {
                let pos = self.pos_at_point(world, pt);
                self.caret = pos;
                self.sel_anchor = Some(pos);
                self.damage_marks(world, before);
                world.request_focus(self.base.id);
                true
            }
            MouseAction::Drag(Button::Left) => {
                let pos = self.pos_at_point(world, pt);
                if pos != self.caret {
                    self.caret = pos;
                    self.damage_marks(world, before);
                }
                true
            }
            MouseAction::Up(Button::Left) => {
                if self.sel_anchor == Some(self.caret) {
                    self.sel_anchor = None;
                }
                true
            }
            _ => false,
        }
    }

    fn key(&mut self, world: &mut World, key: Key) -> bool {
        let map = std::mem::take(&mut self.keymap);
        let outcome = self.keystate.feed(&[&map], key);
        self.keymap = map;
        match outcome {
            KeyOutcome::Command(cmd) => {
                self.perform(world, &cmd);
                true
            }
            KeyOutcome::Pending => true,
            KeyOutcome::Unbound(keys) => {
                let mut handled = false;
                for k in keys {
                    match k {
                        Key::Char(c) => {
                            self.insert_at_caret(world, &c.to_string());
                            handled = true;
                        }
                        Key::Return => {
                            self.insert_at_caret(world, "\n");
                            handled = true;
                        }
                        Key::Tab => {
                            self.insert_at_caret(world, "\t");
                            handled = true;
                        }
                        _ => {}
                    }
                }
                // The edit's change notification is still queued, so the
                // line table does not hold the caret's new line yet.
                if handled && self.self_changes > 0 {
                    self.scroll_pending = true;
                } else if handled {
                    self.scroll_caret_into_view(world);
                }
                handled
            }
        }
    }

    fn perform(&mut self, world: &mut World, command: &str) -> bool {
        let len = self.data_len(world);
        match command {
            "forward-char" => {
                let before = self.marks_strip(world);
                self.caret = (self.caret + 1).min(len);
                self.sel_anchor = None;
                self.damage_marks(world, before);
            }
            "backward-char" => {
                let before = self.marks_strip(world);
                self.caret = self.caret.saturating_sub(1);
                self.sel_anchor = None;
                self.damage_marks(world, before);
            }
            "next-line" => self.move_caret_line(world, 1),
            "previous-line" => self.move_caret_line(world, -1),
            "beginning-of-line" => {
                let before = self.marks_strip(world);
                if let Some(d) = self.data {
                    let t = world.data::<TextData>(d).unwrap();
                    self.caret = t.line_start(self.caret);
                }
                self.damage_marks(world, before);
            }
            "end-of-line" => {
                let before = self.marks_strip(world);
                if let Some(d) = self.data {
                    let t = world.data::<TextData>(d).unwrap();
                    self.caret = t.line_end(self.caret);
                }
                self.damage_marks(world, before);
            }
            "beginning-of-text" => {
                let before = self.marks_strip(world);
                self.caret = 0;
                self.set_scroll_y(world, 0);
                self.damage_marks(world, before);
            }
            "end-of-text" => {
                let before = self.marks_strip(world);
                self.caret = len;
                self.scroll_caret_into_view(world);
                self.damage_marks(world, before);
            }
            "delete-char" => {
                if let Some((a, b)) = self.selection() {
                    self.delete_range(world, a, b);
                } else {
                    let c = self.caret;
                    self.delete_range(world, c, (c + 1).min(len));
                }
            }
            "delete-backward-char" => {
                if let Some((a, b)) = self.selection() {
                    self.delete_range(world, a, b);
                } else if self.caret > 0 {
                    let c = self.caret;
                    self.delete_range(world, c - 1, c);
                }
            }
            "kill-line" => {
                if let Some(d) = self.data {
                    let (a, b) = {
                        let t = world.data::<TextData>(d).unwrap();
                        let e = t.line_end(self.caret);
                        // Killing at line end removes the newline itself.
                        if e == self.caret {
                            (self.caret, (e + 1).min(t.len()))
                        } else {
                            (self.caret, e)
                        }
                    };
                    let t = world.data::<TextData>(d).unwrap();
                    self.kill_buffer = t.slice(a, b);
                    self.delete_range(world, a, b);
                }
            }
            "yank" => {
                let s = self.kill_buffer.clone();
                self.insert_at_caret(world, &s);
            }
            "next-page" | "previous-page" => {
                self.ensure_layout(world);
                let h = world.view_bounds(self.base.id).height;
                let delta = if command == "next-page" { h } else { -h };
                let max = (self.content_height() - h).max(0);
                let target = (self.scroll_y + delta).clamp(0, max);
                self.set_scroll_y(world, target);
            }
            "want-new-size" => {
                // An inset's desired size changed (a raster zoomed), so
                // the wrap around it is stale. Re-wrap now rather than at
                // the next draw, so a parent scroller's elevator is drawn
                // from the new extent.
                let old_height = self.content_height();
                self.layout_valid = false;
                self.ensure_layout(world);
                if self.content_height() != old_height {
                    if let Some(parent) = world.view_parent(self.base.id) {
                        world.post_command(parent, "scroll-sync");
                    }
                }
                self.post_strip(world, None);
            }
            "set-bold" => self.style_selection(world, |s| s.bolded()),
            "set-italic" => self.style_selection(world, |s| s.italicized()),
            "set-plain" => self.style_selection(world, |s| Style {
                family: s.family,
                size: s.size,
                indent: s.indent,
                ..Style::body()
            }),
            "set-bigger" => self.style_selection(world, |s| {
                let size = s.size + 8;
                s.sized(size)
            }),
            "set-fixed" => self.style_selection(world, |s| Style {
                family: "andytype".to_string(),
                ..s
            }),
            _ if command.starts_with("search:") => {
                // Forward search from just past the caret, wrapping once.
                let needle = &command["search:".len()..];
                if needle.is_empty() {
                    return true;
                }
                if let Some(d) = self.data {
                    let t = world.data::<TextData>(d).expect("bound data");
                    let hay = t.text();
                    let from = (self.caret + 1).min(hay.chars().count());
                    let chars: Vec<char> = hay.chars().collect();
                    let pat: Vec<char> = needle.chars().collect();
                    let find_from = |start: usize| -> Option<usize> {
                        (start..chars.len().saturating_sub(pat.len() - 1).max(start))
                            .find(|&i| chars[i..].starts_with(&pat[..]))
                    };
                    if let Some(hit) = find_from(from).or_else(|| find_from(0)) {
                        let before = self.marks_strip(world);
                        self.caret = hit;
                        self.sel_anchor = Some(hit + pat.len());
                        self.scroll_caret_into_view(world);
                        self.damage_marks(world, before);
                    }
                }
            }
            _ => return false,
        }
        true
    }

    fn menus(&self, _world: &World) -> Vec<MenuItem> {
        vec![
            MenuItem::new("Edit", "Kill Line", "kill-line"),
            MenuItem::new("Edit", "Yank", "yank"),
            MenuItem::new("Style", "Bold", "set-bold"),
            MenuItem::new("Style", "Italic", "set-italic"),
            MenuItem::new("Style", "Plain", "set-plain"),
            MenuItem::new("Style", "Bigger", "set-bigger"),
            MenuItem::new("Style", "Typewriter", "set-fixed"),
        ]
    }

    fn cursor_at(&self, world: &World, pt: Point) -> Option<CursorShape> {
        for &(_, vid) in self.insets.iter().rev() {
            let b = world.view_bounds(vid);
            if b.contains(pt) {
                return world
                    .view_dyn(vid)
                    .and_then(|v| v.cursor_at(world, pt - b.origin()))
                    .or(Some(CursorShape::Arrow));
            }
        }
        Some(CursorShape::IBeam)
    }

    fn observed_changed(&mut self, world: &mut World, source: DataId, change: &ChangeRec) {
        // A change in an *embedded* data object (the view observes those
        // too — see `ensure_inset`): its inset's desired size may have
        // changed, so the wrap around it is stale. The record's
        // positions are in the child's coordinate space, not ours, so
        // the edit-local path cannot apply; re-wrap from scratch.
        if Some(source) != self.data {
            let bounds = world.view_bounds(self.base.id);
            self.stats.full += 1;
            self.stats.damage_area += Rect::new(0, 0, bounds.width, bounds.height).area();
            world.post_damage_full(self.base.id);
            self.layout_valid = false;
            return;
        }
        // Keep the caret sane across *remote* edits (another view of the
        // same data object may have mutated it). Our own edits already
        // moved the caret, so skip the adjustment for those.
        let own = self.self_changes > 0;
        if own {
            self.self_changes -= 1;
        } else if let ChangeRec::Text {
            pos,
            inserted,
            deleted,
        } = change
        {
            if self.caret > *pos {
                self.caret = self.caret.saturating_sub((*deleted).min(self.caret - pos)) + inserted;
            }
        }
        self.post_incremental_damage(world, change, own);
        if self.self_changes == 0 && std::mem::take(&mut self.scroll_pending) {
            self.scroll_caret_into_view(world);
        }
    }

    fn on_focus(&mut self, world: &mut World, gained: bool) {
        let before = self.marks_strip(world);
        self.focused = gained;
        self.damage_marks(world, before);
    }

    fn scroll_info(&self, world: &World) -> Option<ScrollInfo> {
        Some(ScrollInfo {
            total: self.content_height().max(1),
            visible: world.view_bounds(self.base.id).height,
            offset: self.scroll_y,
        })
    }

    fn scroll_to(&mut self, world: &mut World, offset: i32) {
        let h = world.view_bounds(self.base.id).height;
        let max = (self.content_height() - h).max(0);
        self.set_scroll_y(world, offset.clamp(0, max));
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

impl TextView {
    /// Estimates wrapped height at a width without touching stored
    /// layout (used by `desired_size` when embedded).
    fn estimate_height(&self, world: &World, budget: i32) -> i32 {
        let Some(data_id) = self.data else { return 12 };
        let Some(text) = world.data::<TextData>(data_id) else {
            return 12;
        };
        let budget = (budget - 2 * MARGIN).max(20);
        let mut h = 0;
        let mut x = 0;
        let mut line_h = 0;
        for i in 0..text.len() {
            let ch = text.char_at(i).unwrap_or(' ');
            let font = text.style_value_at(i).font();
            let m = font.metrics();
            if ch == '\n' {
                h += line_h.max(m.line_height);
                x = 0;
                line_h = 0;
                continue;
            }
            let cw = font.char_width(ch);
            if x + cw > budget {
                h += line_h.max(m.line_height);
                x = 0;
                line_h = 0;
            }
            x += cw;
            line_h = line_h.max(m.line_height);
        }
        h + line_h.max(12)
    }
}
