//! Banded regions for clipping and damage accumulation.
//!
//! The X server represents arbitrary pixel sets as *banded* y-sorted lists
//! of disjoint rectangles; the interaction manager needs the same
//! structure to accumulate damage from many views and to clip updates to
//! exposed areas. This is a from-scratch implementation of that data
//! structure with the usual boolean operations.
//!
//! # Invariants
//!
//! A region's rectangles are:
//! * non-empty and pairwise disjoint;
//! * grouped into *bands*: rects in a band share `y` and `height`, bands
//!   are sorted by `y` and do not overlap vertically;
//! * within a band, sorted by `x` with no two rects adjacent (they would
//!   have been merged);
//! * vertically adjacent bands with identical x-structure are coalesced.
//!
//! These invariants make equality structural: two regions covering the
//! same pixel set compare equal. Property tests in this module check that.
//!
//! # Algorithm
//!
//! Boolean combination is a single merged y-sweep over both operands'
//! bands (the X server's `miRegionOp` shape): the two banded lists are
//! walked in lock-step, y-ranges where only one operand has a band are
//! copied (or skipped, per the operator), and overlapping y-ranges merge
//! the two bands' x-intervals with one two-pointer pass. Total cost is
//! linear in the number of input plus output rectangles — no elementary
//! slab rebuild, no per-slab membership probes. Trivial cases (an empty
//! operand, disjoint bounding boxes, repeated damage rects) short-circuit
//! and are counted under the `region.fast_path` metric on the global
//! [`atk_trace`] collector.

use crate::geom::{Point, Rect};

/// A set of pixels, stored as banded disjoint rectangles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Region {
    rects: Vec<Rect>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Union,
    Intersect,
    Subtract,
}

impl Region {
    /// The empty region.
    pub fn new() -> Region {
        Region::default()
    }

    /// A region covering exactly `r` (empty if `r` is empty).
    pub fn from_rect(r: Rect) -> Region {
        if r.is_empty() {
            Region::new()
        } else {
            Region { rects: vec![r] }
        }
    }

    /// True if the region covers no pixels.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The region's rectangles (banded, disjoint, y/x sorted).
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Total number of pixels covered.
    pub fn area(&self) -> i64 {
        self.rects.iter().map(|r| r.area()).sum()
    }

    /// The tightest rectangle enclosing the region.
    pub fn bounding_box(&self) -> Rect {
        self.rects.iter().fold(Rect::EMPTY, |acc, r| acc.union(*r))
    }

    /// True if `p` is covered: a binary search to the band holding row
    /// `p.y`, then a scan of that band alone.
    pub fn contains(&self, p: Point) -> bool {
        self.rects_in_rows(p.y, p.y + 1)
            .iter()
            .any(|r| r.contains(p))
    }

    /// The rects of every band that meets rows `[y0, y1)`, as one
    /// contiguous run of [`Region::rects`] — what a span clip walks.
    ///
    /// Bands are y-sorted and never overlap, so rect bottoms and tops
    /// both ascend along the list: one binary search finds the first
    /// band reaching `y0`, a second the first band starting at `y1` or
    /// below.
    pub fn rects_in_rows(&self, y0: i32, y1: i32) -> &[Rect] {
        let from = &self.rects[self.rects.partition_point(|r| r.bottom() <= y0)..];
        &from[..from.partition_point(|r| r.y < y1)]
    }

    /// True if any pixel of `r` is covered. Only the bands meeting
    /// `r`'s rows are read.
    pub fn intersects_rect(&self, r: Rect) -> bool {
        !r.is_empty()
            && self
                .rects_in_rows(r.y, r.bottom())
                .iter()
                .any(|x| x.intersects(r))
    }

    /// Adds `r` to the region (in place).
    ///
    /// Damage streams are full of repeats and monotone scans, so three
    /// O(1) shapes skip the general sweep: an empty region, a rect the
    /// last rect already covers, and a rect strictly below every band.
    pub fn add_rect(&mut self, r: Rect) {
        if r.is_empty() {
            return;
        }
        if self.rects.is_empty() {
            fast_path();
            self.rects.push(r);
            return;
        }
        let last = *self.rects.last().unwrap();
        if last.contains_rect(r) {
            fast_path();
            return;
        }
        if r.y >= last.bottom() {
            // Below every band (the last band has the maximal bottom).
            fast_path();
            let n = self.rects.len();
            let last_band_is_single = n < 2 || self.rects[n - 2].y != last.y;
            if r.y == last.bottom() && last_band_is_single && r.x == last.x && r.width == last.width
            {
                // Identical x-structure in an adjacent band: coalesce.
                self.rects[n - 1].height += r.height;
            } else {
                self.rects.push(r);
            }
            return;
        }
        *self = self.union(&Region::from_rect(r));
    }

    /// Builds a region covering the union of arbitrary (possibly
    /// overlapping, unsorted) rectangles.
    ///
    /// Pairwise divide-and-conquer union: O(n log n) band merges rather
    /// than the O(n²) of a repeated [`Region::add_rect`] loop. This is
    /// the bulk-coalesce entry point for batched damage accumulation.
    pub fn from_rects<I: IntoIterator<Item = Rect>>(rects: I) -> Region {
        let mut parts: Vec<Region> = rects
            .into_iter()
            .filter(|r| !r.is_empty())
            .map(Region::from_rect)
            .collect();
        if parts.len() > 1 {
            // Presorting by band keeps intermediate unions mostly
            // ordered, so the sweeps coalesce early.
            parts.sort_unstable_by_key(|p| {
                let r = p.rects[0];
                (r.y, r.x)
            });
        }
        while parts.len() > 1 {
            let mut next = Vec::with_capacity(parts.len().div_ceil(2));
            let mut iter = parts.chunks_exact(2);
            for pair in iter.by_ref() {
                next.push(pair[0].union(&pair[1]));
            }
            if let [odd] = iter.remainder() {
                next.push(odd.clone());
            }
            parts = next;
        }
        parts.pop().unwrap_or_default()
    }

    /// Removes `r` from the region (in place).
    pub fn subtract_rect(&mut self, r: Rect) {
        *self = self.subtract(&Region::from_rect(r));
    }

    /// Set union.
    pub fn union(&self, other: &Region) -> Region {
        self.combine(other, Op::Union)
    }

    /// Set intersection.
    pub fn intersect(&self, other: &Region) -> Region {
        self.combine(other, Op::Intersect)
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &Region) -> Region {
        self.combine(other, Op::Subtract)
    }

    /// Intersection with a single rectangle (common clipping case).
    pub fn intersect_rect(&self, r: Rect) -> Region {
        self.intersect(&Region::from_rect(r))
    }

    /// The region moved by `(dx, dy)`.
    pub fn translate(&self, dx: i32, dy: i32) -> Region {
        Region {
            rects: self.rects.iter().map(|r| r.translate(dx, dy)).collect(),
        }
    }

    /// Band-merge boolean combination: one merged y-sweep over both
    /// operands' bands, two-pointer interval merges per band. Linear in
    /// input + output rectangles.
    fn combine(&self, other: &Region, op: Op) -> Region {
        // Trivial-operand fast paths.
        if self.rects.is_empty() || other.rects.is_empty() {
            fast_path();
            return match op {
                Op::Union => {
                    if self.rects.is_empty() {
                        other.clone()
                    } else {
                        self.clone()
                    }
                }
                Op::Intersect => Region::new(),
                Op::Subtract => self.clone(),
            };
        }
        // Disjoint bounding boxes decide intersect/subtract outright.
        if op != Op::Union && !self.bounding_box().intersects(other.bounding_box()) {
            fast_path();
            return match op {
                Op::Intersect => Region::new(),
                _ => self.clone(),
            };
        }

        let keep_a = op != Op::Intersect; // y-ranges covered only by self
        let keep_b = op == Op::Union; //     …only by other
        let mut out: Vec<Rect> = Vec::with_capacity(self.rects.len() + other.rects.len());
        let mut scratch: Vec<Rect> = Vec::new();
        let mut ca = BandCursor::new(&self.rects);
        let mut cb = BandCursor::new(&other.rects);

        while !ca.done() && !cb.done() {
            let (at, ab) = (ca.top, ca.bot());
            let (bt, bb) = (cb.top, cb.bot());
            if ab <= bt {
                // a's band lies entirely above b's.
                if keep_a {
                    emit_band(&mut out, &mut scratch, at, ab, ca.band());
                }
                ca.advance_to(ab);
            } else if bb <= at {
                if keep_b {
                    emit_band(&mut out, &mut scratch, bt, bb, cb.band());
                }
                cb.advance_to(bb);
            } else if at < bt {
                // a sticks out above the overlap: emit the a-only slab.
                if keep_a {
                    emit_band(&mut out, &mut scratch, at, bt, ca.band());
                }
                ca.advance_to(bt);
            } else if bt < at {
                if keep_b {
                    emit_band(&mut out, &mut scratch, bt, at, cb.band());
                }
                cb.advance_to(at);
            } else {
                // Tops aligned: merge the overlapping slab.
                let bot = ab.min(bb);
                merge_bands(&mut out, &mut scratch, at, bot, ca.band(), cb.band(), op);
                ca.advance_to(bot);
                cb.advance_to(bot);
            }
        }
        while keep_a && !ca.done() {
            let bot = ca.bot();
            emit_band(&mut out, &mut scratch, ca.top, bot, ca.band());
            ca.advance_to(bot);
        }
        while keep_b && !cb.done() {
            let bot = cb.bot();
            emit_band(&mut out, &mut scratch, cb.top, bot, cb.band());
            cb.advance_to(bot);
        }
        Region { rects: out }
    }
}

/// Counts a short-circuit in the region algebra on the process-wide
/// collector (disabled collectors make this one relaxed atomic load).
fn fast_path() {
    atk_trace::global().count("region.fast_path", 1);
}

/// A cursor over a banded rect list: the current band is the run
/// `rects[start..end]` (shared y and height), with `top` advanced past
/// `rects[start].y` when the other operand's band edges split this band.
struct BandCursor<'r> {
    rects: &'r [Rect],
    start: usize,
    end: usize,
    top: i32,
}

impl<'r> BandCursor<'r> {
    fn new(rects: &'r [Rect]) -> BandCursor<'r> {
        let mut c = BandCursor {
            rects,
            start: 0,
            end: 0,
            top: 0,
        };
        c.load(0);
        c
    }

    /// Positions the cursor on the band starting at index `i`.
    fn load(&mut self, i: usize) {
        self.start = i;
        if i >= self.rects.len() {
            self.end = i;
            return;
        }
        let (y, h) = (self.rects[i].y, self.rects[i].height);
        let mut j = i + 1;
        while j < self.rects.len() && self.rects[j].y == y && self.rects[j].height == h {
            j += 1;
        }
        self.end = j;
        self.top = y;
    }

    fn done(&self) -> bool {
        self.start >= self.rects.len()
    }

    fn bot(&self) -> i32 {
        self.rects[self.start].bottom()
    }

    fn band(&self) -> &'r [Rect] {
        &self.rects[self.start..self.end]
    }

    /// Consumes the band up to `y`; reaching the band's bottom moves on
    /// to the next band.
    fn advance_to(&mut self, y: i32) {
        if y >= self.bot() {
            let next = self.end;
            self.load(next);
        } else {
            self.top = y;
        }
    }
}

/// Emits `band`'s x-structure as a band spanning `top..bot`, coalescing
/// with the previous output band when possible. `scratch` is a reusable
/// buffer (left empty on return).
fn emit_band(out: &mut Vec<Rect>, scratch: &mut Vec<Rect>, top: i32, bot: i32, band: &[Rect]) {
    scratch.clear();
    let h = bot - top;
    scratch.extend(band.iter().map(|r| Rect::new(r.x, top, r.width, h)));
    coalesce_with_previous_band(out, scratch);
    out.append(scratch);
}

/// Merges the x-intervals of two aligned bands under `op` into a band
/// spanning `top..bot`, appended to `out` (via `scratch`, reused).
///
/// Both inputs are sorted, disjoint, and non-adjacent in x (the region
/// invariant), so every operator is a single two-pointer pass.
fn merge_bands(
    out: &mut Vec<Rect>,
    scratch: &mut Vec<Rect>,
    top: i32,
    bot: i32,
    a: &[Rect],
    b: &[Rect],
    op: Op,
) {
    scratch.clear();
    let h = bot - top;
    match op {
        Op::Union => {
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                let from_a = match (a.get(i), b.get(j)) {
                    (Some(ra), Some(rb)) => ra.x <= rb.x,
                    (Some(_), None) => true,
                    _ => false,
                };
                let r = if from_a {
                    i += 1;
                    a[i - 1]
                } else {
                    j += 1;
                    b[j - 1]
                };
                match scratch.last_mut() {
                    // Overlapping or adjacent: grow the previous interval.
                    Some(last) if last.right() >= r.x => {
                        if r.right() > last.right() {
                            last.width = r.right() - last.x;
                        }
                    }
                    _ => scratch.push(Rect::new(r.x, top, r.width, h)),
                }
            }
        }
        Op::Intersect => {
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                let x0 = a[i].x.max(b[j].x);
                let x1 = a[i].right().min(b[j].right());
                if x0 < x1 {
                    scratch.push(Rect::new(x0, top, x1 - x0, h));
                }
                if a[i].right() <= b[j].right() {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        }
        Op::Subtract => {
            let mut j = 0;
            for ra in a {
                let mut x = ra.x;
                let end = ra.right();
                // b intervals entirely left of this a interval are done
                // for good (a is sorted), so the outer pointer advances.
                while j < b.len() && b[j].right() <= x {
                    j += 1;
                }
                // A b interval can straddle into the next a interval, so
                // scan with a local pointer from j.
                let mut k = j;
                while k < b.len() && b[k].x < end {
                    if b[k].x > x {
                        scratch.push(Rect::new(x, top, b[k].x - x, h));
                    }
                    x = x.max(b[k].right());
                    if x >= end {
                        break;
                    }
                    k += 1;
                }
                if x < end {
                    scratch.push(Rect::new(x, top, end - x, h));
                }
            }
        }
    }
    if scratch.is_empty() {
        return;
    }
    coalesce_with_previous_band(out, scratch);
    out.append(scratch);
}

/// If the previous band in `out` is vertically adjacent to `band` and has
/// the same x-structure, grow it downward instead of appending.
fn coalesce_with_previous_band(out: &mut [Rect], band: &mut Vec<Rect>) {
    if band.is_empty() || out.is_empty() {
        return;
    }
    let band_top = band[0].y;
    // Find the previous band (trailing run of rects sharing y and height).
    let prev_y = out.last().map(|r| r.y).unwrap();
    let prev_h = out.last().map(|r| r.height).unwrap();
    if prev_y + prev_h != band_top {
        return;
    }
    let start = out
        .iter()
        .rposition(|r| r.y != prev_y)
        .map(|i| i + 1)
        .unwrap_or(0);
    let prev = &out[start..];
    if prev.len() != band.len() {
        return;
    }
    let same = prev
        .iter()
        .zip(band.iter())
        .all(|(p, b)| p.x == b.x && p.width == b.width);
    if !same {
        return;
    }
    let grow = band[0].height;
    for r in &mut out[start..] {
        r.height += grow;
    }
    band.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x: i32, y: i32, w: i32, h: i32) -> Rect {
        Rect::new(x, y, w, h)
    }

    #[test]
    fn from_rect_and_area() {
        let reg = Region::from_rect(r(0, 0, 10, 5));
        assert_eq!(reg.area(), 50);
        assert!(Region::from_rect(Rect::EMPTY).is_empty());
    }

    #[test]
    fn union_of_disjoint_rects() {
        let a = Region::from_rect(r(0, 0, 10, 10));
        let b = Region::from_rect(r(20, 0, 10, 10));
        let u = a.union(&b);
        assert_eq!(u.area(), 200);
        assert_eq!(u.rects().len(), 2);
    }

    #[test]
    fn union_merges_overlap() {
        let a = Region::from_rect(r(0, 0, 10, 10));
        let b = Region::from_rect(r(5, 0, 10, 10));
        let u = a.union(&b);
        assert_eq!(u.area(), 150);
        assert_eq!(u.rects(), &[r(0, 0, 15, 10)]);
    }

    #[test]
    fn adjacent_rects_coalesce_into_one() {
        let a = Region::from_rect(r(0, 0, 10, 10));
        let b = Region::from_rect(r(0, 10, 10, 10));
        let u = a.union(&b);
        assert_eq!(u.rects(), &[r(0, 0, 10, 20)]);
    }

    #[test]
    fn intersect_simple() {
        let a = Region::from_rect(r(0, 0, 10, 10));
        let b = Region::from_rect(r(5, 5, 10, 10));
        let i = a.intersect(&b);
        assert_eq!(i.rects(), &[r(5, 5, 5, 5)]);
    }

    #[test]
    fn subtract_punches_hole() {
        let a = Region::from_rect(r(0, 0, 30, 30));
        let hole = Region::from_rect(r(10, 10, 10, 10));
        let d = a.subtract(&hole);
        assert_eq!(d.area(), 900 - 100);
        assert!(!d.contains(Point::new(15, 15)));
        assert!(d.contains(Point::new(5, 15)));
        assert!(d.contains(Point::new(25, 15)));
        // Re-adding the hole restores the square.
        let restored = d.union(&hole);
        assert_eq!(restored.rects(), &[r(0, 0, 30, 30)]);
    }

    #[test]
    fn structural_equality_of_same_pixel_set() {
        // Built two different ways, same pixels => same representation.
        let mut a = Region::new();
        a.add_rect(r(0, 0, 10, 5));
        a.add_rect(r(0, 5, 10, 5));
        let b = Region::from_rect(r(0, 0, 10, 10));
        assert_eq!(a, b);
    }

    #[test]
    fn bounding_box_and_contains() {
        let mut reg = Region::new();
        reg.add_rect(r(0, 0, 5, 5));
        reg.add_rect(r(20, 20, 5, 5));
        assert_eq!(reg.bounding_box(), r(0, 0, 25, 25));
        assert!(reg.contains(Point::new(2, 2)));
        assert!(!reg.contains(Point::new(10, 10)));
        assert!(reg.intersects_rect(r(4, 4, 2, 2)));
        assert!(!reg.intersects_rect(r(6, 6, 2, 2)));
    }

    #[test]
    fn translate_moves_all_rects() {
        let reg = Region::from_rect(r(0, 0, 5, 5)).translate(3, 4);
        assert_eq!(reg.rects(), &[r(3, 4, 5, 5)]);
    }

    #[test]
    fn intersect_with_empty_is_empty() {
        let a = Region::from_rect(r(0, 0, 10, 10));
        assert!(a.intersect(&Region::new()).is_empty());
        assert_eq!(a.union(&Region::new()), a);
        assert_eq!(a.subtract(&Region::new()), a);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (0i32..40, 0i32..40, 1i32..20, 1i32..20).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
    }

    fn arb_region() -> impl Strategy<Value = Region> {
        proptest::collection::vec(arb_rect(), 0..6).prop_map(|rs| {
            let mut reg = Region::new();
            for r in rs {
                reg.add_rect(r);
            }
            reg
        })
    }

    /// Brute-force membership oracle over a small grid. Pixels are pushed
    /// as `(y, x)` so generation order equals lexicographic order and the
    /// result is always sorted.
    fn pixels(reg: &Region) -> Vec<(i32, i32)> {
        let mut v = Vec::new();
        for y in -2..70 {
            for x in -2..70 {
                if reg.contains(Point::new(x, y)) {
                    v.push((y, x));
                }
            }
        }
        v
    }

    proptest! {
        #[test]
        fn union_matches_pixel_oracle(a in arb_region(), b in arb_region()) {
            let u = a.union(&b);
            let mut expect = pixels(&a);
            expect.extend(pixels(&b));
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(pixels(&u), expect);
        }

        #[test]
        fn intersect_matches_pixel_oracle(a in arb_region(), b in arb_region()) {
            let i = a.intersect(&b);
            let pb = pixels(&b);
            let expect: Vec<_> = pixels(&a).into_iter()
                .filter(|p| pb.binary_search(p).is_ok())
                .collect();
            prop_assert_eq!(pixels(&i), expect);
        }

        #[test]
        fn subtract_matches_pixel_oracle(a in arb_region(), b in arb_region()) {
            let d = a.subtract(&b);
            let pb = pixels(&b);
            let expect: Vec<_> = pixels(&a).into_iter()
                .filter(|p| pb.binary_search(p).is_err())
                .collect();
            prop_assert_eq!(pixels(&d), expect);
        }

        #[test]
        fn area_equals_pixel_count(a in arb_region()) {
            prop_assert_eq!(a.area() as usize, pixels(&a).len());
        }

        #[test]
        fn rects_are_disjoint(a in arb_region(), b in arb_region()) {
            let u = a.union(&b);
            let rs = u.rects();
            for i in 0..rs.len() {
                for j in (i + 1)..rs.len() {
                    prop_assert!(!rs[i].intersects(rs[j]),
                        "rects {} and {} overlap", rs[i], rs[j]);
                }
            }
        }

        #[test]
        fn from_rects_equals_add_rect_loop(rs in proptest::collection::vec(arb_rect(), 0..12)) {
            let bulk = Region::from_rects(rs.iter().copied());
            let mut looped = Region::new();
            for r in rs {
                looped.add_rect(r);
            }
            prop_assert_eq!(bulk, looped);
        }

        /// The banded form is canonical: any permutation of the input
        /// must yield a *structurally* identical region (same bands, same
        /// x-spans), not merely the same pixel set — and both must equal
        /// the incremental `add_rect` fold over the permuted order.
        #[test]
        fn from_rects_is_permutation_invariant(
            rs in proptest::collection::vec(arb_rect(), 0..12),
            swaps in proptest::collection::vec((0usize..64, 0usize..64), 0..32),
        ) {
            let baseline = Region::from_rects(rs.iter().copied());
            let mut perm = rs.clone();
            for (a, b) in swaps {
                if !perm.is_empty() {
                    let len = perm.len();
                    perm.swap(a % len, b % len);
                }
            }
            let shuffled = Region::from_rects(perm.iter().copied());
            prop_assert_eq!(shuffled.rects(), baseline.rects());
            let mut folded = Region::new();
            for r in perm {
                folded.add_rect(r);
            }
            prop_assert_eq!(folded, baseline);
        }
    }
}

/// The pre-sweep reference implementation (elementary y-slabs with
/// linear membership probes), kept verbatim as a semantic oracle: the
/// band-merge sweep must produce *identical structure* on every input.
#[cfg(test)]
mod reference_oracle {
    use super::*;
    use proptest::prelude::*;

    fn slab_intervals(rects: &[Rect], top: i32, bot: i32) -> Vec<(i32, i32)> {
        let mut iv: Vec<(i32, i32)> = rects
            .iter()
            .filter(|r| r.y <= top && r.bottom() >= bot)
            .map(|r| (r.x, r.right()))
            .collect();
        iv.sort_unstable();
        let mut merged: Vec<(i32, i32)> = Vec::with_capacity(iv.len());
        for (a, b) in iv {
            match merged.last_mut() {
                Some((_, pb)) if *pb >= a => *pb = (*pb).max(b),
                _ => merged.push((a, b)),
            }
        }
        merged
    }

    fn combine_intervals(a: &[(i32, i32)], b: &[(i32, i32)], op: Op) -> Vec<(i32, i32)> {
        let mut events: Vec<i32> = Vec::with_capacity((a.len() + b.len()) * 2);
        for &(s, e) in a.iter().chain(b.iter()) {
            events.push(s);
            events.push(e);
        }
        events.sort_unstable();
        events.dedup();

        let inside_a = |x: i32| a.iter().any(|&(s, e)| s <= x && x < e);
        let inside_b = |x: i32| b.iter().any(|&(s, e)| s <= x && x < e);

        let mut out: Vec<(i32, i32)> = Vec::new();
        for w in events.windows(2) {
            let (s, e) = (w[0], w[1]);
            let ia = inside_a(s);
            let ib = inside_b(s);
            let keep = match op {
                Op::Union => ia || ib,
                Op::Intersect => ia && ib,
                Op::Subtract => ia && !ib,
            };
            if keep {
                match out.last_mut() {
                    Some((_, pe)) if *pe == s => *pe = e,
                    _ => out.push((s, e)),
                }
            }
        }
        out
    }

    /// The old `Region::combine`, verbatim.
    pub(super) fn reference_combine(a: &Region, b: &Region, op: Op) -> Region {
        let mut ys: Vec<i32> = Vec::with_capacity((a.rects.len() + b.rects.len()) * 2);
        for r in a.rects.iter().chain(b.rects.iter()) {
            ys.push(r.y);
            ys.push(r.bottom());
        }
        ys.sort_unstable();
        ys.dedup();

        let mut out: Vec<Rect> = Vec::new();
        for w in ys.windows(2) {
            let (top, bot) = (w[0], w[1]);
            let ia = slab_intervals(&a.rects, top, bot);
            let ib = slab_intervals(&b.rects, top, bot);
            let combined = combine_intervals(&ia, &ib, op);
            let mut band: Vec<Rect> = combined
                .into_iter()
                .map(|(x0, x1)| Rect::new(x0, top, x1 - x0, bot - top))
                .collect();
            coalesce_with_previous_band(&mut out, &mut band);
            out.append(&mut band);
        }
        Region { rects: out }
    }

    /// Wider coordinate range than the pixel-oracle tests: equivalence
    /// checking needs no per-pixel scan, so the grid can be much larger.
    fn big_rect() -> impl Strategy<Value = Rect> {
        (0i32..400, 0i32..400, 1i32..160, 1i32..160).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
    }

    fn big_region() -> impl Strategy<Value = Region> {
        proptest::collection::vec(big_rect(), 0..10).prop_map(Region::from_rects)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sweep_matches_reference_structurally(a in big_region(), b in big_region()) {
            for op in [Op::Union, Op::Intersect, Op::Subtract] {
                let new = a.combine(&b, op);
                let old = reference_combine(&a, &b, op);
                prop_assert_eq!(new, old);
            }
        }

        #[test]
        fn sweep_matches_pixel_oracle_on_larger_grid(
            a in proptest::collection::vec(
                (0i32..120, 0i32..120, 1i32..50, 1i32..50), 0..8),
            b in proptest::collection::vec(
                (0i32..120, 0i32..120, 1i32..50, 1i32..50), 0..8),
        ) {
            let ra = Region::from_rects(a.iter().map(|&(x, y, w, h)| Rect::new(x, y, w, h)));
            let rb = Region::from_rects(b.iter().map(|&(x, y, w, h)| Rect::new(x, y, w, h)));
            let u = ra.union(&rb);
            let i = ra.intersect(&rb);
            let d = ra.subtract(&rb);
            for y in -1..175 {
                for x in -1..175 {
                    let p = Point::new(x, y);
                    let (ina, inb) = (ra.contains(p), rb.contains(p));
                    prop_assert_eq!(u.contains(p), ina || inb, "union wrong at {},{}", x, y);
                    prop_assert_eq!(i.contains(p), ina && inb, "intersect wrong at {},{}", x, y);
                    prop_assert_eq!(d.contains(p), ina && !inb, "subtract wrong at {},{}", x, y);
                }
            }
        }
    }
}
