//! Integer geometry: points, sizes, and rectangles.
//!
//! All toolkit coordinates are `i32` pixels with the origin at the top
//! left and y growing downward, matching both the original ITC window
//! manager and X.11.

use std::fmt;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// A point in pixel coordinates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Point {
    /// Horizontal coordinate, growing rightward.
    pub x: i32,
    /// Vertical coordinate, growing downward.
    pub y: i32,
}

impl Point {
    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0, y: 0 };

    /// Creates a point.
    pub const fn new(x: i32, y: i32) -> Point {
        Point { x, y }
    }

    /// Squared Euclidean distance to `other` (avoids floating point).
    pub fn dist2(self, other: Point) -> i64 {
        let dx = (self.x - other.x) as i64;
        let dy = (self.y - other.y) as i64;
        dx * dx + dy * dy
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    fn add_assign(&mut self, rhs: Point) {
        *self = *self + rhs;
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    fn sub_assign(&mut self, rhs: Point) {
        *self = *self - rhs;
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A width/height pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Size {
    /// Width in pixels.
    pub width: i32,
    /// Height in pixels.
    pub height: i32,
}

impl Size {
    /// The empty size.
    pub const ZERO: Size = Size {
        width: 0,
        height: 0,
    };

    /// Creates a size.
    pub const fn new(width: i32, height: i32) -> Size {
        Size { width, height }
    }

    /// True if either dimension is non-positive.
    pub fn is_empty(self) -> bool {
        self.width <= 0 || self.height <= 0
    }

    /// Component-wise maximum.
    pub fn max(self, other: Size) -> Size {
        Size::new(self.width.max(other.width), self.height.max(other.height))
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// An axis-aligned rectangle: origin plus extent.
///
/// The rectangle covers pixel columns `x .. x + width` and rows
/// `y .. y + height` (half-open). Rectangles with non-positive extent are
/// *empty* and behave as the identity for [`Rect::union`] and as the
/// absorbing element for [`Rect::intersect`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge.
    pub x: i32,
    /// Top edge.
    pub y: i32,
    /// Extent in x.
    pub width: i32,
    /// Extent in y.
    pub height: i32,
}

impl Rect {
    /// The empty rectangle at the origin.
    pub const EMPTY: Rect = Rect {
        x: 0,
        y: 0,
        width: 0,
        height: 0,
    };

    /// Creates a rectangle from origin and extent.
    pub const fn new(x: i32, y: i32, width: i32, height: i32) -> Rect {
        Rect {
            x,
            y,
            width,
            height,
        }
    }

    /// Creates a rectangle from two corner points (any order).
    pub fn from_corners(a: Point, b: Point) -> Rect {
        let x = a.x.min(b.x);
        let y = a.y.min(b.y);
        Rect::new(x, y, (a.x - b.x).abs(), (a.y - b.y).abs())
    }

    /// Creates a rectangle from origin point and size.
    pub fn at(origin: Point, size: Size) -> Rect {
        Rect::new(origin.x, origin.y, size.width, size.height)
    }

    /// The top-left corner.
    pub fn origin(self) -> Point {
        Point::new(self.x, self.y)
    }

    /// The extent as a [`Size`].
    pub fn size(self) -> Size {
        Size::new(self.width, self.height)
    }

    /// One past the right edge.
    pub fn right(self) -> i32 {
        self.x + self.width
    }

    /// One past the bottom edge.
    pub fn bottom(self) -> i32 {
        self.y + self.height
    }

    /// The center point (rounded toward the origin).
    pub fn center(self) -> Point {
        Point::new(self.x + self.width / 2, self.y + self.height / 2)
    }

    /// True if the rectangle has no area.
    pub fn is_empty(self) -> bool {
        self.width <= 0 || self.height <= 0
    }

    /// True if `p` lies inside the (half-open) rectangle.
    pub fn contains(self, p: Point) -> bool {
        p.x >= self.x && p.x < self.right() && p.y >= self.y && p.y < self.bottom()
    }

    /// True if `other` lies entirely inside `self`.
    pub fn contains_rect(self, other: Rect) -> bool {
        if other.is_empty() {
            return true;
        }
        other.x >= self.x
            && other.y >= self.y
            && other.right() <= self.right()
            && other.bottom() <= self.bottom()
    }

    /// True if the two rectangles share any pixel.
    pub fn intersects(self, other: Rect) -> bool {
        !self.intersect(other).is_empty()
    }

    /// The overlap of two rectangles ([`Rect::EMPTY`] if disjoint).
    pub fn intersect(self, other: Rect) -> Rect {
        let x = self.x.max(other.x);
        let y = self.y.max(other.y);
        let r = self.right().min(other.right());
        let b = self.bottom().min(other.bottom());
        if r <= x || b <= y {
            Rect::EMPTY
        } else {
            Rect::new(x, y, r - x, b - y)
        }
    }

    /// The smallest rectangle covering both inputs; empty inputs are
    /// ignored.
    pub fn union(self, other: Rect) -> Rect {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        let x = self.x.min(other.x);
        let y = self.y.min(other.y);
        let r = self.right().max(other.right());
        let b = self.bottom().max(other.bottom());
        Rect::new(x, y, r - x, b - y)
    }

    /// The pixels of `self` outside `other`, as four disjoint rects,
    /// some of them empty: the full-width bands above and below the
    /// overlap, then the parts left and right of it.
    pub fn subtract(self, other: Rect) -> [Rect; 4] {
        let o = self.intersect(other);
        if o.is_empty() {
            return [self, Rect::EMPTY, Rect::EMPTY, Rect::EMPTY];
        }
        [
            Rect::new(self.x, self.y, self.width, o.y - self.y),
            Rect::new(self.x, o.bottom(), self.width, self.bottom() - o.bottom()),
            Rect::new(self.x, o.y, o.x - self.x, o.height),
            Rect::new(o.right(), o.y, self.right() - o.right(), o.height),
        ]
    }

    /// The rectangle moved by `(dx, dy)`.
    pub fn translate(self, dx: i32, dy: i32) -> Rect {
        Rect::new(self.x + dx, self.y + dy, self.width, self.height)
    }

    /// The rectangle shrunk by `d` on every side (grown if `d` is
    /// negative). Shrinking past empty yields an empty rectangle.
    pub fn inset(self, d: i32) -> Rect {
        Rect::new(
            self.x + d,
            self.y + d,
            self.width - 2 * d,
            self.height - 2 * d,
        )
    }

    /// Area in pixels (0 for empty rectangles).
    pub fn area(self) -> i64 {
        if self.is_empty() {
            0
        } else {
            self.width as i64 * self.height as i64
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}+{}+{}", self.width, self.height, self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let p = Point::new(3, 4) + Point::new(1, -2);
        assert_eq!(p, Point::new(4, 2));
        assert_eq!(p - Point::new(4, 2), Point::ORIGIN);
        assert_eq!(-p, Point::new(-4, -2));
        assert_eq!(Point::ORIGIN.dist2(Point::new(3, 4)), 25);
    }

    #[test]
    fn rect_contains_is_half_open() {
        let r = Rect::new(10, 10, 5, 5);
        assert!(r.contains(Point::new(10, 10)));
        assert!(r.contains(Point::new(14, 14)));
        assert!(!r.contains(Point::new(15, 10)));
        assert!(!r.contains(Point::new(10, 15)));
    }

    #[test]
    fn intersect_and_union() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(b), Rect::new(5, 5, 5, 5));
        assert_eq!(a.union(b), Rect::new(0, 0, 15, 15));
        let disjoint = Rect::new(100, 100, 5, 5);
        assert!(a.intersect(disjoint).is_empty());
        assert!(!a.intersects(disjoint));
    }

    /// The difference covers exactly the pixels of `a` not in `b`,
    /// each once, for overlaps on every side and for none.
    #[test]
    fn subtract_covers_each_pixel_outside_once() {
        let a = Rect::new(0, 0, 10, 8);
        for b in [
            Rect::new(3, 2, 4, 3),
            Rect::new(-5, 2, 8, 30),
            Rect::new(4, -1, 20, 4),
            Rect::new(0, 0, 10, 8),
            Rect::new(20, 20, 3, 3),
        ] {
            let parts = a.subtract(b);
            for y in -2..12 {
                for x in -2..14 {
                    let p = Point::new(x, y);
                    let hits = parts.iter().filter(|r| r.contains(p)).count();
                    let outside = a.contains(p) && !b.contains(p);
                    assert_eq!(hits, usize::from(outside), "{a} - {b} at {p}");
                }
            }
        }
    }

    #[test]
    fn empty_rect_identities() {
        let a = Rect::new(2, 3, 7, 9);
        assert_eq!(a.union(Rect::EMPTY), a);
        assert_eq!(Rect::EMPTY.union(a), a);
        assert!(Rect::EMPTY.intersect(a).is_empty());
        assert!(a.contains_rect(Rect::EMPTY));
    }

    #[test]
    fn inset_shrinks_and_grows() {
        let r = Rect::new(0, 0, 10, 10);
        assert_eq!(r.inset(2), Rect::new(2, 2, 6, 6));
        assert_eq!(r.inset(-2), Rect::new(-2, -2, 14, 14));
        assert!(r.inset(6).is_empty());
    }

    #[test]
    fn from_corners_normalizes() {
        let r = Rect::from_corners(Point::new(10, 2), Point::new(4, 8));
        assert_eq!(r, Rect::new(4, 2, 6, 6));
    }

    #[test]
    fn contains_rect_cases() {
        let outer = Rect::new(0, 0, 20, 20);
        assert!(outer.contains_rect(Rect::new(5, 5, 10, 10)));
        assert!(outer.contains_rect(outer));
        assert!(!outer.contains_rect(Rect::new(15, 15, 10, 10)));
    }

    #[test]
    fn area_of_empty_is_zero() {
        assert_eq!(Rect::new(0, 0, -5, 10).area(), 0);
        assert_eq!(Rect::new(0, 0, 4, 5).area(), 20);
    }
}
