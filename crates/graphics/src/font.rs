//! Bitmap fonts and the `fontdesc` model.
//!
//! The toolkit described fonts by *family*, *style*, and *size* (paper §8
//! lists `FontDesc` among the six classes a port must supply). Our
//! simulated window systems share one built-in 5×7 pixel font ("andy",
//! plus the fixed-pitch "andytype"); sizes are integer scalings of the
//! base glyphs and styles are synthesized: bold double-strikes, italic
//! shears, underline draws a rule. That is exactly how period servers
//! synthesized missing styles.
//!
//! Glyphs are defined as ASCII art in `GLYPH_ART` and parsed once into a
//! bitmap table, so the font is inspectable and testable like any other
//! data structure.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::color::Color;
use crate::fb::Framebuffer;
use crate::geom::{Point, Rect};

/// Style flags, combinable via [`FontStyle::union`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FontStyle {
    /// Double-strike emboldening.
    pub bold: bool,
    /// Sheared (slanted) rendering.
    pub italic: bool,
    /// Underlined.
    pub underline: bool,
}

impl FontStyle {
    /// The plain style.
    pub const PLAIN: FontStyle = FontStyle {
        bold: false,
        italic: false,
        underline: false,
    };
    /// Bold only.
    pub const BOLD: FontStyle = FontStyle {
        bold: true,
        italic: false,
        underline: false,
    };
    /// Italic only.
    pub const ITALIC: FontStyle = FontStyle {
        bold: false,
        italic: true,
        underline: false,
    };
    /// Underline only.
    pub const UNDERLINE: FontStyle = FontStyle {
        bold: false,
        italic: false,
        underline: true,
    };

    /// Combines two styles flag-wise.
    pub fn union(self, other: FontStyle) -> FontStyle {
        FontStyle {
            bold: self.bold || other.bold,
            italic: self.italic || other.italic,
            underline: self.underline || other.underline,
        }
    }
}

/// A font request: family, style, size — the toolkit's `fontdesc`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FontDesc {
    /// Family name; `"andy"` (proportional) and `"andytype"` (fixed) are
    /// built in, unknown families fall back to `"andy"`.
    pub family: String,
    /// Style flags.
    pub style: FontStyle,
    /// Nominal size in points; rendering scale is `max(1, size / 10)`.
    pub size: u32,
}

impl FontDesc {
    /// Creates a descriptor.
    pub fn new(family: &str, style: FontStyle, size: u32) -> FontDesc {
        FontDesc {
            family: family.to_string(),
            style,
            size,
        }
    }

    /// The toolkit's default body font: andy 12 plain.
    pub fn default_body() -> FontDesc {
        FontDesc::new("andy", FontStyle::PLAIN, 12)
    }

    /// The fixed-pitch font used by typescript and code.
    pub fn fixed() -> FontDesc {
        FontDesc::new("andytype", FontStyle::PLAIN, 12)
    }

    /// Integer pixel scale for this size.
    pub fn scale(&self) -> i32 {
        ((self.size / 10).max(1)) as i32
    }

    /// True if the family is fixed-pitch.
    pub fn is_fixed(&self) -> bool {
        self.family == "andytype"
    }

    /// Measured metrics for this descriptor.
    pub fn metrics(&self) -> FontMetrics {
        let s = self.scale();
        FontMetrics {
            ascent: 7 * s,
            descent: 2 * s,
            line_height: 10 * s,
            max_advance: (GLYPH_COLS + 1) * s + if self.style.bold { s } else { 0 },
        }
    }

    /// Advance width of a single character.
    pub fn char_width(&self, ch: char) -> i32 {
        if measure_cache_enabled() {
            return self.width_table().advance(ch);
        }
        self.char_width_uncached(ch)
    }

    /// The advance computed from the glyph table, bypassing the
    /// measurement cache (also the cache's fill path).
    fn char_width_uncached(&self, ch: char) -> i32 {
        let s = self.scale();
        let bold_extra = if self.style.bold { s } else { 0 };
        if self.is_fixed() {
            return (GLYPH_COLS + 1) * s + bold_extra;
        }
        let table = glyph_table();
        let logical = table
            .get(&ch)
            .map(|g| g.logical_width)
            .unwrap_or(GLYPH_COLS);
        (logical + 1) * s + bold_extra
    }

    /// Advance width of a string.
    pub fn string_width(&self, s: &str) -> i32 {
        if measure_cache_enabled() {
            let t = self.width_table();
            return s.chars().map(|c| t.advance(c)).sum();
        }
        s.chars().map(|c| self.char_width_uncached(c)).sum()
    }

    /// The memoized advance table for this descriptor. Layout engines
    /// resolve this once per style run instead of re-measuring every
    /// character through the glyph table; the shared cache makes repeat
    /// lookups (`font.measure_cache_hit`) an array index.
    ///
    /// Always returns a table, even when the cache is disabled via
    /// [`set_measure_cache_enabled`] — disabling only stops *sharing*
    /// (each call rebuilds, counted as `font.measure_cache_miss`), which
    /// is what the E12 cache ablation measures.
    pub fn width_table(&self) -> Arc<WidthTable> {
        if measure_cache_enabled() {
            if let Some(t) = width_cache().read().expect("width cache").get(self) {
                atk_trace::global().count("font.measure_cache_hit", 1);
                return Arc::clone(t);
            }
        }
        atk_trace::global().count("font.measure_cache_miss", 1);
        let t = Arc::new(WidthTable::build(self));
        if measure_cache_enabled() {
            width_cache()
                .write()
                .expect("width cache")
                .entry(self.clone())
                .or_insert_with(|| Arc::clone(&t));
        }
        t
    }
}

/// Memoized per-character advances for one [`FontDesc`]: ASCII is an
/// array index, everything else (all unmapped, rendered as the hollow
/// box) shares one fallback advance.
#[derive(Debug, Clone)]
pub struct WidthTable {
    ascii: [i32; 128],
    fallback: i32,
}

impl WidthTable {
    fn build(desc: &FontDesc) -> WidthTable {
        let mut ascii = [0i32; 128];
        for (code, slot) in ascii.iter_mut().enumerate() {
            *slot = desc.char_width_uncached(code as u8 as char);
        }
        WidthTable {
            ascii,
            // Any char outside the glyph table measures as the full
            // cell; '\u{FFFC}' (the anchor char) lands here too.
            fallback: desc.char_width_uncached('\u{FFFC}'),
        }
    }

    /// The advance of `ch` in this font.
    #[inline]
    pub fn advance(&self, ch: char) -> i32 {
        let c = ch as u32;
        if c < 128 {
            self.ascii[c as usize]
        } else {
            self.fallback
        }
    }
}

static MEASURE_CACHE_ON: AtomicBool = AtomicBool::new(true);

fn measure_cache_enabled() -> bool {
    MEASURE_CACHE_ON.load(Ordering::Relaxed)
}

/// Enables or disables the shared measurement cache (the E12 ablation;
/// it defaults to on). Disabling does not clear entries — re-enabling
/// picks the warm cache back up.
pub fn set_measure_cache_enabled(on: bool) {
    MEASURE_CACHE_ON.store(on, Ordering::Relaxed);
}

fn width_cache() -> &'static RwLock<HashMap<FontDesc, Arc<WidthTable>>> {
    static CACHE: OnceLock<RwLock<HashMap<FontDesc, Arc<WidthTable>>>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

impl fmt::Display for FontDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.family, self.size)?;
        if self.style.bold {
            write!(f, "b")?;
        }
        if self.style.italic {
            write!(f, "i")?;
        }
        if self.style.underline {
            write!(f, "u")?;
        }
        Ok(())
    }
}

/// Pixel metrics for a [`FontDesc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FontMetrics {
    /// Pixels above the baseline.
    pub ascent: i32,
    /// Pixels reserved below the baseline.
    pub descent: i32,
    /// Recommended baseline-to-baseline distance.
    pub line_height: i32,
    /// Widest character advance.
    pub max_advance: i32,
}

/// Glyph cell columns in the base bitmap.
pub const GLYPH_COLS: i32 = 5;
/// Glyph cell rows in the base bitmap.
pub const GLYPH_ROWS: i32 = 7;

/// One parsed glyph: 7 rows of 5 bits (MSB = leftmost column).
#[derive(Debug, Clone, Copy)]
pub struct Glyph {
    rows: [u8; GLYPH_ROWS as usize],
    /// Rightmost used column + 1 (for proportional spacing).
    logical_width: i32,
}

impl Glyph {
    /// True if the pixel at `(col, row)` is set.
    pub fn pixel(&self, col: i32, row: i32) -> bool {
        if !(0..GLYPH_COLS).contains(&col) || !(0..GLYPH_ROWS).contains(&row) {
            return false;
        }
        self.rows[row as usize] & (0x10 >> col) != 0
    }
}

/// The built-in font rasterizer shared by all backends.
pub struct BitmapFont;

impl BitmapFont {
    /// Draws `text` with its *top-left* corner at `origin`; returns the
    /// advance in x. Unknown characters render as a hollow box.
    ///
    /// The advance table is resolved once per call, and a glyph whose
    /// cell misses everything the framebuffer may write (its bounds cut
    /// to the clip) is not rasterized.
    pub fn draw(
        fb: &mut Framebuffer,
        origin: Point,
        text: &str,
        desc: &FontDesc,
        color: Color,
    ) -> i32 {
        let s = desc.scale();
        let widths = desc.width_table();
        let visible = fb.writable_bounds();
        let mut x = origin.x;
        for ch in text.chars() {
            let adv = widths.advance(ch);
            // Five columns, one more for the italic shear and one for
            // the bold strike: the glyph and the hollow box fit inside.
            let cell = Rect::new(x, origin.y, (GLYPH_COLS + 2) * s, GLYPH_ROWS * s);
            if cell.intersects(visible) {
                match Self::glyph(ch) {
                    Some(glyph) => {
                        Self::draw_glyph(fb, Point::new(x, origin.y), glyph, desc, color);
                    }
                    None => {
                        // Hollow box for unmapped characters.
                        fb.draw_rect(Rect::new(x, origin.y, adv - s, GLYPH_ROWS * s), color);
                    }
                }
            }
            if desc.style.underline {
                fb.fill_rect(
                    Rect::new(x, origin.y + (GLYPH_ROWS + 1) * s, adv, s.max(1)),
                    color,
                );
            }
            x += adv;
        }
        x - origin.x
    }

    /// Draws `text` with the *baseline* at `baseline_origin.y`.
    pub fn draw_baseline(
        fb: &mut Framebuffer,
        baseline_origin: Point,
        text: &str,
        desc: &FontDesc,
        color: Color,
    ) -> i32 {
        let top = Point::new(baseline_origin.x, baseline_origin.y - desc.metrics().ascent);
        Self::draw(fb, top, text, desc, color)
    }

    /// The glyph drawn for `ch`, or `None` for a character drawn as the
    /// hollow box: an array index for ASCII, the parsed table otherwise.
    pub fn glyph(ch: char) -> Option<&'static Glyph> {
        static ASCII: OnceLock<[Option<Glyph>; 128]> = OnceLock::new();
        let code = ch as usize;
        if code < 128 {
            let ascii = ASCII.get_or_init(|| {
                let table = glyph_table();
                std::array::from_fn(|c| table.get(&(c as u8 as char)).copied())
            });
            ascii[code].as_ref()
        } else {
            glyph_table().get(&ch)
        }
    }

    /// Draws each glyph row as its maximal runs of lit columns, all in
    /// one [`Framebuffer::fill_runs`] over the glyph's cell. Bold widens
    /// every run by one scaled pixel: exactly the union of the plain
    /// strike and the strike one pixel right.
    fn draw_glyph(
        fb: &mut Framebuffer,
        origin: Point,
        glyph: &Glyph,
        desc: &FontDesc,
        color: Color,
    ) {
        let s = desc.scale();
        let bold = if desc.style.bold { s } else { 0 };
        let cell = Rect::new(origin.x, origin.y, (GLYPH_COLS + 2) * s, GLYPH_ROWS * s);
        fb.fill_runs(cell, color, |y| {
            let row = (y - origin.y) / s;
            let bits = glyph.rows[row as usize];
            // Italic: shear the top rows one scaled pixel rightward.
            let x = origin.x + if desc.style.italic && row < 3 { s } else { 0 };
            let mut col = 0;
            std::iter::from_fn(move || {
                while col < GLYPH_COLS && bits & (0x10 >> col) == 0 {
                    col += 1;
                }
                if col == GLYPH_COLS {
                    return None;
                }
                let start = col;
                while col < GLYPH_COLS && bits & (0x10 >> col) != 0 {
                    col += 1;
                }
                Some((x + start * s, x + col * s + bold))
            })
        });
    }
}

fn glyph_table() -> &'static HashMap<char, Glyph> {
    static TABLE: OnceLock<HashMap<char, Glyph>> = OnceLock::new();
    TABLE.get_or_init(parse_glyph_art)
}

fn parse_glyph_art() -> HashMap<char, Glyph> {
    let mut map = HashMap::new();
    let mut lines = GLYPH_ART.lines().filter(|l| !l.trim().is_empty());
    while let Some(header) = lines.next() {
        let ch = header
            .strip_prefix("glyph ")
            .and_then(|s| s.chars().next())
            .unwrap_or_else(|| panic!("bad glyph header: {header:?}"));
        let mut rows = [0u8; GLYPH_ROWS as usize];
        for row in rows.iter_mut() {
            let art = lines.next().expect("truncated glyph art");
            let mut bits = 0u8;
            for (i, c) in art.chars().take(GLYPH_COLS as usize).enumerate() {
                if c == '#' {
                    bits |= 0x10 >> i;
                }
            }
            *row = bits;
        }
        let logical_width = (0..GLYPH_COLS)
            .rev()
            .find(|col| rows.iter().any(|r| r & (0x10 >> col) != 0))
            .map(|c| c + 1)
            .unwrap_or(3);
        map.insert(
            ch,
            Glyph {
                rows,
                logical_width,
            },
        );
    }
    // Space: empty glyph with a 3-column logical width.
    map.insert(
        ' ',
        Glyph {
            rows: [0; GLYPH_ROWS as usize],
            logical_width: 3,
        },
    );
    map
}

/// The glyph definitions: `glyph <char>` followed by seven rows of
/// five-column art (`#` = set). Covers printable ASCII 33–126.
const GLYPH_ART: &str = "\
glyph !
..#..
..#..
..#..
..#..
..#..
.....
..#..
glyph \"
.#.#.
.#.#.
.#.#.
.....
.....
.....
.....
glyph #
.#.#.
.#.#.
#####
.#.#.
#####
.#.#.
.#.#.
glyph $
..#..
.####
#.#..
.###.
..#.#
####.
..#..
glyph %
##..#
##..#
...#.
..#..
.#...
#..##
#..##
glyph &
.##..
#..#.
#.#..
.#...
#.#.#
#..#.
.##.#
glyph '
..#..
..#..
..#..
.....
.....
.....
.....
glyph (
...#.
..#..
.#...
.#...
.#...
..#..
...#.
glyph )
.#...
..#..
...#.
...#.
...#.
..#..
.#...
glyph *
.....
..#..
#.#.#
.###.
#.#.#
..#..
.....
glyph +
.....
..#..
..#..
#####
..#..
..#..
.....
glyph ,
.....
.....
.....
.....
.....
..#..
.#...
glyph -
.....
.....
.....
#####
.....
.....
.....
glyph .
.....
.....
.....
.....
.....
.##..
.##..
glyph /
....#
....#
...#.
..#..
.#...
#....
#....
glyph 0
.###.
#...#
#..##
#.#.#
##..#
#...#
.###.
glyph 1
..#..
.##..
..#..
..#..
..#..
..#..
.###.
glyph 2
.###.
#...#
....#
...#.
..#..
.#...
#####
glyph 3
.###.
#...#
....#
..##.
....#
#...#
.###.
glyph 4
...#.
..##.
.#.#.
#..#.
#####
...#.
...#.
glyph 5
#####
#....
####.
....#
....#
#...#
.###.
glyph 6
..##.
.#...
#....
####.
#...#
#...#
.###.
glyph 7
#####
....#
...#.
..#..
..#..
..#..
..#..
glyph 8
.###.
#...#
#...#
.###.
#...#
#...#
.###.
glyph 9
.###.
#...#
#...#
.####
....#
...#.
.##..
glyph :
.....
.##..
.##..
.....
.##..
.##..
.....
glyph ;
.....
.##..
.##..
.....
.##..
..#..
.#...
glyph <
...#.
..#..
.#...
#....
.#...
..#..
...#.
glyph =
.....
.....
#####
.....
#####
.....
.....
glyph >
.#...
..#..
...#.
....#
...#.
..#..
.#...
glyph ?
.###.
#...#
....#
...#.
..#..
.....
..#..
glyph @
.###.
#...#
#.###
#.#.#
#.###
#....
.###.
glyph A
.###.
#...#
#...#
#####
#...#
#...#
#...#
glyph B
####.
#...#
#...#
####.
#...#
#...#
####.
glyph C
.###.
#...#
#....
#....
#....
#...#
.###.
glyph D
####.
#...#
#...#
#...#
#...#
#...#
####.
glyph E
#####
#....
#....
####.
#....
#....
#####
glyph F
#####
#....
#....
####.
#....
#....
#....
glyph G
.###.
#...#
#....
#.###
#...#
#...#
.###.
glyph H
#...#
#...#
#...#
#####
#...#
#...#
#...#
glyph I
.###.
..#..
..#..
..#..
..#..
..#..
.###.
glyph J
..###
...#.
...#.
...#.
...#.
#..#.
.##..
glyph K
#...#
#..#.
#.#..
##...
#.#..
#..#.
#...#
glyph L
#....
#....
#....
#....
#....
#....
#####
glyph M
#...#
##.##
#.#.#
#.#.#
#...#
#...#
#...#
glyph N
#...#
##..#
#.#.#
#..##
#...#
#...#
#...#
glyph O
.###.
#...#
#...#
#...#
#...#
#...#
.###.
glyph P
####.
#...#
#...#
####.
#....
#....
#....
glyph Q
.###.
#...#
#...#
#...#
#.#.#
#..#.
.##.#
glyph R
####.
#...#
#...#
####.
#.#..
#..#.
#...#
glyph S
.####
#....
#....
.###.
....#
....#
####.
glyph T
#####
..#..
..#..
..#..
..#..
..#..
..#..
glyph U
#...#
#...#
#...#
#...#
#...#
#...#
.###.
glyph V
#...#
#...#
#...#
#...#
#...#
.#.#.
..#..
glyph W
#...#
#...#
#...#
#.#.#
#.#.#
##.##
#...#
glyph X
#...#
#...#
.#.#.
..#..
.#.#.
#...#
#...#
glyph Y
#...#
#...#
.#.#.
..#..
..#..
..#..
..#..
glyph Z
#####
....#
...#.
..#..
.#...
#....
#####
glyph [
.###.
.#...
.#...
.#...
.#...
.#...
.###.
glyph \\
#....
#....
.#...
..#..
...#.
....#
....#
glyph ]
.###.
...#.
...#.
...#.
...#.
...#.
.###.
glyph ^
..#..
.#.#.
#...#
.....
.....
.....
.....
glyph _
.....
.....
.....
.....
.....
.....
#####
glyph `
.#...
..#..
.....
.....
.....
.....
.....
glyph a
.....
.....
.###.
....#
.####
#...#
.####
glyph b
#....
#....
####.
#...#
#...#
#...#
####.
glyph c
.....
.....
.###.
#....
#....
#...#
.###.
glyph d
....#
....#
.####
#...#
#...#
#...#
.####
glyph e
.....
.....
.###.
#...#
#####
#....
.###.
glyph f
..##.
.#..#
.#...
###..
.#...
.#...
.#...
glyph g
.....
.####
#...#
#...#
.####
....#
.###.
glyph h
#....
#....
####.
#...#
#...#
#...#
#...#
glyph i
..#..
.....
.##..
..#..
..#..
..#..
.###.
glyph j
...#.
.....
..##.
...#.
...#.
#..#.
.##..
glyph k
#....
#....
#..#.
#.#..
##...
#.#..
#..#.
glyph l
.##..
..#..
..#..
..#..
..#..
..#..
.###.
glyph m
.....
.....
##.#.
#.#.#
#.#.#
#.#.#
#.#.#
glyph n
.....
.....
####.
#...#
#...#
#...#
#...#
glyph o
.....
.....
.###.
#...#
#...#
#...#
.###.
glyph p
.....
####.
#...#
#...#
####.
#....
#....
glyph q
.....
.####
#...#
#...#
.####
....#
....#
glyph r
.....
.....
#.##.
##..#
#....
#....
#....
glyph s
.....
.....
.####
#....
.###.
....#
####.
glyph t
.#...
.#...
###..
.#...
.#...
.#..#
..##.
glyph u
.....
.....
#...#
#...#
#...#
#..##
.##.#
glyph v
.....
.....
#...#
#...#
#...#
.#.#.
..#..
glyph w
.....
.....
#...#
#...#
#.#.#
#.#.#
.#.#.
glyph x
.....
.....
#...#
.#.#.
..#..
.#.#.
#...#
glyph y
.....
#...#
#...#
.####
....#
#...#
.###.
glyph z
.....
.....
#####
...#.
..#..
.#...
#####
glyph {
...##
..#..
..#..
.#...
..#..
..#..
...##
glyph |
..#..
..#..
..#..
..#..
..#..
..#..
..#..
glyph }
##...
..#..
..#..
...#.
..#..
..#..
##...
glyph ~
.....
.....
.#...
#.#.#
...#.
.....
.....
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fb::Framebuffer;

    #[test]
    fn all_printable_ascii_has_glyphs() {
        let table = glyph_table();
        for code in 32u8..=126 {
            let ch = code as char;
            assert!(table.contains_key(&ch), "missing glyph for {ch:?}");
        }
        assert_eq!(table.len(), 95);
    }

    #[test]
    fn glyph_pixel_access() {
        let table = glyph_table();
        let bang = table.get(&'!').unwrap();
        assert!(bang.pixel(2, 0));
        assert!(!bang.pixel(0, 0));
        assert!(!bang.pixel(2, 5));
        assert!(bang.pixel(2, 6));
        // Out of range is false, not a panic.
        assert!(!bang.pixel(-1, 0));
        assert!(!bang.pixel(0, 99));
    }

    #[test]
    fn proportional_vs_fixed_width() {
        let andy = FontDesc::default_body();
        let fixed = FontDesc::fixed();
        // 'i' is narrower than 'M' proportionally, equal when fixed.
        assert!(andy.char_width('i') < andy.char_width('M'));
        assert_eq!(fixed.char_width('i'), fixed.char_width('M'));
        assert_eq!(
            andy.string_width("iM"),
            andy.char_width('i') + andy.char_width('M')
        );
    }

    #[test]
    fn width_table_matches_uncached_measurement() {
        for desc in [
            FontDesc::default_body(),
            FontDesc::fixed(),
            FontDesc::new("andy", FontStyle::BOLD, 20),
            FontDesc::new("andy", FontStyle::ITALIC, 34),
        ] {
            let table = desc.width_table();
            for code in 0u32..128 {
                let ch = char::from_u32(code).unwrap();
                assert_eq!(
                    table.advance(ch),
                    desc.char_width_uncached(ch),
                    "{desc} {ch:?}"
                );
            }
            // Non-ASCII falls back to the hollow-box cell width.
            assert_eq!(
                table.advance('\u{FFFC}'),
                desc.char_width_uncached('\u{FFFC}')
            );
            assert_eq!(table.advance('é'), desc.char_width_uncached('é'));
        }
    }

    #[test]
    fn width_table_is_shared_across_lookups() {
        let desc = FontDesc::new("andy", FontStyle::UNDERLINE, 26);
        let a = desc.width_table();
        let b = desc.width_table();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn scale_follows_size() {
        assert_eq!(FontDesc::new("andy", FontStyle::PLAIN, 8).scale(), 1);
        assert_eq!(FontDesc::new("andy", FontStyle::PLAIN, 12).scale(), 1);
        assert_eq!(FontDesc::new("andy", FontStyle::PLAIN, 20).scale(), 2);
        assert_eq!(FontDesc::new("andy", FontStyle::PLAIN, 34).scale(), 3);
    }

    #[test]
    fn metrics_scale_linearly() {
        let m1 = FontDesc::new("andy", FontStyle::PLAIN, 10).metrics();
        let m2 = FontDesc::new("andy", FontStyle::PLAIN, 20).metrics();
        assert_eq!(m2.ascent, 2 * m1.ascent);
        assert_eq!(m2.line_height, 2 * m1.line_height);
    }

    #[test]
    fn draw_renders_ink() {
        let mut fb = Framebuffer::new(60, 12, Color::WHITE);
        let w = BitmapFont::draw(
            &mut fb,
            Point::new(1, 1),
            "Hi",
            &FontDesc::default_body(),
            Color::BLACK,
        );
        assert!(w > 0);
        assert!(fb.count_pixels(fb.bounds(), Color::BLACK) > 10);
    }

    #[test]
    fn bold_has_more_ink_than_plain() {
        let mut plain = Framebuffer::new(80, 12, Color::WHITE);
        let mut bold = Framebuffer::new(80, 12, Color::WHITE);
        let d = FontDesc::default_body();
        let db = FontDesc::new("andy", FontStyle::BOLD, 12);
        BitmapFont::draw(&mut plain, Point::new(0, 0), "AB", &d, Color::BLACK);
        BitmapFont::draw(&mut bold, Point::new(0, 0), "AB", &db, Color::BLACK);
        assert!(
            bold.count_pixels(bold.bounds(), Color::BLACK)
                > plain.count_pixels(plain.bounds(), Color::BLACK)
        );
    }

    #[test]
    fn underline_draws_rule_under_text() {
        let mut fb = Framebuffer::new(40, 14, Color::WHITE);
        let d = FontDesc::new("andy", FontStyle::UNDERLINE, 10);
        BitmapFont::draw(&mut fb, Point::new(0, 0), "ab", &d, Color::BLACK);
        // The rule row (y = 8) is fully inked across the advance.
        let width = d.string_width("ab");
        assert_eq!(
            fb.count_pixels(Rect::new(0, 8, width, 1), Color::BLACK) as i32,
            width
        );
    }

    #[test]
    fn string_width_matches_draw_advance() {
        let mut fb = Framebuffer::new(200, 20, Color::WHITE);
        let d = FontDesc::default_body();
        let text = "The Andrew Toolkit";
        let adv = BitmapFont::draw(&mut fb, Point::new(0, 0), text, &d, Color::BLACK);
        assert_eq!(adv, d.string_width(text));
    }

    #[test]
    fn unknown_char_renders_box() {
        let mut fb = Framebuffer::new(20, 12, Color::WHITE);
        BitmapFont::draw(
            &mut fb,
            Point::new(0, 0),
            "\u{00e9}",
            &FontDesc::default_body(),
            Color::BLACK,
        );
        assert!(fb.count_pixels(fb.bounds(), Color::BLACK) > 0);
    }

    #[test]
    fn baseline_draw_puts_ink_above_baseline() {
        let mut fb = Framebuffer::new(30, 30, Color::WHITE);
        let d = FontDesc::default_body();
        BitmapFont::draw_baseline(&mut fb, Point::new(0, 20), "A", &d, Color::BLACK);
        // 'A' has no descender: all ink strictly above y=20.
        assert_eq!(fb.count_pixels(Rect::new(0, 20, 30, 10), Color::BLACK), 0);
        assert!(fb.count_pixels(Rect::new(0, 0, 30, 20), Color::BLACK) > 0);
    }
}
