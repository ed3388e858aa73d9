//! Low-level graphics substrate for the Andrew Toolkit reproduction.
//!
//! The 1988 toolkit drew through a *drawable* abstraction (paper §4) whose
//! operations were "similar to those provided by the X.11 window system".
//! The real display hardware and X server are out of scope here; this
//! crate supplies the substrate both simulated window systems render into:
//!
//! * integer [`geom`]etry: points, sizes, rectangles;
//! * X-style banded [`region`]s for clipping and damage accumulation;
//! * a [`color`] model (the toolkit era was monochrome-first; we keep RGB
//!   but provide the classic black/white constants);
//! * a software [`fb`] (framebuffer) rasterizer: lines, rectangles, ovals,
//!   polygons, blits, all clipped by rect or region;
//! * bitmap [`font`]s with the family/style/size model of `fontdesc`;
//! * [`ppm`] writers so snapshots (the paper's figures 2–5) can be saved
//!   and inspected.
//!
//! Everything in this crate is deterministic and pure-CPU so tests and
//! benchmarks are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod color;
pub mod fb;
pub mod font;
pub mod geom;
pub mod ppm;
pub mod region;

pub use color::Color;
pub use fb::{band_copies, Framebuffer, RasterOp, BAND_ROWS};
pub use font::{BitmapFont, FontDesc, FontMetrics, FontStyle, WidthTable};
pub use geom::{Point, Rect, Size};
pub use region::Region;
