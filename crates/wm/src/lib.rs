//! Window-system independence layer (paper §4 and §8).
//!
//! The Andrew Toolkit ran unmodified on two window systems — the original
//! ITC/Andrew window manager and X.11 — because everything above this
//! layer drew and received events through exactly **six classes**:
//!
//! > *Window System, Interaction Manager (event source), Cursor, Graphic,
//! > FontDesc, Off Screen Window — "approximately 70 routines. Of those
//! > routines, about 50 … are normally simple transformations to the
//! > graphics layer of the underlying window system."*
//!
//! This crate defines those six classes as traits ([`WindowSystem`],
//! [`Window`] (the interaction-manager event source), [`CursorShape`] /
//! cursor handling, [`Graphic`], the font driver around
//! [`atk_graphics::FontDesc`], and [`OffscreenWindow`]) and supplies two
//! complete backends:
//!
//! * [`x11sim`] — an immediate-mode software rasterizer standing in for
//!   an X.11 server; every operation lands in a framebuffer that can be
//!   snapshotted to PPM;
//! * [`awmsim`] — a display-list backend modelled on the ITC window
//!   manager's network protocol: operations are recorded (and can be
//!   encoded to / decoded from a byte stream, like the wire protocol of
//!   Gosling & Rosenthal's network window manager) and replayed to pixels
//!   on demand.
//!
//! Exactly as in the paper, the backend is chosen **at run time** by the
//! `ATK_WINDOW_SYSTEM` environment variable (see [`open_window_system`]);
//! no application code changes between the two. The [`printer`] module
//! provides the third kind of drawable the paper promises: a PostScript
//! generator a view can be temporarily repointed at to print itself.
//!
//! The porting surface itself is data: [`surface::port_surface`] lists
//! every routine a new backend must supply, and an integration test keeps
//! the count honest against the paper's "about 70".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod awmsim;
pub mod event;
pub mod paint;
pub mod printer;
pub mod surface;
pub mod traits;
pub mod x11sim;

pub use event::{Button, Key, MouseAction, WindowEvent};
pub use paint::PaintStats;
pub use traits::{
    CursorHandle, CursorShape, FontDriver, Graphic, GraphicState, OffscreenWindow, Window,
    WindowSystem,
};

use std::env;

/// Opens a window system by name, or by the `ATK_WINDOW_SYSTEM`
/// environment variable, defaulting to `"x11sim"`.
///
/// This mirrors the paper's §8: "The choice of window system to use is
/// currently controlled by the setting of an environment variable."
///
/// # Errors
///
/// Returns the unrecognized name if it matches no known backend.
pub fn open_window_system(name: Option<&str>) -> Result<Box<dyn WindowSystem>, String> {
    let chosen = match name {
        Some(n) => n.to_string(),
        None => env::var("ATK_WINDOW_SYSTEM").unwrap_or_else(|_| "x11sim".to_string()),
    };
    match chosen.as_str() {
        "x11sim" | "x11" => Ok(Box::new(x11sim::X11Sim::new())),
        "awmsim" | "wm" | "andrew" => Ok(Box::new(awmsim::AwmSim::new())),
        other => Err(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_by_explicit_name() {
        assert_eq!(open_window_system(Some("x11sim")).unwrap().name(), "x11sim");
        assert_eq!(open_window_system(Some("awmsim")).unwrap().name(), "awmsim");
        assert_eq!(open_window_system(Some("andrew")).unwrap().name(), "awmsim");
        assert!(open_window_system(Some("news")).is_err());
    }
}
