//! The raster component: 1-bit bitmap images.
//!
//! Rasters are the paper's example of an external representation that
//! cannot be "understandable" text, but can still be *slightly* humane:
//! "the raster format could make sure the bits representing a new row
//! always begin on a new line" (§5). [`RasterData`]'s serialization does
//! exactly that — a header line, then one hex line per pixel row.

use std::any::Any;
use std::io;

use atk_graphics::{Color, Framebuffer, Point, Rect, Size};
use atk_wm::{Button, Graphic, MouseAction};

use atk_core::{
    ChangeRec, DataId, DataObject, DatastreamReader, DatastreamWriter, DsError, MenuItem,
    ObserverRef, Token, Update, View, ViewBase, ViewId, World,
};

/// A 1-bit bitmap.
///
/// The pixel payload lives behind an `Arc` so template forks share it
/// copy-on-write: a forked session pays for the bits only when it first
/// paints into them.
#[derive(Clone)]
pub struct RasterData {
    width: i32,
    height: i32,
    /// Row-major bits, one byte per 8 pixels, MSB first, rows padded to a
    /// byte boundary.
    bits: std::sync::Arc<Vec<u8>>,
}

impl RasterData {
    /// An all-white raster.
    pub fn new(width: i32, height: i32) -> RasterData {
        let width = width.max(0);
        let height = height.max(0);
        let rowbytes = ((width + 7) / 8) as usize;
        RasterData {
            width,
            height,
            bits: std::sync::Arc::new(vec![0; rowbytes * height as usize]),
        }
    }

    /// Builds a raster from a predicate (used by the demo corpus: the
    /// "big cat" of figure 4 is generated, not scanned).
    pub fn from_fn(width: i32, height: i32, f: impl Fn(i32, i32) -> bool) -> RasterData {
        let mut r = RasterData::new(width, height);
        for y in 0..height {
            for x in 0..width {
                if f(x, y) {
                    r.set(x, y, true);
                }
            }
        }
        r
    }

    /// Width in pixels.
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> i32 {
        self.height
    }

    fn rowbytes(&self) -> usize {
        ((self.width + 7) / 8) as usize
    }

    /// The bit at `(x, y)` (false outside).
    pub fn get(&self, x: i32, y: i32) -> bool {
        if x < 0 || y < 0 || x >= self.width || y >= self.height {
            return false;
        }
        let idx = y as usize * self.rowbytes() + (x / 8) as usize;
        self.bits[idx] & (0x80 >> (x % 8)) != 0
    }

    /// Sets the bit at `(x, y)`.
    pub fn set(&mut self, x: i32, y: i32, on: bool) {
        if x < 0 || y < 0 || x >= self.width || y >= self.height {
            return;
        }
        let rb = self.rowbytes();
        let idx = y as usize * rb + (x / 8) as usize;
        let bits = std::sync::Arc::make_mut(&mut self.bits);
        if on {
            bits[idx] |= 0x80 >> (x % 8);
        } else {
            bits[idx] &= !(0x80 >> (x % 8));
        }
    }

    /// Toggles a pixel, returning a change record.
    pub fn toggle(&mut self, x: i32, y: i32) -> ChangeRec {
        let v = self.get(x, y);
        self.set(x, y, !v);
        ChangeRec::Element {
            index: (y.max(0) as usize) * self.width.max(1) as usize + x.max(0) as usize,
        }
    }

    /// Inverts every pixel.
    pub fn invert(&mut self) -> ChangeRec {
        let rb = self.rowbytes();
        let pad = (rb * 8) as i32 - self.width;
        let height = self.height as usize;
        let bits = std::sync::Arc::make_mut(&mut self.bits);
        for b in bits.iter_mut() {
            *b = !*b;
        }
        // Mask padding bits in the last byte of each row back to zero.
        if pad > 0 {
            let mask = !(((1u16 << pad) - 1) as u8);
            for y in 0..height {
                bits[y * rb + rb - 1] &= mask;
            }
        }
        ChangeRec::Full
    }

    /// Count of set pixels.
    pub fn population(&self) -> usize {
        (0..self.height)
            .flat_map(|y| (0..self.width).map(move |x| (x, y)))
            .filter(|&(x, y)| self.get(x, y))
            .count()
    }

    /// Renders into a framebuffer at 1:1.
    pub fn to_framebuffer(&self) -> Framebuffer {
        let mut fb = Framebuffer::new(self.width, self.height, Color::WHITE);
        for y in 0..self.height {
            for x in 0..self.width {
                if self.get(x, y) {
                    fb.set(x, y, Color::BLACK);
                }
            }
        }
        fb
    }
}

impl DataObject for RasterData {
    fn class_name(&self) -> &'static str {
        "raster"
    }

    fn write_body(&self, w: &mut DatastreamWriter, _world: &World) -> io::Result<()> {
        w.write_line(&format!("raster {} {}", self.width, self.height))?;
        let rb = self.rowbytes();
        for y in 0..self.height as usize {
            // One row per logical line — the paper's §5 suggestion; the
            // writer's 80-column wrapping handles very wide rows.
            let row = &self.bits[y * rb..(y + 1) * rb];
            let hex: String = row.iter().map(|b| format!("{b:02x}")).collect();
            w.write_line(&hex)?;
        }
        Ok(())
    }

    fn read_body(
        &mut self,
        r: &mut DatastreamReader<'_>,
        _world: &mut World,
    ) -> Result<(), DsError> {
        let bad = |l: &str| DsError::Malformed(format!("raster body: {l}"));
        let mut rows_read = 0usize;
        loop {
            let tok = r.next_token()?.ok_or(DsError::UnexpectedEof)?;
            match tok {
                Token::EndData { .. } => break,
                Token::Line(line) => {
                    if let Some(rest) = line.strip_prefix("raster ") {
                        let mut words = rest.split_whitespace();
                        let w: i32 = words
                            .next()
                            .and_then(|x| x.parse().ok())
                            .ok_or_else(|| bad(&line))?;
                        let h: i32 = words
                            .next()
                            .and_then(|x| x.parse().ok())
                            .ok_or_else(|| bad(&line))?;
                        *self = RasterData::new(w, h);
                    } else {
                        // A hex row.
                        if rows_read >= self.height as usize {
                            return Err(bad(&line));
                        }
                        let rb = self.rowbytes();
                        if line.len() != rb * 2 {
                            return Err(bad(&line));
                        }
                        let bits = std::sync::Arc::make_mut(&mut self.bits);
                        for i in 0..rb {
                            let byte = u8::from_str_radix(&line[i * 2..i * 2 + 2], 16)
                                .map_err(|_| bad(&line))?;
                            bits[rows_read * rb + i] = byte;
                        }
                        rows_read += 1;
                    }
                }
                other => return Err(DsError::Malformed(format!("raster body token: {other:?}"))),
            }
        }
        Ok(())
    }

    fn fork(&self) -> Option<Box<dyn DataObject>> {
        Some(Box::new(self.clone()))
    }

    fn shared_payload_bytes(&self) -> u64 {
        self.bits.len() as u64
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The raster view: scaled display and pixel painting.
#[derive(Clone)]
pub struct RasterView {
    base: ViewBase,
    data: Option<DataId>,
    /// Integer magnification.
    pub zoom: i32,
}

impl RasterView {
    /// An unbound raster view at 1:1.
    pub fn new() -> RasterView {
        RasterView {
            base: ViewBase::new(),
            data: None,
            zoom: 1,
        }
    }

    /// Changes the magnification. The view's desired size changes with
    /// it, so the parent is asked to lay it out again (the toolkit's
    /// `WantNewSize`): a text view holding the raster as an inset
    /// re-wraps the line around it.
    fn set_zoom(&mut self, world: &mut World, zoom: i32) {
        if zoom == self.zoom {
            return;
        }
        self.zoom = zoom;
        world.post_damage_full(self.base.id);
        if let Some(parent) = world.view_parent(self.base.id) {
            world.post_command(parent, "want-new-size");
        }
    }
}

impl Default for RasterView {
    fn default() -> Self {
        RasterView::new()
    }
}

impl View for RasterView {
    fn class_name(&self) -> &'static str {
        "rasterview"
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

    fn set_data_object(&mut self, world: &mut World, data: DataId) -> bool {
        if let Some(old) = self.data {
            world.remove_observer(old, ObserverRef::View(self.base.id));
        }
        self.data = Some(data);
        world.add_observer(data, ObserverRef::View(self.base.id));
        world.post_damage_full(self.base.id);
        true
    }

    fn desired_size(&mut self, world: &mut World, _budget: i32) -> Size {
        self.data
            .and_then(|d| world.data::<RasterData>(d))
            .map(|r| Size::new(r.width() * self.zoom + 2, r.height() * self.zoom + 2))
            .unwrap_or(Size::new(34, 34))
    }

    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, _update: Update) {
        let Some(raster) = self.data.and_then(|d| world.data::<RasterData>(d)) else {
            return;
        };
        if self.zoom == 1 {
            let fb = raster.to_framebuffer();
            g.bitblt(&fb, fb.bounds(), Point::new(1, 1));
        } else {
            g.set_foreground(Color::BLACK);
            for y in 0..raster.height() {
                for x in 0..raster.width() {
                    if raster.get(x, y) {
                        g.fill_rect(Rect::new(
                            1 + x * self.zoom,
                            1 + y * self.zoom,
                            self.zoom,
                            self.zoom,
                        ));
                    }
                }
            }
        }
        let size = world.view_bounds(self.base.id).size();
        g.set_foreground(Color::GRAY);
        g.draw_rect(Rect::at(Point::ORIGIN, size));
    }

    fn mouse(&mut self, world: &mut World, action: MouseAction, pt: Point) -> bool {
        let Some(data_id) = self.data else {
            return false;
        };
        match action {
            MouseAction::Down(Button::Left) | MouseAction::Drag(Button::Left) => {
                let x = (pt.x - 1) / self.zoom.max(1);
                let y = (pt.y - 1) / self.zoom.max(1);
                let rec = world
                    .data_mut::<RasterData>(data_id)
                    .map(|r| r.toggle(x, y));
                if let Some(rec) = rec {
                    world.notify(data_id, rec);
                }
                world.request_focus(self.base.id);
                true
            }
            MouseAction::Up(Button::Left) => true,
            _ => false,
        }
    }

    fn perform(&mut self, world: &mut World, command: &str) -> bool {
        let Some(data_id) = self.data else {
            return false;
        };
        match command {
            "raster-invert" => {
                let rec = world.data_mut::<RasterData>(data_id).map(|r| r.invert());
                if let Some(rec) = rec {
                    world.notify(data_id, rec);
                }
                true
            }
            "raster-zoom-in" => {
                self.set_zoom(world, (self.zoom + 1).min(8));
                true
            }
            "raster-zoom-out" => {
                self.set_zoom(world, (self.zoom - 1).max(1));
                true
            }
            _ => false,
        }
    }

    fn menus(&self, _world: &World) -> Vec<MenuItem> {
        vec![
            MenuItem::new("Raster", "Invert", "raster-invert"),
            MenuItem::new("Raster", "Zoom In", "raster-zoom-in"),
            MenuItem::new("Raster", "Zoom Out", "raster-zoom-out"),
        ]
    }

    fn observed_changed(&mut self, world: &mut World, _s: DataId, change: &ChangeRec) {
        match change {
            ChangeRec::Element { index } => {
                // Damage just the touched pixel's screen square.
                let w = self
                    .data
                    .and_then(|d| world.data::<RasterData>(d))
                    .map(|r| r.width().max(1))
                    .unwrap_or(1);
                let x = (*index as i32 % w) * self.zoom + 1;
                let y = (*index as i32 / w) * self.zoom + 1;
                world.post_damage(
                    self.base.id,
                    Rect::new(x, y, self.zoom.max(1), self.zoom.max(1)),
                );
            }
            _ => world.post_damage_full(self.base.id),
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_bounds() {
        let mut r = RasterData::new(10, 5);
        r.set(0, 0, true);
        r.set(9, 4, true);
        r.set(100, 100, true); // Silently clipped.
        assert!(r.get(0, 0));
        assert!(r.get(9, 4));
        assert!(!r.get(5, 2));
        assert!(!r.get(-1, 0));
        assert_eq!(r.population(), 2);
    }

    #[test]
    fn toggle_and_invert() {
        let mut r = RasterData::new(9, 3); // Width not a byte multiple.
        r.toggle(4, 1);
        assert!(r.get(4, 1));
        r.toggle(4, 1);
        assert!(!r.get(4, 1));
        r.set(0, 0, true);
        r.invert();
        assert!(!r.get(0, 0));
        assert_eq!(r.population(), 9 * 3 - 1);
        // Padding bits must not leak into population after invert.
    }

    #[test]
    fn from_fn_builds_patterns() {
        let checker = RasterData::from_fn(8, 8, |x, y| (x + y) % 2 == 0);
        assert_eq!(checker.population(), 32);
        assert!(checker.get(0, 0));
        assert!(!checker.get(1, 0));
    }

    #[test]
    fn serialization_one_hex_line_per_row() {
        let mut world = World::new();
        world
            .catalog
            .register_data("raster", || Box::new(RasterData::new(1, 1)));
        let r = RasterData::from_fn(16, 4, |x, y| x == y);
        let id = world.insert_data(Box::new(r));
        let doc = atk_core::document_to_string(&world, id);
        assert!(atk_core::audit_stream(&doc).is_empty());
        // Header + 4 hex rows, each its own line (paper §5).
        let hex_lines: Vec<&str> = doc
            .lines()
            .filter(|l| l.len() == 4 && l.chars().all(|c| c.is_ascii_hexdigit()))
            .collect();
        assert_eq!(hex_lines.len(), 4);

        let mut world2 = World::new();
        world2
            .catalog
            .register_data("raster", || Box::new(RasterData::new(1, 1)));
        let id2 = atk_core::read_document(&mut world2, &doc).unwrap();
        let r2 = world2.data::<RasterData>(id2).unwrap();
        assert_eq!((r2.width(), r2.height()), (16, 4));
        assert!(r2.get(2, 2));
        assert!(!r2.get(3, 2));
    }

    #[test]
    fn wide_rows_survive_line_wrapping() {
        let mut world = World::new();
        world
            .catalog
            .register_data("raster", || Box::new(RasterData::new(1, 1)));
        let r = RasterData::from_fn(400, 3, |x, _| x % 7 == 0);
        let pop = r.population();
        let id = world.insert_data(Box::new(r));
        let doc = atk_core::document_to_string(&world, id);
        // Every physical line obeys the 80-column rule.
        assert!(atk_core::audit_stream(&doc).is_empty());
        let mut world2 = World::new();
        world2
            .catalog
            .register_data("raster", || Box::new(RasterData::new(1, 1)));
        let id2 = atk_core::read_document(&mut world2, &doc).unwrap();
        assert_eq!(world2.data::<RasterData>(id2).unwrap().population(), pop);
    }

    #[test]
    fn view_paints_pixels() {
        let mut world = World::new();
        let data = world.insert_data(Box::new(RasterData::new(8, 8)));
        let mut view = RasterView::new();
        view.zoom = 4;
        let vid = world.insert_view(Box::new(view));
        world.with_view(vid, |v, w| v.set_data_object(w, data));
        world.set_view_bounds(vid, Rect::new(0, 0, 34, 34));
        world.with_view(vid, |v, w| {
            v.mouse(w, MouseAction::Down(Button::Left), Point::new(9, 9));
        });
        // Pixel (2,2) toggled.
        assert!(world.data::<RasterData>(data).unwrap().get(2, 2));
    }
}
