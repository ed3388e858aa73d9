//! PPM/PGM image writers for framebuffer snapshots.
//!
//! The paper's figures 2–5 are screen snapshots; our reproduction renders
//! the same scenes into framebuffers and saves them with these writers so
//! they can be inspected with any image viewer.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::fb::Framebuffer;

/// Writes `fb` as a binary PPM (P6) file.
pub fn write_ppm(fb: &Framebuffer, path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    write_ppm_to(fb, &mut w)
}

/// Writes `fb` as a binary PPM (P6) stream.
pub fn write_ppm_to(fb: &Framebuffer, w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "P6\n{} {}\n255", fb.width(), fb.height())?;
    let mut row = Vec::with_capacity(fb.width() as usize * 3);
    for y in 0..fb.height() {
        row.clear();
        for x in 0..fb.width() {
            let c = fb.get(x, y);
            row.extend_from_slice(&[c.r(), c.g(), c.b()]);
        }
        w.write_all(&row)?;
    }
    w.flush()
}

/// Writes `fb` as a binary PGM (P5, grayscale via luma) file.
pub fn write_pgm(fb: &Framebuffer, path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "P5\n{} {}\n255", fb.width(), fb.height())?;
    let mut row = Vec::with_capacity(fb.width() as usize);
    for y in 0..fb.height() {
        row.clear();
        for x in 0..fb.width() {
            row.push(fb.get(x, y).luma());
        }
        w.write_all(&row)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use crate::geom::Rect;

    #[test]
    fn ppm_header_and_size() {
        let mut fb = Framebuffer::new(3, 2, Color::WHITE);
        fb.fill_rect(Rect::new(0, 0, 1, 1), Color::BLACK);
        let mut out = Vec::new();
        write_ppm_to(&fb, &mut out).unwrap();
        assert!(out.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(out.len(), b"P6\n3 2\n255\n".len() + 3 * 2 * 3);
        // First pixel is black, second white.
        let body = &out[b"P6\n3 2\n255\n".len()..];
        assert_eq!(&body[0..3], &[0, 0, 0]);
        assert_eq!(&body[3..6], &[255, 255, 255]);
    }

    #[test]
    fn files_round_trip_to_disk() {
        let dir = std::env::temp_dir().join(format!("atk_ppm_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fb = Framebuffer::new(4, 4, Color::GRAY);
        let p1 = dir.join("t.ppm");
        let p2 = dir.join("t.pgm");
        write_ppm(&fb, &p1).unwrap();
        write_pgm(&fb, &p2).unwrap();
        assert!(std::fs::metadata(&p1).unwrap().len() > 0);
        assert!(std::fs::metadata(&p2).unwrap().len() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
