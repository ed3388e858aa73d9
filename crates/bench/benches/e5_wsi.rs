//! E5 — window-system independence (paper §8, §4).
//!
//! Series:
//! * `indirection/` — primitive draw cost straight into the framebuffer
//!   vs. through the Graphic trait (the graphics layer's overhead);
//! * `backends/` — the same full-scene draw on `x11sim` (immediate) and
//!   `awmsim` (record + replay);
//! * `printer/` — the same draw into the PostScript drawable.
//!
//! Expected shape: the layer adds a small constant per op (the paper
//! banked on "simple transformations"); the display-list backend defers
//! cost from record to replay.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use atk_graphics::{Color, Framebuffer, Point, Rect, Size};
use atk_wm::{Graphic, WindowSystem};

const OPS: usize = 200;

fn raw_scene(fb: &mut Framebuffer) {
    for i in 0..OPS {
        let i = i as i32;
        fb.fill_rect(Rect::new(i % 100, (i * 7) % 100, 20, 10), Color::BLACK);
        fb.draw_line(
            Point::new(i % 120, 0),
            Point::new(0, i % 120),
            1,
            Color::GRAY,
        );
    }
}

fn layered_scene(g: &mut dyn Graphic) {
    for i in 0..OPS {
        let i = i as i32;
        g.set_foreground(Color::BLACK);
        g.fill_rect(Rect::new(i % 100, (i * 7) % 100, 20, 10));
        g.set_foreground(Color::GRAY);
        g.draw_line(Point::new(i % 120, 0), Point::new(0, i % 120));
    }
}

fn bench_indirection(c: &mut Criterion) {
    let mut g = c.benchmark_group("e5/indirection");
    g.throughput(Throughput::Elements(2 * OPS as u64));
    g.bench_function("direct_framebuffer", |b| {
        let mut fb = Framebuffer::new(160, 160, Color::WHITE);
        b.iter(|| raw_scene(black_box(&mut fb)))
    });
    g.bench_function("through_graphic_trait", |b| {
        let mut ws = atk_wm::x11sim::X11Sim::new();
        let mut win = ws.open_window("t", Size::new(160, 160));
        b.iter(|| layered_scene(black_box(win.graphic())))
    });
    g.finish();
}

fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("e5/backends");
    g.throughput(Throughput::Elements(2 * OPS as u64));
    for name in ["x11sim", "awmsim"] {
        g.bench_function(format!("{name}/record"), |b| {
            b.iter(|| {
                let mut ws = atk_wm::open_window_system(Some(name)).unwrap();
                let mut win = ws.open_window("t", Size::new(160, 160));
                layered_scene(win.graphic());
                win.op_count()
            })
        });
        g.bench_function(format!("{name}/record_and_pixels"), |b| {
            b.iter(|| {
                let mut ws = atk_wm::open_window_system(Some(name)).unwrap();
                let mut win = ws.open_window("t", Size::new(160, 160));
                layered_scene(win.graphic());
                win.snapshot().width()
            })
        });
    }
    g.finish();
}

fn bench_printer(c: &mut Criterion) {
    let mut g = c.benchmark_group("e5/printer");
    g.throughput(Throughput::Elements(2 * OPS as u64));
    g.bench_function("postscript_drawable", |b| {
        b.iter(|| {
            let mut ps = atk_wm::printer::PostScriptGraphic::new(612, 792);
            layered_scene(&mut ps);
            ps.document().len()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_indirection, bench_backends, bench_printer
}
criterion_main!(benches);
