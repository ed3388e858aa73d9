//! E14 — full-window paint and the compressed wire.
//!
//! Series:
//! * `paint` — one fig5-sized full-window repaint (a mix of fills,
//!   text, lines, ovals, wedges and a polygon) drawn straight into a
//!   framebuffer, as the immediate-mode backend does.
//! * `diff/` — diffing one fig5 keystroke's frame against the frame
//!   before it, over the whole 560×560 frame (`full`) vs over the rect
//!   the window reports written (`written`), which is what serving
//!   runs. Both build the same region.
//! * `codec/` — the fig5 initial keyframe (the frame every `Hello`
//!   ships) through the packed encoder (`encode`) and back through
//!   `ServerFrame::decode` (`decode`).
//!
//! Headlines printed outside criterion: the full-window repaint time,
//! the keystroke diff over the full frame vs the written rect, the
//! typing-profile bytes-on-wire ratio raw ÷ encoded from one loadgen
//! run (bar: ≥2×), and the fig5 keyframe's encoded bytes, encode and
//! decode time next to a plain copy of the same frame for scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use atk_apps::scenes::build_scene;
use atk_graphics::{BitmapFont, Color, FontDesc, Framebuffer, Point, Rect};
use atk_serve::{
    run_loadgen_mem, Encoding, HostedSession, LoadConfig, Profile, ServerFrame, SessionConfig,
};
use atk_trace::Collector;
use atk_wm::WindowEvent;

/// Fig5's window is 560×560; one full-window repaint of a compound
/// document is on the order of a few hundred resolved primitives.
const W: i32 = 560;
const H: i32 = 560;

/// A deterministic stand-in for a full-window fig5 repaint: ruled
/// table cells, styled text rows, an equation-ish polygon, an
/// animation wedge — the op mix the ez compound scene actually emits.
/// Returns the number of primitives drawn.
fn fig5_sized_repaint(fb: &mut Framebuffer) -> usize {
    let mut ops = 0;
    fb.fill_rect(Rect::new(0, 0, W, H), Color::WHITE);
    ops += 1;
    let font = FontDesc::default_body();
    // Text body: the document is mostly glyphs — 43 visible lines, and
    // each line lands as several styled runs (the ez compound doc
    // re-rasterizes runs per style change), so ~5 text ops per line.
    for row in 0..43 {
        for run in 0..5 {
            BitmapFont::draw(
                fb,
                Point::new(8 + run * 110, 4 + row * 13),
                "the quick brown fox jumps over the lazy dog 0123456789 ",
                &font,
                Color::BLACK,
            );
            ops += 1;
        }
    }
    // Table rules: a 12×8 grid of cells.
    for i in 0..=12 {
        let x = 40 + i * 40;
        fb.draw_line(Point::new(x, 180), Point::new(x, 420), 1, Color::BLACK);
        ops += 1;
    }
    for j in 0..=8 {
        let y = 180 + j * 30;
        fb.draw_line(Point::new(40, y), Point::new(520, y), 1, Color::BLACK);
        ops += 1;
    }
    // Cell contents.
    for i in 0..12 {
        for j in 0..8 {
            let origin = Point::new(46 + i * 40, 186 + j * 30);
            BitmapFont::draw(
                fb,
                origin,
                &format!("{}", (i + 1) * (j + 1)),
                &font,
                Color::BLACK,
            );
            ops += 1;
        }
    }
    // The embedded animation and equation.
    for k in 0..12 {
        let (start, color) = ((k * 30) as f64, Color(0xFF3366 + k as u32 * 11));
        fb.fill_wedge(Rect::new(420, 440, 100, 100), start, start + 20.0, color);
        let oval = Rect::new(30 + k * 20, 450, 18, 18);
        if k % 2 == 0 {
            fb.fill_oval(oval, Color::BLACK);
        } else {
            fb.draw_oval(oval, Color::BLACK);
        }
        ops += 2;
    }
    let pts = [
        Point::new(200, 450),
        Point::new(260, 470),
        Point::new(240, 530),
        Point::new(180, 520),
    ];
    fb.fill_polygon(&pts, Color::LIGHT_GRAY);
    ops + 1
}

fn bench_paint(c: &mut Criterion) {
    let mut fb = Framebuffer::new(W, H, Color::WHITE);
    c.bench_function("e14/paint", |b| {
        b.iter(|| fig5_sized_repaint(black_box(&mut fb)))
    });
}

/// One fig5 keystroke, as serving sees it: the frame before and after
/// typing a character into the focused text view (which already holds
/// a few words), and the rect the window reports written in between.
fn fig5_keystroke() -> (Framebuffer, Framebuffer, Rect) {
    let mut scene = build_scene("fig5", "x11sim").unwrap();
    let (world, im) = (&mut scene.world, &mut scene.im);
    let mut events = vec![WindowEvent::left_down(70, 70), WindowEvent::left_up(70, 70)];
    events.extend("a few words ".chars().map(WindowEvent::ch));
    for ev in events {
        im.window_mut().post_event(ev);
        im.pump(world);
    }
    let before = im.snapshot().unwrap();
    let _ = im.window_mut().take_written();
    im.window_mut().post_event(WindowEvent::ch('x'));
    im.pump(world);
    let written = im.window_mut().take_written();
    let after = im.snapshot().unwrap();
    let full = before.diff_region_within(&after, after.bounds());
    assert!(
        full.as_ref().is_some_and(|d| !d.is_empty()),
        "the keystroke drew"
    );
    assert_eq!(before.diff_region_within(&after, written), full);
    (before, after, written)
}

fn bench_diff(c: &mut Criterion) {
    let (before, after, written) = fig5_keystroke();
    let mut g = c.benchmark_group("e14/diff");
    for (label, within) in [("full", after.bounds()), ("written", written)] {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| before.diff_region_within(black_box(&after), black_box(within)))
        });
    }
    g.finish();
}

/// The fig5 initial keyframe and its packed (RLE) body.
fn fig5_keyframe() -> (ServerFrame, Vec<u8>) {
    let mut session =
        HostedSession::open("fig5", SessionConfig::default(), Arc::new(Collector::new())).unwrap();
    let key = session.initial_keyframe();
    let (bytes, encoding) = key.encode_packed();
    assert_eq!(encoding, Encoding::Rle, "the fig5 keyframe compresses");
    assert_eq!(ServerFrame::decode(&bytes).unwrap(), key);
    (key, bytes)
}

fn bench_codec(c: &mut Criterion) {
    let (key, bytes) = fig5_keyframe();
    let mut g = c.benchmark_group("e14/codec");
    g.bench_function("encode", |b| b.iter(|| black_box(&key).encode_packed()));
    g.bench_function("decode", |b| {
        b.iter(|| ServerFrame::decode(black_box(&bytes)).unwrap())
    });
    g.finish();
}

/// Median of `n` timed calls of `f`, microseconds.
fn median_us<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The acceptance headlines: the full-window repaint, the keystroke
/// diff, the typing-profile bytes-on-wire ratio, and the keyframe
/// codec.
fn print_headline() {
    let mut fb = Framebuffer::new(W, H, Color::WHITE);
    let mut ops = 0;
    let mut samples = Vec::with_capacity(9);
    for _ in 0..9 {
        let t0 = Instant::now();
        ops = fig5_sized_repaint(&mut fb);
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        black_box(&fb);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    println!(
        "e14 headline: fig5-sized repaint {ops} ops: {:.0} us serial",
        samples[samples.len() / 2]
    );

    let (before, after, written) = fig5_keystroke();
    let diff_us = |within: Rect| median_us(31, || before.diff_region_within(&after, within));
    println!(
        "e14 headline: fig5 keystroke diff: full {W}x{H} {:.1} us vs written \
         {}x{} {:.1} us",
        diff_us(after.bounds()),
        written.width,
        written.height,
        diff_us(written)
    );

    let typing = run_loadgen_mem(&LoadConfig {
        sessions: 4,
        steps: 60,
        scene: "fig5".into(),
        profile: Profile::Typing,
        ..LoadConfig::default()
    })
    .unwrap();
    assert!(typing.errors.is_empty(), "{:?}", typing.errors);
    println!(
        "e14 headline: typing fig5 wire: {} raw bytes -> {} encoded \
         ({:.1}x; bar: >=2x)",
        typing.bytes_on_wire, typing.encoded_bytes, typing.encode_ratio
    );

    let (key, bytes) = fig5_keyframe();
    let ServerFrame::Keyframe { frame, .. } = &key else {
        unreachable!("initial_keyframe builds a keyframe");
    };
    println!(
        "e14 headline: fig5 keyframe codec: {} raw bytes -> {} encoded; \
         encode {:.0} us, decode {:.0} us; plain frame copy {:.0} us",
        key.wire_len(),
        bytes.len(),
        median_us(31, || key.encode_packed()),
        median_us(31, || ServerFrame::decode(&bytes).unwrap()),
        median_us(31, || frame.pixels().to_vec())
    );
}

fn benches_with_headline(c: &mut Criterion) {
    print_headline();
    bench_paint(c);
    bench_diff(c);
    bench_codec(c);
}

criterion_group!(benches, benches_with_headline);
criterion_main!(benches);
