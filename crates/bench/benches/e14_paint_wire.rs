//! E14 — full-window paint and the compressed wire.
//!
//! Series:
//! * `paint` — one fig5-sized full-window repaint (a mix of fills,
//!   text, lines, ovals, wedges and a polygon) drawn straight into a
//!   framebuffer, as the immediate-mode backend does.
//! * `update/` — what a session does between paint and the wire for
//!   one frame of a fig5 typing script: scan the written band boxes
//!   for the boxes of what changed, then XOR, run-length code and copy
//!   those rows into the baseline in one pass per box
//!   (`XorRect::encode_boxes`), and write the update body. `line` is a
//!   keystroke that wrote one text line (most frames); `window` is the
//!   frame of the script that changed the most, shipped as XOR rects
//!   over everything it wrote and moved — what a newline that moves
//!   every line below it cost before moves shipped on the wire. Each
//!   iteration ships the update
//!   and then its inverse, so the baseline ends where it started; one
//!   update costs half an iteration.
//! * `codec/` — the fig5 initial keyframe (the frame every `Hello`
//!   ships) through the packed encoder (`encode`) and back through
//!   `ServerFrame::decode` (`decode`).
//!
//! Headlines printed outside criterion: the full-window repaint time,
//! the update path on the line and window frames (time and bytes), a
//! fig5 typing session's steps split by kind — a character, a Return,
//! a step that scrolled — with each kind's paint and diff time,
//! pixels the diff scanned (`serve.diff_px`) and update bytes as a
//! served session ships them,
//! the typing-profile bytes-on-wire ratio raw ÷ encoded from one
//! loadgen run (bar: ≥2×), and the fig5 keyframe's encoded bytes,
//! encode and decode time next to a plain copy of the same frame for
//! scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use atk_check::Session;
use atk_core::{ScriptStep, World};
use atk_graphics::{BitmapFont, Color, FontDesc, Framebuffer, Point, Rect, Written};
use atk_serve::loadgen::client_script;
use atk_serve::{
    run_loadgen, Encoding, HostedSession, LoadConfig, Profile, ServerFrame, SessionConfig, XorRect,
};
use atk_trace::{Collector, Stage};
use atk_wm::{Key, WindowEvent};

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

/// One frame as serving sees it: the frame shipped before, the frame
/// after, and what the window reports written in between, its move
/// counted as written where it landed.
type Step = (Framebuffer, Framebuffer, Written);

/// Two frames of a fig5 typing script (the perfbench `edit` script
/// shape: a focus click, then keys): the first keystroke that wrote
/// one text line, and the frame that wrote most of the window and
/// changed the most.
fn fig5_typing_frames() -> (Step, Step) {
    let script = client_script(Profile::Typing, "fig5", 77, 2 + 384).unwrap();
    let mut session = Session::build("fig5", "x11sim").unwrap();
    let mut before = session.im.snapshot().unwrap();
    let _ = session.im.window_mut().take_written();
    let (mut line, mut window): (Option<Step>, Option<(i64, Step)>) = (None, None);
    for step in &script {
        session.apply(step);
        // Everything the frame wrote or moved, band by band.
        let mut written = session.im.window_mut().take_written();
        if let Some(m) = written.moved.take() {
            written.mark(m.dst_rect());
        }
        let after = session.im.snapshot().unwrap();
        let changed = before.changed_boxes(&after, &written).unwrap();
        let area: i64 = changed.iter().map(|r| r.area()).sum();
        if line.is_none() && area > 0 && written.bounds().height <= 40 {
            line = Some((before.clone(), after.clone(), written.clone()));
        }
        let whole = written.area() as i64 * 2 > after.bounds().area();
        if whole && window.as_ref().is_none_or(|(a, _)| area > *a) {
            window = Some((area, (before.clone(), after.clone(), written)));
        }
        before = after;
    }
    (line.unwrap(), window.unwrap().1)
}

/// One frame's update path: the boxes of the change inside the
/// written band boxes, the one-pass encode (which brings `base` up to
/// `cur`) and the update body.
fn ship_update(base: &mut Framebuffer, cur: &Framebuffer, written: &Written) -> Vec<u8> {
    let changed = base.changed_boxes(cur, written).unwrap();
    ServerFrame::Update {
        seq: 1,
        moved: None,
        rects: XorRect::encode_boxes(base, cur, changed, usize::MAX).unwrap(),
    }
    .encode()
}

/// The update from `before` to `after` and back again, on a baseline
/// that starts and ends as `before`.
fn ship_round_trip(base: &mut Framebuffer, (before, after, written): &Step) -> usize {
    ship_update(base, after, written).len() + ship_update(base, before, written).len()
}

fn bench_update(c: &mut Criterion) {
    let (line, window) = fig5_typing_frames();
    let mut g = c.benchmark_group("e14/update");
    for (label, step) in [("line", &line), ("window", &window)] {
        let mut base = step.0.clone();
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| ship_round_trip(black_box(&mut base), step))
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

    let (line, window) = fig5_typing_frames();
    for (label, step) in [("line", &line), ("window", &window)] {
        let (before, after, written) = step;
        let mut base = before.clone();
        let bytes = ship_update(&mut base, after, written).len();
        assert_eq!(
            &base, after,
            "{label}: the update brought the baseline along"
        );
        let changed = before.changed_boxes(after, written).unwrap();
        let changed_px: i64 = changed.iter().map(|r| r.area()).sum();
        let round_trip_us = median_us(31, || ship_round_trip(&mut base, step));
        println!(
            "e14 headline: fig5 {label} update: written {} px in {} bands, \
             changed {changed_px} px in {} boxes, {bytes} bytes, {:.1} us",
            written.area(),
            written.bands.iter().filter(|b| !b.is_empty()).count(),
            changed.len(),
            round_trip_us / 2.0
        );
    }

    print_step_kinds();

    let typing = run_loadgen(&LoadConfig {
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

/// Keys typed after the focus click in the step-kind headline: twice
/// perfbench `edit`'s 384, so the caret passes the view's bottom and
/// later Returns scroll it.
const STEP_KIND_KEYS: usize = 768;

/// The scroll offset of the first text view in `world`.
fn text_scroll(world: &World) -> i32 {
    world
        .view_ids()
        .into_iter()
        .filter_map(|v| world.view_dyn(v))
        .find(|v| v.class_name() == "textview")
        .and_then(|v| v.scroll_info(world))
        .map_or(0, |s| s.offset)
}

/// One kind of step's figures in the step-kind headline.
#[derive(Default)]
struct KindRow {
    kind: &'static str,
    /// Paint and diff stage times, one per step, microseconds.
    paint: Vec<u64>,
    diff: Vec<u64>,
    /// Pixels the diffs scanned and bytes shipped, summed.
    px: u64,
    bytes: u64,
}

/// A fig5 typing session (the perfbench `edit` script shape, made
/// longer) served step by step in process, each step's paint and diff
/// stage time, pixels scanned and update bytes reported by the kind of
/// step: a
/// character, a Return, or a step that scrolled the text view (told
/// apart on an in-process replay, so the split does not depend on how
/// the frame shipped).
fn print_step_kinds() {
    let script = client_script(Profile::Typing, "fig5", 77, 2 + STEP_KIND_KEYS).unwrap();
    let mut probe = Session::build("fig5", "x11sim").unwrap();
    let kinds: Vec<&str> = script
        .iter()
        .map(|step| {
            let before = text_scroll(&probe.world);
            probe.apply(step);
            match step {
                _ if text_scroll(&probe.world) != before => "scroll",
                ScriptStep::Event(WindowEvent::Key(Key::Return)) => "Return",
                ScriptStep::Event(WindowEvent::Key(Key::Char(_))) => "character",
                _ => "click",
            }
        })
        .collect();
    let collector = Arc::new(Collector::new());
    collector.enable();
    let mut session =
        HostedSession::open("fig5", SessionConfig::default(), collector.clone()).unwrap();
    let _ = session.initial_keyframe();
    let scanned = || collector.snapshot().counter("serve.diff_px");
    let mut rows: Vec<KindRow> = Vec::new();
    for (step, kind) in script.iter().zip(kinds) {
        let px = scanned();
        let mut ft = session.begin_frame();
        let (frame, _) = session.apply_batch_traced(std::slice::from_ref(step), 0, &mut ft);
        let rec = session.finish_frame(ft).unwrap();
        let bytes = session.encode_frame(&frame).len() as u64;
        let at = match rows.iter().position(|r| r.kind == kind) {
            Some(at) => at,
            None => {
                rows.push(KindRow {
                    kind,
                    ..KindRow::default()
                });
                rows.len() - 1
            }
        };
        let row = &mut rows[at];
        row.paint.push(rec.stage_us(Stage::Paint));
        row.diff.push(rec.stage_us(Stage::Diff));
        row.px += scanned() - px;
        row.bytes += bytes;
    }
    let median = |v: &mut Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    for KindRow {
        kind,
        mut paint,
        mut diff,
        px,
        bytes,
    } in rows
    {
        let n = paint.len() as u64;
        println!(
            "e14 headline: fig5 typing step kind {kind}: {n} steps, paint p50 {} us, \
             diff p50 {} us, {} px scanned/step, {} B/step",
            median(&mut paint),
            median(&mut diff),
            px / n,
            bytes / n
        );
    }
}

fn benches_with_headline(c: &mut Criterion) {
    print_headline();
    bench_paint(c);
    bench_update(c);
    bench_codec(c);
}

criterion_group!(benches, benches_with_headline);
criterion_main!(benches);
