//! E11 — serving sessions over the wire (§8 taken one step further:
//! the window system behind the porting layer becomes a *remote*
//! process).
//!
//! Series:
//! * `fleet/` — one full loadgen run (connect, replay, goodbye) over
//!   the in-memory transport at 1, 8, and 64 concurrent sessions,
//!   mixed-profile scripts; sessions/s is the criterion throughput.
//! * `shipping/` — bytes-on-wire for a typing-heavy session with
//!   region diffing vs. the always-keyframe ablation; the headline
//!   printed outside criterion is the compression ratio the
//!   acceptance bar asks for (≥ 5×).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use atk_serve::{run_loadgen_mem, LoadConfig, Profile};

fn fleet_cfg(sessions: usize) -> LoadConfig {
    LoadConfig {
        sessions,
        steps: 30,
        scene: "fig1".into(),
        profile: Profile::Mixed,
        ..LoadConfig::default()
    }
}

fn typing_cfg(keyframe_only: bool) -> LoadConfig {
    let mut cfg = LoadConfig {
        sessions: 4,
        steps: 50,
        scene: "fig5".into(),
        profile: Profile::Typing,
        ..LoadConfig::default()
    };
    if keyframe_only {
        cfg.server.session.keyframe_every = 0;
    }
    cfg
}

fn bench_fleet(c: &mut Criterion) {
    let mut g = c.benchmark_group("e11/fleet");
    g.sample_size(10);
    for sessions in [1usize, 8, 64] {
        g.throughput(Throughput::Elements(sessions as u64));
        g.bench_with_input(
            BenchmarkId::new("mem_sessions", sessions),
            &sessions,
            |b, &sessions| {
                let cfg = fleet_cfg(sessions);
                b.iter(|| {
                    let report = run_loadgen_mem(black_box(&cfg)).unwrap();
                    assert_eq!(report.completed, sessions, "errors: {:?}", report.errors);
                    report
                })
            },
        );
    }
    g.finish();
}

fn bench_shipping(c: &mut Criterion) {
    let mut g = c.benchmark_group("e11/shipping");
    g.sample_size(10);
    for (label, keyframe_only) in [("diff", false), ("keyframe_only", true)] {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            let cfg = typing_cfg(keyframe_only);
            b.iter(|| run_loadgen_mem(black_box(&cfg)).unwrap())
        });
    }
    g.finish();
}

/// The acceptance headline: bytes on the wire, diffing vs. the
/// always-keyframe ablation, on the typing workload.
fn print_headline() {
    let diff = run_loadgen_mem(&typing_cfg(false)).unwrap();
    let keyed = run_loadgen_mem(&typing_cfg(true)).unwrap();
    assert!(diff.errors.is_empty() && keyed.errors.is_empty());
    println!(
        "e11 headline: typing fig5, diff shipping {} bytes vs always-keyframe {} bytes \
         ({:.1}x fewer; client-side ratio {:.1}x)",
        diff.bytes_on_wire,
        keyed.bytes_on_wire,
        keyed.bytes_on_wire as f64 / diff.bytes_on_wire.max(1) as f64,
        diff.compression_ratio,
    );
}

fn benches_with_headline(c: &mut Criterion) {
    print_headline();
    bench_fleet(c);
    bench_shipping(c);
}

criterion_group!(benches, benches_with_headline);
criterion_main!(benches);
