//! E13 — end-to-end frame latency attribution (the observability story
//! for §2's update pipeline: where does a keystroke's frame time go?).
//!
//! Series:
//! * `attribution/` — one full typing-profile loadgen run over the
//!   in-memory transport with frame tracing on (`traced`) vs off
//!   (`untraced`); the pair is the attribution-overhead ablation.
//! * `stats/` — the same run with the post-run `Stats` wire probe, so
//!   snapshot merging and JSON export are on the measured path.
//!
//! The headline printed outside criterion is the per-stage ~p50/~p99
//! breakdown (decode → apply → settle → paint → diff → ship) from the
//! server-wide merged histograms, plus the traced-vs-untraced frames/s
//! delta the acceptance bar asks to stay within 5%.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use atk_serve::{run_loadgen, LoadConfig, Profile};

fn typing_cfg(frame_trace: bool) -> LoadConfig {
    let mut cfg = LoadConfig {
        sessions: 4,
        steps: 60,
        scene: "fig5".into(),
        profile: Profile::Typing,
        ..LoadConfig::default()
    };
    cfg.server.session.frame_trace = frame_trace;
    cfg
}

fn bench_attribution(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13/attribution");
    g.sample_size(10);
    for (label, frame_trace) in [("traced", true), ("untraced", false)] {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            let cfg = typing_cfg(frame_trace);
            b.iter(|| {
                let report = run_loadgen(black_box(&cfg)).unwrap();
                assert!(report.errors.is_empty(), "{:?}", report.errors);
                report
            })
        });
    }
    g.finish();
}

fn bench_stats_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13/stats");
    g.sample_size(10);
    g.bench_function("probe", |b| {
        let mut cfg = typing_cfg(true);
        cfg.stats_probe = true;
        b.iter(|| {
            let report = run_loadgen(black_box(&cfg)).unwrap();
            assert!(report.stats_reply.is_some());
            report
        })
    });
    g.finish();
}

/// Median frames/s over interleaved traced/untraced runs — pairing the
/// runs cancels machine drift, the median sheds scheduler outliers.
fn ablation_frames_per_s(pairs: usize) -> (f64, f64) {
    let (on_cfg, off_cfg) = (typing_cfg(true), typing_cfg(false));
    let mut on = Vec::with_capacity(pairs);
    let mut off = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        on.push(run_loadgen(&on_cfg).unwrap().frames_per_s);
        off.push(run_loadgen(&off_cfg).unwrap().frames_per_s);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    (median(&mut on), median(&mut off))
}

/// The acceptance headline: the stage breakdown on the typing profile,
/// and the cost of collecting it.
fn print_headline() {
    let traced = run_loadgen(&typing_cfg(true)).unwrap();
    assert!(traced.errors.is_empty(), "{:?}", traced.errors);
    assert!(
        !traced.stage_us.is_empty(),
        "typing run must produce stage histograms"
    );
    let breakdown: Vec<String> = traced
        .stage_us
        .iter()
        .map(|(name, p50, p99)| format!("{name} {p50}/{p99}"))
        .collect();
    println!(
        "e13 headline: typing fig5 stage ~p50/~p99 us: {}",
        breakdown.join(" | ")
    );

    let (on, off) = ablation_frames_per_s(5);
    let delta_pct = (on - off).abs() / off.max(1e-9) * 100.0;
    println!(
        "e13 ablation: frames/s traced {on:.0} vs untraced {off:.0} \
         ({delta_pct:.1}% median delta; bar: within 5%)"
    );
}

fn benches_with_headline(c: &mut Criterion) {
    print_headline();
    bench_attribution(c);
    bench_stats_probe(c);
}

criterion_group!(benches, benches_with_headline);
criterion_main!(benches);
