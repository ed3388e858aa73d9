//! E15 — the event-driven shard engine across shard counts.
//!
//! The server's dispatch question: N worker shards, each one thread
//! hosting many sessions behind a poll-style readiness loop. The
//! baseline that gave every connection its own OS thread is gone; its
//! number stays in EXPERIMENTS.md E15.
//!
//! Series:
//! * `dispatch/` — one full loadgen fleet (connect, replay, goodbye)
//!   over the in-memory transport at 1, 2, 4, and 8 shards; sessions/s
//!   is the criterion throughput.
//! * The headline printed outside criterion: saturation sessions/s and
//!   client p99 per shard count on the same fleet.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use atk_serve::{run_loadgen, LoadConfig, Profile};

const FLEET: usize = 32;

fn fleet_cfg(shards: usize) -> LoadConfig {
    let mut cfg = LoadConfig {
        sessions: FLEET,
        steps: 20,
        scene: "fig1".into(),
        profile: Profile::Mixed,
        shards,
        ..LoadConfig::default()
    };
    cfg.server.max_sessions = FLEET;
    cfg
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("e15/dispatch");
    g.sample_size(10);
    g.throughput(Throughput::Elements(FLEET as u64));
    for shards in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            let cfg = fleet_cfg(shards);
            b.iter(|| {
                let report = run_loadgen(black_box(&cfg)).unwrap();
                assert_eq!(report.completed, FLEET, "errors: {:?}", report.errors);
                report
            })
        });
    }
    g.finish();
}

/// The E15 table: sessions/s and client p99 per shard count.
fn print_headline() {
    println!("e15 headline: {FLEET}-session mixed fleet on fig1, per shard count:");
    for shards in [1usize, 2, 4, 8] {
        let report = run_loadgen(&fleet_cfg(shards)).unwrap();
        assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
        println!(
            "  {shards} shard(s): {:7.1} sessions/s, p99 {:.2} ms",
            report.sessions_per_s,
            report.p99_us as f64 / 1000.0,
        );
    }
}

fn benches_with_headline(c: &mut Criterion) {
    print_headline();
    bench_dispatch(c);
}

criterion_group!(benches, benches_with_headline);
criterion_main!(benches);
