//! E17 — session boot: cold `build_scene` vs template fork.
//!
//! The paper's runapp story (§7) is one shared base image every
//! application dynamically loads into; the serving analogue is a
//! pre-warmed template world per `(scene, backend)` that sessions fork
//! from instead of replaying class resolution, datastream parsing, and
//! layout per connection.
//!
//! Series:
//! * `boot/` — per scene: one cold `build_scene` against one
//!   `TemplateRegistry::fork_session` off a warm template. The ratio is
//!   the whole point of the subsystem.
//! * The headline printed outside criterion: the per-scene
//!   cold-vs-fork table (median microseconds and speedup), then a
//!   512-session ramp storm (connect + first keyframe only) with and
//!   without forking — wall time and TTFF percentiles. The same
//!   numbers are emitted as one machine-readable `BENCH_E17_JSON:`
//!   line for `scripts/bench_report.sh` to track across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use atk_apps::scenes::{build_scene, scene_names};
use atk_apps::TemplateRegistry;
use atk_serve::{run_loadgen, LoadConfig, LoadReport, Profile};
use atk_trace::Collector;

const BACKEND: &str = "x11sim";
const RAMP_SESSIONS: usize = 512;

fn bench_boot(c: &mut Criterion) {
    let mut g = c.benchmark_group("e17/boot");
    g.sample_size(10);
    for scene in scene_names() {
        g.bench_with_input(BenchmarkId::new("cold", scene), &scene, |b, scene| {
            b.iter(|| build_scene(black_box(scene), BACKEND).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("fork", scene), &scene, |b, scene| {
            let mut registry = TemplateRegistry::new(Arc::new(Collector::new()));
            registry
                .fork_session(scene, BACKEND)
                .expect("template warms");
            b.iter(|| registry.fork_session(black_box(scene), BACKEND).unwrap())
        });
    }
    g.finish();
}

fn median_us(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time_us(mut f: impl FnMut()) -> u64 {
    let start = Instant::now();
    f();
    start.elapsed().as_micros() as u64
}

fn ramp_cfg(fork: bool) -> LoadConfig {
    let mut cfg = LoadConfig {
        sessions: RAMP_SESSIONS,
        scene: "fig5".into(),
        profile: Profile::Mixed,
        shards: 4,
        ramp: true,
        ..LoadConfig::default()
    };
    cfg.server.fork = fork;
    cfg.server.max_sessions = RAMP_SESSIONS;
    cfg
}

fn run_ramp(fork: bool) -> LoadReport {
    let report = run_loadgen(&ramp_cfg(fork)).unwrap();
    assert!(
        report.errors.is_empty() && report.completed == RAMP_SESSIONS,
        "ramp (fork={fork}): completed {} of {RAMP_SESSIONS}, errors: {:?}",
        report.completed,
        report.errors
    );
    report
}

/// The E17 table + the `BENCH_E17_JSON:` line bench_report.sh captures.
fn print_headline() {
    const SAMPLES: usize = 9;
    println!("e17 headline: session boot per scene, cold build vs template fork:");
    let mut scenes_json = Vec::new();
    for scene in scene_names() {
        let cold_us = median_us(
            (0..SAMPLES)
                .map(|_| time_us(|| drop(black_box(build_scene(scene, BACKEND).unwrap()))))
                .collect(),
        );
        let mut registry = TemplateRegistry::new(Arc::new(Collector::new()));
        registry
            .fork_session(scene, BACKEND)
            .expect("template warms");
        let fork_us = median_us(
            (0..SAMPLES)
                .map(|_| {
                    time_us(|| drop(black_box(registry.fork_session(scene, BACKEND).unwrap())))
                })
                .collect(),
        );
        let speedup = cold_us as f64 / fork_us.max(1) as f64;
        println!("  {scene}: cold {cold_us:>6} us, fork {fork_us:>5} us, {speedup:>6.1}x");
        scenes_json.push(format!(
            "\"{scene}\":{{\"cold_us\":{cold_us},\"fork_us\":{fork_us},\"speedup\":{speedup:.2}}}"
        ));
    }

    let forked = run_ramp(true);
    let cold = run_ramp(false);
    println!("e17 ramp: {RAMP_SESSIONS}-session admission storm on fig5, 4 shards:");
    println!(
        "     fork: wall {:.3} s, ttff p50 {:.2} ms, p99 {:.2} ms ({} forks, {} template builds)",
        forked.wall_s,
        forked.ttff_p50_us as f64 / 1000.0,
        forked.ttff_p99_us as f64 / 1000.0,
        forked.forks.unwrap_or(0),
        forked.template_builds.unwrap_or(0),
    );
    println!(
        "  no-fork: wall {:.3} s, ttff p50 {:.2} ms, p99 {:.2} ms",
        cold.wall_s,
        cold.ttff_p50_us as f64 / 1000.0,
        cold.ttff_p99_us as f64 / 1000.0,
    );

    let ramp_side = |r: &LoadReport| {
        format!(
            "{{\"wall_s\":{:.3},\"ttff_p50_us\":{},\"ttff_p99_us\":{}}}",
            r.wall_s, r.ttff_p50_us, r.ttff_p99_us
        )
    };
    let json = format!(
        "{{\"scenes\":{{{}}},\"ramp\":{{\"sessions\":{RAMP_SESSIONS},\"fork\":{},\"no_fork\":{}}}}}",
        scenes_json.join(","),
        ramp_side(&forked),
        ramp_side(&cold),
    );
    atk_trace::validate_json(&json).expect("BENCH_E17_JSON must be valid JSON");
    println!("BENCH_E17_JSON: {json}");
}

fn benches_with_headline(c: &mut Criterion) {
    print_headline();
    bench_boot(c);
}

criterion_group!(benches, benches_with_headline);
criterion_main!(benches);
