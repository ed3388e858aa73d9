//! perfbench — the repository benchmark.
//!
//! Hosts the production server in-process (`Server` +
//! `serve_listener_sharded` on loopback TCP, default `ServerConfig`,
//! two shards) and drives it from outside through the public
//! `ServeClient`, one closed loop per client thread. See `README.md`
//! in this directory for the workloads and metrics.
//!
//! ```text
//! perfbench --workload edit|admit|collab --seed N --seconds S --trace 0|1
//! perfbench --self-test
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload once untraced and once with client-side spans, replays the
//! same inputs through the layer functions, and prints the per-layer
//! metrics. The last stdout line is the JSON result; the line before
//! it records the run's context (seed, nproc, commit, build profile).

#![forbid(unsafe_code)]

mod fleet;
mod gate;
mod host;
mod inputs;
mod parts;
mod replay;
mod report;
mod selftest;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use atk_trace::{chrome_trace_json_multi, validate_json, Snapshot};

use crate::fleet::{run_fleet, FleetRun};
use crate::host::{Host, SHARDS};
use crate::inputs::{Inputs, Workload, CLIENTS};
use crate::replay::Replay;
use crate::report::{
    git_commit, hist_quantile, json_number, json_string, median_us, process_cpu_ns, quantile,
    ratio, result_json, self_time_summary, Metric,
};

/// End-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "ttff_p50_ms",
    "step_p50_ms",
    "cpu_us_per_step",
    "wire_bytes_per_step",
    "peak_rss_mb",
];

/// Per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 30] = [
    "template.fork_us",
    "template.build_us",
    "session.open_us",
    "session.keyframe_us",
    "session.apply_us",
    "stage.decode_us",
    "stage.apply_us",
    "stage.settle_us",
    "stage.paint_us",
    "stage.diff_us",
    "stage.ship_us",
    "wire.encode_key_us",
    "wire.encode_diff_us",
    "wire.decode_us",
    "wire.encode_ratio",
    "wire.keyframe_share",
    "client.connect_us",
    "client.update_us",
    "shard.batches_per_step",
    "collab.submit_us",
    "collab.fanout_p99_us",
    "collab.replay_lag_p99",
    "collab.replica_apply_us",
    "collab.ops_per_watcher_frame",
    "text.relayout_lines_per_step",
    "world.forks",
    "world.template_builds",
    "paint.flushes_per_step",
    "paint.update_passes_per_step",
    "trace.overhead_pct",
];

/// Server stage histograms and the per-layer names they report under.
const STAGES: [(&str, &str); 6] = [
    ("stage.decode_us", "serve.stage_us.decode"),
    ("stage.apply_us", "serve.stage_us.apply"),
    ("stage.settle_us", "serve.stage_us.settle"),
    ("stage.paint_us", "serve.stage_us.paint"),
    ("stage.diff_us", "serve.stage_us.diff"),
    ("stage.ship_us", "serve.stage_us.ship"),
];

/// One invocation's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which traffic mix.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// What one invocation measured.
pub struct Outcome {
    /// No operation failed and every check passed.
    pub correct: bool,
    /// Sessions opened plus steps sent (plus replay checks).
    pub attempted: u64,
    /// Errors, `Busy`s, correctness misses and divergences.
    pub failed: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// The context line (JSON).
    pub context: String,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--self-test") {
        return selftest::main();
    }
    let part = argv.iter().any(|a| a == "--part");
    let argv: Vec<String> = argv.into_iter().filter(|a| a != "--part").collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload edit|admit|collab --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if part {
        // A child of an end-to-end run: measure, print the part.
        return match parts::Part::measure(args.workload, args.seed, args.seconds) {
            Ok(p) => {
                print!("{}", p.to_text());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench part: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(out) => {
            println!("{}", out.context);
            println!(
                "{}",
                result_json(out.correct, out.attempted, out.failed, &out.metrics)
            );
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one invocation: the end-to-end run fans out into parts; the
/// traced run measures in this process.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(args);
    }
    let (parts, retries) = parts::run_parts(args)?;
    let failures: Vec<String> = parts.iter().flat_map(|p| p.failures.clone()).collect();
    let attempted: u64 = parts.iter().map(|p| p.attempted).sum();
    let admitted: usize = parts.iter().map(|p| p.ttff_ns.len()).sum();
    let forks: u64 = parts.iter().map(|p| p.forks).sum();
    let window_s: f64 = parts.iter().map(|p| p.window_s).sum();
    let metrics = parts::end_to_end(&parts);
    let unbounded = parts::unbounded(&parts);
    let seeds: Vec<String> = (0..parts.len())
        .map(|i| parts::part_seed(args.seed, i).to_string())
        .collect();
    let list = |f: &dyn Fn(&parts::Part) -> f64| {
        parts
            .iter()
            .map(|p| json_number(f(p)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let extra = format!(
        "\"unbounded\": {{{}}}, \"parts\": {}, \"part_seeds\": [{}], \
         \"part_steps_per_s\": [{}], \"part_cpu_us_per_step\": [{}], \"part_steal\": [{}], \
         \"parts_measured_again\": {retries}, \"window_s\": {}, \"steps\": {}, \
         \"sessions\": {}, \"admitted\": {admitted}, \"forks_in_window\": {forks}",
        unbounded
            .iter()
            .map(|m| format!("{}: {}", json_string(m.name), json_number(m.value)))
            .collect::<Vec<_>>()
            .join(", "),
        parts.len(),
        seeds.join(", "),
        list(&|p| ratio(p.step_ns.len() as f64, p.window_s)),
        list(&|p| ratio(p.cpu_ns as f64 / 1e3, p.step_ns.len() as f64)),
        list(&|p| p.steal),
        json_number(window_s),
        parts.iter().map(|p| p.step_ns.len()).sum::<usize>(),
        parts.iter().map(|p| p.sessions).sum::<u64>(),
    );
    let out = finish(args, metrics, attempted, failures, &extra);
    print_unbounded(&unbounded);
    Ok(out)
}

/// Wraps up an invocation: correctness, the context line, the report.
fn finish(
    args: &Args,
    metrics: Vec<Metric>,
    attempted: u64,
    failures: Vec<String>,
    extra: &str,
) -> Outcome {
    let failed = failures.len() as u64;
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let context = format!(
        "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"commit\": {}, \"profile\": {}, \"shards\": {SHARDS}, \
         \"clients\": {CLIENTS}, \"error_rate\": {}, {extra}}}}}",
        json_string(args.workload.name()),
        args.seed,
        json_number(args.seconds),
        u8::from(args.trace),
        json_string(&git_commit()),
        json_string(profile),
        json_number(ratio(failed as f64, attempted.max(1) as f64)),
    );
    print_report(args, &metrics, &failures);
    Outcome {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
        context,
    }
}

/// The set-up a run's timed window starts from: server and shards,
/// template warm-up, scripts. Returns its duration in nanoseconds.
pub fn set_up(w: Workload, seed: u64, seconds: f64) -> Result<(Host, Inputs, u64), String> {
    let started = Instant::now();
    let host = Host::start()?;
    host.warm_up()?;
    let inputs = Inputs::generate(w, seed, seconds)?;
    Ok((host, inputs, fleet::nanos(started)))
}

/// One timed window on `host`, which it then shuts down, with every
/// check applied after the window.
pub struct Window {
    /// What the clients did.
    pub fleet: FleetRun,
    /// Server counters before the window.
    pub warm: Snapshot,
    /// Server counters after it (shards joined).
    pub after: Snapshot,
    /// CPU time the process used in the window, server and clients.
    pub cpu_ns: u64,
    /// Client errors, set-up guard and correctness-gate misses.
    pub failures: Vec<String>,
}

impl Window {
    /// Sessions forked during the window.
    pub fn forks(&self) -> u64 {
        self.after
            .counter("world.forks")
            .saturating_sub(self.warm.counter("world.forks"))
    }
}

/// Runs the window, then the set-up guard and the correctness gate.
pub fn window(host: Host, inputs: &Inputs, seconds: f64, traced: bool) -> Result<Window, String> {
    let warm = host.snapshot();
    let cpu = process_cpu_ns();
    let fleet = run_fleet(&host, inputs, seconds, traced);
    let cpu_ns = process_cpu_ns().saturating_sub(cpu);
    host.shutdown();
    let after = host.snapshot();
    let mut failures = fleet.errors();
    failures.extend(setup_guard(&warm, &after, &fleet));
    failures.extend(gate::check(inputs, &fleet)?);
    Ok(Window {
        fleet,
        warm,
        after,
        cpu_ns,
        failures,
    })
}

/// The traced run: an untraced window, a traced window on a fresh
/// server, then the layer replay of the traced window's inputs.
fn run_traced(args: &Args) -> Result<Outcome, String> {
    let (host, inputs, _) = set_up(args.workload, args.seed, args.seconds)?;
    let plain = window(host, &inputs, args.seconds, false)?;
    let host = Host::start()?;
    host.warm_up()?;
    let traced = window(host, &inputs, args.seconds, true)?;
    let replay = replay::replay(args.workload, &inputs, &traced.fleet)?;
    let mut failures = plain.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    failures.extend(replay.misses.iter().cloned());
    let attempted =
        plain.fleet.sum(|c| c.attempted) + traced.fleet.sum(|c| c.attempted) + replay.checks;
    let files = match write_trace(args, &traced.fleet, &replay) {
        Ok(files) => files.iter().map(|f| json_string(f)).collect(),
        Err(e) => {
            failures.push(e);
            Vec::new()
        }
    };
    let metrics = per_layer(args.workload, &plain.fleet, &traced, &replay);
    let extra = format!(
        "\"window_s\": {}, \"steps\": {}, \"forks_in_window\": {}, \"trace_files\": [{}]",
        json_number(traced.fleet.window_s),
        traced.fleet.steps(),
        traced.forks(),
        files.join(", ")
    );
    Ok(finish(args, metrics, attempted, failures, &extra))
}

/// Set-up guard: the window must neither build templates nor boot a
/// session any way but by forking — one fork per admitted session.
fn setup_guard(warm: &Snapshot, after: &Snapshot, fleet: &FleetRun) -> Vec<String> {
    let delta = |k: &str| after.counter(k).saturating_sub(warm.counter(k));
    let mut out = Vec::new();
    let builds = delta("world.template_builds");
    if builds != 0 {
        out.push(format!(
            "setup guard: {builds} template build(s) inside the window"
        ));
    }
    let forks = delta("world.forks");
    if forks != fleet.admitted() {
        out.push(format!(
            "setup guard: {forks} fork(s) for {} admitted session(s)",
            fleet.admitted()
        ));
    }
    out
}

/// The per-layer metrics of a traced run: replay timings, server
/// counters of the traced window, and the tracing overhead.
fn per_layer(w: Workload, plain: &FleetRun, window: &Window, r: &Replay) -> Vec<Metric> {
    let (traced, warm, after) = (&window.fleet, &window.warm, &window.after);
    let timed = |name: &'static str, span: &str| {
        let s = r.timer.samples.get(span).map_or(&[][..], Vec::as_slice);
        Metric::new(name, median_us(s), "us", s.len())
    };
    let steps = traced.steps() as f64;
    let per_step = |name: &'static str, key: &str, unit: &'static str| {
        let n = after.counter(key).saturating_sub(warm.counter(key));
        Metric::new(name, ratio(n as f64, steps), unit, 0)
    };
    let hist = |name: &'static str, snap: &Snapshot, key: &str, q: f64, unit: &'static str| {
        let h = snap.histogram(key);
        Metric::new(
            name,
            hist_quantile(h, q),
            unit,
            h.map_or(0, |h| h.count as usize),
        )
    };
    // The collab layer runs in the window only on the collab workload;
    // elsewhere its numbers come from the replay's light shared document.
    let (doc, doc_ops, watcher_frames) = if w == Workload::Collab {
        let ops = traced.clients[0].step_ns.len() as f64;
        (after, ops, traced.clients[1].frames as f64)
    } else {
        (&r.collab, r.collab_ops as f64, r.watcher_frames as f64)
    };
    let untraced_p50 = quantile(&plain.all(|c| &c.step_ns), 0.5) as f64;
    let traced_p50 = quantile(&traced.all(|c| &c.step_ns), 0.5) as f64;

    let mut out = vec![
        timed("template.fork_us", "template.fork"),
        timed("template.build_us", "template.build"),
        timed("session.open_us", "session.open"),
        timed("session.keyframe_us", "session.keyframe"),
        timed("session.apply_us", "session.apply"),
    ];
    // The replica path folds per-op settle and paint into its apply
    // stage; a stage the window attributed no time to is read from the
    // replay's private sessions, which run the same scene and steps.
    out.extend(STAGES.iter().map(|&(name, key)| {
        let attributed = after.histogram(key).is_some_and(|h| h.max > 0);
        hist(
            name,
            if attributed { after } else { &r.private },
            key,
            0.5,
            "us",
        )
    }));
    out.extend([
        timed("wire.encode_key_us", "wire.encode_key"),
        timed("wire.encode_diff_us", "wire.encode_diff"),
        timed("wire.decode_us", "wire.decode"),
        Metric::new(
            "wire.encode_ratio",
            ratio(
                traced.sum(|c| c.raw_bytes) as f64,
                traced.sum(|c| c.encoded_bytes) as f64,
            ),
            "ratio",
            0,
        ),
        Metric::new(
            "wire.keyframe_share",
            ratio(
                traced.sum(|c| c.key_frames) as f64,
                traced.sum(|c| c.frames) as f64,
            ),
            "ratio",
            0,
        ),
        timed("client.connect_us", "client.connect"),
        timed("client.update_us", "client.update"),
        per_step(
            "shard.batches_per_step",
            "serve.shard.batches",
            "batches/step",
        ),
        timed("collab.submit_us", "collab.submit"),
        hist(
            "collab.fanout_p99_us",
            doc,
            "serve.collab.fanout_us",
            0.99,
            "us",
        ),
        hist(
            "collab.replay_lag_p99",
            doc,
            "serve.collab.replay_lag",
            0.99,
            "ops",
        ),
        timed("collab.replica_apply_us", "collab.replica_apply"),
        Metric::new(
            "collab.ops_per_watcher_frame",
            ratio(doc_ops, watcher_frames),
            "ops/frame",
            0,
        ),
        per_step(
            "text.relayout_lines_per_step",
            "text.relayout_lines",
            "lines/step",
        ),
        Metric::new(
            "world.forks",
            after.counter("world.forks") as f64,
            "count",
            0,
        ),
        Metric::new(
            "world.template_builds",
            after.counter("world.template_builds") as f64,
            "count",
            0,
        ),
        per_step("paint.flushes_per_step", "paint.flushes", "flushes/step"),
        per_step("paint.update_passes_per_step", "im.updates", "passes/step"),
        Metric::new(
            "trace.overhead_pct",
            (ratio(traced_p50, untraced_p50) - 1.0) * 100.0,
            "%",
            0,
        ),
    ]);
    out
}

/// Where trace files go: `$CARGO_TARGET_DIR/perfbench`, else
/// `target/perfbench`.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench")
}

/// Writes the traced run's spans as Chrome trace JSON (checked with
/// `validate_json`) plus the self-time summary; returns the paths.
fn write_trace(args: &Args, traced: &FleetRun, replay: &Replay) -> Result<Vec<String>, String> {
    let labels: &[&str] = if args.workload == Workload::Collab {
        &["writer", "watcher"]
    } else {
        &["client-0", "client-1"]
    };
    let mut parts: Vec<(String, Snapshot)> = traced
        .clients
        .iter()
        .zip(labels)
        .filter_map(|(c, l)| c.trace.clone().map(|s| (l.to_string(), s)))
        .collect();
    parts.push(("replay".into(), replay.timer.collector.snapshot()));
    let refs: Vec<(&str, Snapshot)> = parts.iter().map(|(l, s)| (l.as_str(), s.clone())).collect();
    let json = chrome_trace_json_multi(&refs);
    validate_json(&json).map_err(|e| format!("chrome trace is not valid JSON: {e}"))?;
    let summary = self_time_summary(&parts);
    eprint!("{summary}");
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let trace_path = dir.join(format!("{stem}.trace.json"));
    let summary_path = dir.join(format!("{stem}.summary.txt"));
    for (path, body) in [(&trace_path, &json), (&summary_path, &summary)] {
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(vec![
        trace_path.display().to_string(),
        summary_path.display().to_string(),
    ])
}

/// The figures reported but not bounded, on stderr. A `*_p99_ms` is
/// the highest quantile up to p99 with ten samples beyond it.
fn print_unbounded(metrics: &[Metric]) {
    eprintln!("  reported, not bounded:");
    print_metrics(metrics);
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        eprintln!(
            "  {:<30} {:>14.4} {:<12} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The human-readable report, on stderr.
fn print_report(args: &Args, metrics: &[Metric], failures: &[String]) {
    eprintln!(
        "perfbench {} seed {} ({} s window{})",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    print_metrics(metrics);
    for f in failures.iter().take(20) {
        eprintln!("  FAILED: {f}");
    }
    if failures.len() > 20 {
        eprintln!("  ... {} more failure(s)", failures.len() - 20);
    }
}
