//! `loadgen` — N concurrent scripted clients against a toolkit server.
//!
//! ```text
//! loadgen [--sessions N] [--steps N] [--scene NAME] [--seed N]
//!         [--profile mixed|typing|collab] [--connect HOST:PORT] [--mem]
//!         [--shards N] [--docs N] [--writers N] [--watchers N]
//!         [--rendezvous] [--min-concurrent N] [--faults SEED]
//!         [--disconnect-every N] [--max-sessions N] [--max-drops N]
//!         [--slo-us N] [--stats] [--trace FILE] [--paint-threads N]
//!         [--ramp] [--no-fork] [--min-forks N]
//! ```
//!
//! Self-hosts a server over localhost TCP unless `--connect` points at
//! a running `served` (or `--mem` keeps everything in-process over the
//! memory transport). Exits 1 on any client error, when backpressure
//! drops exceed `--max-drops`, or when the server's observed peak
//! concurrency falls short of `--min-concurrent`.
//!
//! Scale and chaos: `--shards N` hosts the fleet on N event-driven
//! worker shards (at least 1), `--rendezvous` holds every client at a barrier
//! until the whole fleet is connected, `--faults SEED` wraps each
//! `--mem` transport in a seeded fault injector (short reads/writes,
//! `WouldBlock` storms), and `--disconnect-every N` makes every Nth
//! client vanish mid-script. Injected disconnects are never counted as errors.
//! `--ramp` turns the run into a pure admission storm: every client
//! connects, waits for its initial keyframe, and says goodbye without
//! sending a step, so the report's TTFF percentiles isolate session
//! boot cost. `--no-fork` disables the server's template-fork fast
//! path (the cold-boot ablation), and `--min-forks N` fails the
//! run unless the server reports at least N template-forked sessions
//! (the CI gate that forking really served the fleet).
//!
//! Replication: `--profile collab` runs `--docs` shared documents,
//! each with `--writers` writers submitting one seeded interleaved
//! edit stream of `--steps` merged ops through the document's op log
//! and `--watchers` silent replicas. The run exits 1 on *any*
//! cross-replica divergence, and the report adds ops/s, fanout p99,
//! and replay-lag percentiles.
//!
//! Observability: `--slo-us` arms the server's frame-budget watchdog
//! and prints retained slow-frame dumps after the run; `--stats` sends
//! a `Stats` wire request once the fleet finishes, validates the JSON
//! reply, and requires the stage histograms to be non-empty; `--trace
//! FILE` writes a Chrome trace with one track per session, and fails
//! the run if that trace does not parse or carries no session track
//! (self-hosted runs only: a remote server keeps its traces).

use atk_serve::loadgen::format_report;
use atk_serve::{run_loadgen, run_loadgen_mem, LoadConfig, Profile};
use atk_trace::{chrome_trace_json_multi, validate_json};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--sessions N] [--steps N] [--scene NAME] [--seed N] \
         [--profile mixed|typing|collab] [--connect HOST:PORT] [--mem] \
         [--shards N] [--docs N] [--writers N] [--watchers N] [--rendezvous] \
         [--min-concurrent N] [--faults SEED] [--disconnect-every N] \
         [--max-sessions N] [--max-drops N] [--slo-us N] [--stats] \
         [--trace FILE] [--paint-threads N] [--ramp] [--no-fork] [--min-forks N]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("loadgen: {flag} needs a numeric argument");
            usage();
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = LoadConfig::default();
    let mut mem = false;
    let mut max_drops = u64::MAX;
    let mut min_concurrent: u64 = 0;
    let mut min_forks: u64 = 0;
    let mut trace_file: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--sessions" => {
                cfg.sessions = parse_num("--sessions", argv.get(i + 1));
                i += 2;
            }
            "--steps" => {
                cfg.steps = parse_num("--steps", argv.get(i + 1));
                i += 2;
            }
            "--scene" => {
                cfg.scene = match argv.get(i + 1) {
                    Some(s) => s.clone(),
                    None => usage(),
                };
                i += 2;
            }
            "--seed" => {
                cfg.seed = parse_num("--seed", argv.get(i + 1));
                i += 2;
            }
            "--profile" => {
                cfg.profile = match argv.get(i + 1).map(|s| Profile::parse(s)) {
                    Some(Ok(p)) => p,
                    Some(Err(e)) => {
                        eprintln!("loadgen: {e}");
                        usage();
                    }
                    None => usage(),
                };
                i += 2;
            }
            "--connect" => {
                cfg.connect = match argv.get(i + 1) {
                    Some(a) => Some(a.clone()),
                    None => usage(),
                };
                i += 2;
            }
            "--mem" => {
                mem = true;
                i += 1;
            }
            "--shards" => {
                cfg.shards = parse_num("--shards", argv.get(i + 1));
                i += 2;
            }
            "--docs" => {
                cfg.docs = parse_num("--docs", argv.get(i + 1));
                i += 2;
            }
            "--writers" => {
                cfg.writers = parse_num("--writers", argv.get(i + 1));
                i += 2;
            }
            "--watchers" => {
                cfg.watchers = parse_num("--watchers", argv.get(i + 1));
                i += 2;
            }
            "--rendezvous" => {
                cfg.rendezvous = true;
                i += 1;
            }
            "--min-concurrent" => {
                min_concurrent = parse_num("--min-concurrent", argv.get(i + 1));
                i += 2;
            }
            "--faults" => {
                cfg.fault_seed = Some(parse_num("--faults", argv.get(i + 1)));
                i += 2;
            }
            "--disconnect-every" => {
                cfg.disconnect_every = parse_num("--disconnect-every", argv.get(i + 1));
                i += 2;
            }
            "--max-sessions" => {
                cfg.server.max_sessions = parse_num("--max-sessions", argv.get(i + 1));
                i += 2;
            }
            "--max-drops" => {
                max_drops = parse_num("--max-drops", argv.get(i + 1));
                i += 2;
            }
            "--slo-us" => {
                cfg.server.session.slo_us = Some(parse_num("--slo-us", argv.get(i + 1)));
                i += 2;
            }
            "--paint-threads" => {
                cfg.server.session.paint_threads = parse_num("--paint-threads", argv.get(i + 1));
                i += 2;
            }
            "--ramp" => {
                cfg.ramp = true;
                i += 1;
            }
            "--no-fork" => {
                cfg.server.fork = false;
                i += 1;
            }
            "--min-forks" => {
                min_forks = parse_num("--min-forks", argv.get(i + 1));
                i += 2;
            }
            "--stats" => {
                cfg.stats_probe = true;
                i += 1;
            }
            "--trace" => {
                trace_file = match argv.get(i + 1) {
                    Some(f) => Some(f.clone()),
                    None => usage(),
                };
                cfg.server.retain_session_traces = true;
                i += 2;
            }
            _ => usage(),
        }
    }
    if cfg.shards == 0 {
        eprintln!("loadgen: --shards must be at least 1");
        usage();
    }
    if mem && cfg.connect.is_some() {
        eprintln!("loadgen: --mem and --connect are mutually exclusive");
        usage();
    }
    if trace_file.is_some() && cfg.connect.is_some() {
        eprintln!("loadgen: --trace needs a self-hosted server (no --connect)");
        usage();
    }

    let result = if mem {
        run_loadgen_mem(&cfg)
    } else {
        run_loadgen(&cfg)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", format_report(&cfg, &report));

    let mut failed = false;
    if !report.errors.is_empty() {
        eprintln!("loadgen: {} client error(s)", report.errors.len());
        failed = true;
    }
    if let Some(drops) = report.backpressure_drops {
        if drops > max_drops {
            eprintln!("loadgen: {drops} backpressure drops exceed --max-drops {max_drops}");
            failed = true;
        }
    }
    if let Some(div) = report.divergences {
        if div > 0 {
            eprintln!("loadgen: {div} replica(s) diverged from their document");
            failed = true;
        }
    }
    if min_forks > 0 {
        match report.forks {
            Some(forks) if forks >= min_forks => {}
            Some(forks) => {
                eprintln!("loadgen: {forks} template fork(s) below --min-forks {min_forks}");
                failed = true;
            }
            None => {
                eprintln!("loadgen: --min-forks needs a self-hosted server (no --connect)");
                failed = true;
            }
        }
    }
    if min_concurrent > 0 {
        match report.peak_sessions {
            Some(peak) if peak >= min_concurrent => {}
            Some(peak) => {
                eprintln!(
                    "loadgen: peak concurrency {peak} below --min-concurrent {min_concurrent}"
                );
                failed = true;
            }
            None => {
                eprintln!("loadgen: --min-concurrent needs a self-hosted server (no --connect)");
                failed = true;
            }
        }
    }
    if cfg.server.session.slo_us.is_some() && !report.slow_frames.is_empty() {
        println!("slow frames ({}):", report.slow_frames.len());
        for line in &report.slow_frames {
            println!("  {line}");
        }
    }
    if let Some((text, json)) = &report.stats_reply {
        print!("{text}");
        match validate_json(json) {
            Ok(()) => println!("stats: json snapshot ok ({} bytes)", json.len()),
            Err(e) => {
                eprintln!("loadgen: stats JSON invalid: {e}");
                failed = true;
            }
        }
        if cfg.connect.is_none() && !json.contains("serve.stage_us.") {
            eprintln!("loadgen: stats snapshot has no stage histograms");
            failed = true;
        }
    }
    if let Some(path) = &trace_file {
        let parts: Vec<(&str, atk_trace::Snapshot)> = report
            .trace_parts
            .iter()
            .map(|(label, snap)| (label.as_str(), snap.clone()))
            .collect();
        let trace = chrome_trace_json_multi(&parts);
        let sessions = parts
            .iter()
            .filter(|(label, _)| label.starts_with("session-"))
            .count();
        if let Err(e) = validate_json(&trace) {
            eprintln!("loadgen: trace JSON invalid: {e}");
            failed = true;
        } else if sessions == 0 {
            eprintln!("loadgen: trace has no session tracks");
            failed = true;
        } else {
            match std::fs::write(path, &trace) {
                Ok(()) => println!(
                    "trace: wrote {} bytes ({} tracks, {sessions} sessions) to {path}",
                    trace.len(),
                    parts.len()
                ),
                Err(e) => {
                    eprintln!("loadgen: write {path}: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
