//! `served` — the multi-session toolkit server.
//!
//! ```text
//! served [--port N] [--shards N] [--max-sessions N] [--queue-cap N]
//!        [--idle-ms N] [--slo-us N] [--stats-every SECS]
//! ```
//!
//! Listens on `127.0.0.1:<port>` (an OS-assigned port when 0, printed
//! on stdout) and hosts scene sessions until killed on `--shards N`
//! (at least 1, default 4) event-driven worker shards. Sessions fork
//! from pre-warmed per-shard scene templates on the backend each
//! client names in its `Hello` (`x11sim` when it names none). Every
//! other serving knob keeps its `ServerConfig` default; the benches
//! that ablate them set the config fields directly.
//!
//! Observability: `--slo-us` arms the per-frame budget watchdog (each
//! violation dumps its stage breakdown to stderr and the slow-frame
//! log), `--stats-every` prints a merged server-wide counter delta
//! every N seconds, and any client can ask for the full snapshot over
//! the wire with a `Stats` request.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use atk_serve::{serve_listener_sharded, Server, ServerConfig};
use atk_trace::{Snapshot, Stage};

fn usage() -> ! {
    eprintln!(
        "usage: served [--port N] [--shards N] [--max-sessions N] \
         [--queue-cap N] [--idle-ms N] [--slo-us N] [--stats-every SECS]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("served: {flag} needs a numeric argument");
            usage();
        }
    }
}

/// One `--stats-every` line: counter deltas since the previous tick
/// plus the current cumulative stage p50/p99s.
fn format_stats_delta(prev: &Snapshot, cur: &Snapshot) -> String {
    const KEYS: &[&str] = &[
        "serve.sessions",
        "serve.frames",
        "serve.backpressure_drops",
        "serve.busy_rejects",
        "serve.idle_evictions",
        "serve.stats_requests",
        "serve.slo_violations",
    ];
    let mut out = String::from("served: stats");
    let mut any = false;
    for key in KEYS {
        let d = cur.counter(key).saturating_sub(prev.counter(key));
        if d > 0 {
            let short = key.strip_prefix("serve.").unwrap_or(key);
            out.push_str(&format!(" +{d} {short}"));
            any = true;
        }
    }
    if !any {
        out.push_str(" idle");
    }
    let mut stages = String::new();
    for s in Stage::ALL {
        if let Some(h) = cur.histogram(s.key()) {
            if h.count > 0 {
                stages.push_str(&format!(
                    " {} {}/{}",
                    s.name(),
                    h.approx_percentile(0.50),
                    h.approx_percentile(0.99)
                ));
            }
        }
    }
    if !stages.is_empty() {
        out.push_str(" | stage p50/p99 us:");
        out.push_str(&stages);
    }
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut port: u16 = 0;
    let mut cfg = ServerConfig::default();
    let mut stats_every: Option<u64> = None;
    let mut shards: usize = 4;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--port" => {
                port = parse_num("--port", argv.get(i + 1));
                i += 2;
            }
            "--shards" => {
                shards = parse_num("--shards", argv.get(i + 1));
                i += 2;
            }
            "--max-sessions" => {
                cfg.max_sessions = parse_num("--max-sessions", argv.get(i + 1));
                i += 2;
            }
            "--queue-cap" => {
                cfg.session.queue_cap = parse_num("--queue-cap", argv.get(i + 1));
                i += 2;
            }
            "--idle-ms" => {
                cfg.session.idle_ms = Some(parse_num("--idle-ms", argv.get(i + 1)));
                i += 2;
            }
            "--slo-us" => {
                cfg.session.slo_us = Some(parse_num("--slo-us", argv.get(i + 1)));
                i += 2;
            }
            "--stats-every" => {
                stats_every = Some(parse_num("--stats-every", argv.get(i + 1)));
                i += 2;
            }
            _ => usage(),
        }
    }
    if shards == 0 {
        eprintln!("served: --shards must be at least 1");
        usage();
    }

    let collector = Arc::new(atk_trace::Collector::new());
    collector.enable();
    let server = Server::new(cfg, collector);
    // SLO violations echo to stderr the moment they happen.
    server.slow_log().set_echo(true);

    if let Some(secs) = stats_every {
        let secs = secs.max(1);
        let srv = server.clone();
        std::thread::spawn(move || {
            let mut prev = srv.merged_snapshot();
            loop {
                std::thread::sleep(Duration::from_secs(secs));
                let cur = srv.merged_snapshot();
                println!("{}", format_stats_delta(&prev, &cur));
                prev = cur;
            }
        });
    }

    let listener = match TcpListener::bind(("127.0.0.1", port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("served: bind 127.0.0.1:{port}: {e}");
            std::process::exit(1);
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("served: listening on {addr} ({shards} shard(s))"),
        Err(e) => eprintln!("served: local_addr: {e}"),
    }

    if let Err(e) = serve_listener_sharded(server, listener, shards) {
        eprintln!("served: accept loop failed: {e}");
        std::process::exit(1);
    }
}
