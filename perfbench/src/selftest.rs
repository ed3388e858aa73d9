//! `perfbench --self-test`: a quick check of the benchmark itself.
//! Seeds must steer the scripts, `BENCHMARK.json` must list exactly the
//! metrics the program prints, and a one-second run of every workload,
//! untraced and traced, must print every named metric — finite, with a
//! unit — with no failed operation.

use std::process::ExitCode;

use crate::inputs::{Inputs, Workload};
use crate::{run, Args, END_TO_END, PER_LAYER};

const SHORT_S: f64 = 1.0;

fn run_all() -> Vec<String> {
    let mut problems = Vec::new();
    for w in Workload::ALL {
        let gen = |seed| Inputs::generate(w, seed, 0.2);
        match (gen(1), gen(1), gen(2)) {
            (Ok(a), Ok(b), Ok(c)) => {
                if a != b {
                    problems.push(format!("{}: seed 1 gave two different scripts", w.name()));
                }
                if a == c {
                    problems.push(format!("{}: seeds 1 and 2 gave the same scripts", w.name()));
                }
            }
            _ => problems.push(format!("{}: script generation failed", w.name())),
        }
    }
    problems.extend(check_manifest());
    for w in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload: w,
                seed: 7,
                seconds: SHORT_S,
                trace,
            };
            let label = format!("{} --trace {}", w.name(), u8::from(trace));
            let out = match run(&args) {
                Ok(out) => out,
                Err(e) => {
                    problems.push(format!("{label}: {e}"));
                    continue;
                }
            };
            let want: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
            let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            if got != want {
                problems.push(format!("{label}: metrics {got:?}, expected {want:?}"));
            }
            for m in &out.metrics {
                if !m.value.is_finite() || m.unit.is_empty() {
                    problems.push(format!("{label}: {} = {} {:?}", m.name, m.value, m.unit));
                }
            }
            if out.failed != 0 || !out.correct {
                problems.push(format!(
                    "{label}: error rate {}/{} (correct: {})",
                    out.failed, out.attempted, out.correct
                ));
            }
        }
    }
    problems
}

/// Every metric and workload name appears once in `BENCHMARK.json`
/// (when run from the repository root, where the file lives).
fn check_manifest() -> Vec<String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return vec!["BENCHMARK.json not found (run from the repository root)".into()];
    };
    let compact: String = text.split_whitespace().collect();
    let names = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END)
        .chain(PER_LAYER);
    let mut problems: Vec<String> = names
        .clone()
        .filter(|n| compact.matches(&format!("\"name\":\"{n}\"")).count() != 1)
        .map(|n| format!("BENCHMARK.json does not list `{n}` exactly once"))
        .collect();
    let listed = compact.matches("\"name\":").count();
    if listed != names.count() {
        problems.push(format!(
            "BENCHMARK.json lists {listed} names, the program prints others"
        ));
    }
    problems
}

/// Runs the self-test and reports.
pub fn main() -> ExitCode {
    let problems = run_all();
    if problems.is_empty() {
        eprintln!("perfbench self-test: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("perfbench self-test: {p}");
        }
        ExitCode::FAILURE
    }
}
