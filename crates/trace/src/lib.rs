//! atk-trace: structured tracing and metrics for the toolkit.
//!
//! The Andrew Toolkit's performance story lives in its update pipeline:
//! data objects mutate, change records queue, notifications flush,
//! damage propagates up the view tree, and one update pass walks back
//! down (paper §2–3). This crate makes that pipeline observable without
//! perturbing it:
//!
//! * **Counters, gauges, histograms** — named metrics behind a single
//!   [`Collector`], reachable as a process-wide [`global()`] instance
//!   or injected per `World` for isolated tests.
//! * **Spans** — RAII guards ([`Collector::span`]) that record nested
//!   begin/end intervals into a fixed-capacity ring buffer; no
//!   allocation on the hot path, oldest records overwritten on wrap.
//! * **Determinism** — timestamps come from a [`Clock`] that is either
//!   wall time or a manual counter advanced with the `World` virtual
//!   clock, so tests see identical traces on every run.
//! * **Exporters** — [`chrome_trace_json`] for `chrome://tracing` /
//!   Perfetto, [`text_summary`] for terminals.
//!
//! A disabled collector (the default) costs one relaxed atomic load per
//! instrumentation site, which keeps the instrumented toolkit within
//! noise of the un-instrumented one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod collector;
mod export;
mod frame;
mod histogram;

pub use clock::Clock;
pub use collector::{Collector, Snapshot, SpanGuard, SpanRecord, DEFAULT_SPAN_CAPACITY};
pub use export::{
    chrome_trace_json, chrome_trace_json_multi, snapshot_json, text_summary, validate_json,
};
pub use frame::{FrameRecord, FrameTrace, SlowFrameLog, Stage, STAGE_COUNT, STAGE_TOTAL_KEY};
pub use histogram::{bucket_index, bucket_lower_bound, Histogram, BUCKET_COUNT};

use std::sync::{Arc, OnceLock};

/// The process-wide collector. Disabled until something calls
/// `global().enable()`; `World`s default to it unless given their own.
pub fn global() -> Arc<Collector> {
    static GLOBAL: OnceLock<Arc<Collector>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Collector::new())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_shared_and_starts_disabled() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(&a, &b));
        // Don't enable or mutate it here: unit tests share the process
        // and must not observe each other's metrics.
    }
}
