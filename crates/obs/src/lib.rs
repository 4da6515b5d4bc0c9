//! Observability for the translation simulator: telemetry, manifests,
//! traces, and diffable run artifacts.
//!
//! Everything here rides the existing [`Observer`](eeat_types::events::Observer)
//! seam — the pipeline stays oblivious, and the hot path pays only integer
//! accumulation (the same settle-per-epoch discipline as the energy
//! observer). The pieces:
//!
//! * [`EpochSeries`] — per-epoch telemetry rows (MPKI, hit mix, range-TLB
//!   hit ratio, shootdowns, Lite activity, LRU utility histograms, pJ),
//!   exported as JSONL/CSV; also the Figure 4 MPKI timeline.
//! * [`RunManifest`] — provenance (config hash, seed, toolchain, commit,
//!   wall time) stamped into every artifact and text report.
//! * [`TraceRing`] — an `EEAT_TRACE`-gated sampled event flight recorder.
//! * [`LatencyHistogram`] / [`LatencyObserver`] — log-bucketed per-access
//!   translation-cycle distributions split by outcome class (L1/L2 hit,
//!   native/nested walk, shootdown-stalled), the p50/p99/p999 layer.
//! * [`SpanTracer`] — `EEAT_SPANS`-gated chrome://tracing span export
//!   (`.trace.json` sidecars), built on the trace ring.
//! * [`Heartbeat`] — `EEAT_HEARTBEAT`-gated single-line JSON progress
//!   records for watching long runs live.
//! * [`RunArtifact`] / [`diff_artifacts`] — the `results/<bench>.json`
//!   schema (now with an optional `distributions` section) and the
//!   comparison engine behind the `report_diff` tool.
//!
//! The crate carries its own [`json`] support because the workspace is
//! dependency-free by design.
//!
//! # Examples
//!
//! ```
//! use eeat_obs::{diff_artifacts, RunArtifact, RunManifest};
//!
//! let manifest = RunManifest::discover("demo", &["4KB".to_string()], 42, 1000, 1);
//! let mut a = RunArtifact::new(manifest);
//! a.push_metric("l1_mpki", 15.0);
//!
//! let mut b = a.clone();
//! b.metrics[0].1 = 18.0; // a regression
//!
//! let report = diff_artifacts(&a, &b, 0.01);
//! assert_eq!(report.flagged.len(), 1);
//!
//! // The artifact round-trips through its JSON form exactly.
//! let back = RunArtifact::parse(&a.to_pretty()).unwrap();
//! assert_eq!(back, a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

mod artifact;
mod diff;
mod heartbeat;
mod latency;
mod manifest;
mod series;
mod spans;
mod trace;

pub use artifact::{validate, RunArtifact, DIST_FIELDS};
pub use diff::{diff_artifacts, relative_delta, DiffReport, MetricDelta};
pub use heartbeat::{
    Heartbeat, DEFAULT_INTERVAL as HEARTBEAT_INTERVAL, SCHEMA as HEARTBEAT_SCHEMA,
};
pub use json::Json;
pub use latency::{LatencyClass, LatencyHistogram, LatencyModel, LatencyObserver};
pub use manifest::{config_hash, fnv1a_64, RunManifest, SCHEMA};
pub use series::{per_core_jsonl, EpochRow, EpochSeries};
pub use spans::{chrome_trace_json, spans_enabled, validate_chrome_trace, SpanTracer};
pub use trace::{parse_sample_env, parse_trace_env, TraceRecord, TraceRing, DEFAULT_CAPACITY};
