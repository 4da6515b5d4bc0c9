//! The paper's contribution: energy-efficient TLB organizations.
//!
//! This crate assembles the substrates (`eeat-tlb`, `eeat-paging`,
//! `eeat-os`, `eeat-energy`, `eeat-workloads`) into the full MMU simulator
//! of *Energy-Efficient Address Translation* (HPCA 2016) and implements the
//! paper's two proposals:
//!
//! * [`LiteController`] — the **Lite** mechanism (§4.2): per-interval
//!   monitoring of L1 TLB utility through LRU-distance counters, a decision
//!   algorithm with a relative or absolute MPKI threshold ε, random full
//!   re-activation, and way-disabling reconfiguration.
//! * [`Config`] — the six simulated organizations of Figure 9: `4KB`, `THP`,
//!   `TLB_Lite`, `RMM`, `TLB_PP` (perfect TLB_Pred), and `RMM_Lite` (RMM
//!   plus a 4-entry L1-range TLB plus Lite).
//! * [`Simulator`] — the per-access simulation loop: parallel L1 lookups,
//!   L2 lookups on L1 misses, page walks through the MMU caches on L2
//!   misses, background range-table walks under RMM, and exact dynamic
//!   energy accounting that tracks Lite's resizing.
//!
//! # Examples
//!
//! ```
//! use eeat_core::{Config, Simulator};
//! use eeat_workloads::Workload;
//!
//! let mut sim = Simulator::from_workload(Config::rmm_lite(), Workload::Mcf, 1);
//! let result = sim.run(100_000);
//! // RMM eliminates nearly all page walks.
//! assert!(result.stats.l2_mpki() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod experiment;
mod hierarchy;
mod lite;
mod multicore;
mod org;
pub mod par;
mod pipeline;
mod predictor;
mod report;
mod setup;
mod simulator;
mod stats;
mod sweep;

pub use config::{Config, LiteParams, ThresholdEpsilon, TlbGeometry};
pub use experiment::{mean_normalized, ConfigRun, Experiment, WorkloadResults};
pub use hierarchy::{MonitorIndices, TlbHierarchy};
pub use lite::{LiteController, LiteDecision, WayMonitor};
pub use multicore::{CoreResult, MultiCoreParams, MultiCoreResult, MultiCoreSim};
pub use org::{
    ColtOrg, FourKOrg, Org, ProbePlan, RmmLiteOrg, RmmOrg, ThpOrg, TlbLiteOrg, TlbPpOrg,
    TranslationOrg,
};
pub use predictor::SizePredictor;
pub use report::{format_row, format_table, provenance_header, Table};
pub use simulator::{RunResult, Simulator, DEFAULT_BLOCK};
pub use stats::SimStats;
pub use sweep::{fig3_walk_locality, lite_sensitivity, SensitivityPoint};
