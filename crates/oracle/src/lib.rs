//! Differential-testing oracles for the production TLB structures.
//!
//! Every performance-oriented structure in the workspace (rank-permutation
//! LRU, way-disabling, paging-structure caches, Lite's compressed
//! LRU-distance counters) has a small, obviously-correct reference model
//! here that trades all cleverness for clarity:
//!
//! * [`OraclePageTlb`] — the ASID-tagged set-associative/fully-associative
//!   page TLB with timestamp LRU: each entry remembers when it was last
//!   used and carries a lane word; the LRU victim is the oldest timestamp,
//!   an entry's reported rank is simply the number of more recently used
//!   valid entries in its set, lookups filter by ASID visibility and
//!   inserts collapse shadowing duplicates. The set-associative and fully
//!   associative fuzz targets run it at ASID 0; the multi-core target runs
//!   one per core behind a seq-numbered IPI queue.
//! * [`OracleRangeTlb`] — a linear list of range translations with the same
//!   timestamp LRU.
//! * [`OracleColtTlb`] — the coalesced (CoLT) TLB as timestamp-LRU sets of
//!   `(group, base frame, presence mask)` entries, with a
//!   translation-consistency invariant (no virtual page resident twice).
//! * [`OracleTagCache`] / [`OracleMmuCaches`] / [`OracleWalker`] — the
//!   paging-structure caches and a page walker whose memory-reference count
//!   is one arithmetic expression over the deepest cached level.
//! * [`OracleNestedWalker`] — the two-dimensional (guest + host) walker:
//!   two linear-scan dimensions joined by a nested TLB of combined gPN
//!   entries, cross-checking the virtualized walk protocol step by step.
//! * [`OracleLite`] — recomputes the Lite interval decision from the *full
//!   log* of per-hit LRU ranks instead of the production controller's
//!   compressed power-of-two counters.
//!
//! Each TLB model has one `invalidate(scope)` for every
//! [`eeat_tlb::Invalidate`] scope, decided by one rule the models share
//! and written apart from production's, so a bug in production's rule
//! cannot pass the fuzz by being copied. The models count into
//! [`eeat_tlb::TlbStats`], so stats are compared for equality.
//!
//! The [`fuzz`] module drives production and oracle side by side through
//! deterministic, seed-addressable random operation sequences and
//! cross-checks every observable (hit/miss, translation, reported rank,
//! stats counters, occupancy, full contents, internal invariants). On a
//! divergence it shrinks the sequence to a minimal repro and renders a
//! textual replay; checked-in replays under `replays/` are permanent
//! regression tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
mod lite;
mod model;

pub use fuzz::{
    format_replay, fuzz_seed, fuzz_seed_with, fuzz_target, minimize, parse_replay, run_ops,
    run_replay, targets_for_org, Divergence, FuzzFailure, Op, Target,
};
pub use lite::OracleLite;
pub use model::{
    OracleColtTlb, OracleMmuCaches, OracleNestedResult, OracleNestedWalker, OraclePageTlb,
    OracleRangeTlb, OracleTagCache, OracleWalker,
};
