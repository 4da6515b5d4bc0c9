//! Per-access translation-latency distributions: a zero-dependency
//! HDR-style histogram and the observer that feeds it from the event
//! stream.
//!
//! The paper's headline numbers are averages, but nested walks and
//! shootdown stalls live in the *tail*: a cold 24-reference 2D walk is
//! invisible in a mean and dominant at p99. [`LatencyHistogram`] keeps
//! exact counts in log-bucketed fixed storage (no allocation after
//! construction, deterministic across platforms), and [`LatencyObserver`]
//! classifies every access into one of five [`LatencyClass`]es from the
//! per-access outcome events — which the delta-settle hot path still emits
//! per access (only probe/fill *accounting* is batched), so the observer is
//! exact in both `run_block` and `run_per_access_with` modes.
//!
//! # Cycle model
//!
//! [`LatencyModel`] assigns cycles per access, refining the flat
//! `CycleModel` (7 per L1 miss, 50 per L2 miss) into a refs-proportional
//! walk cost so nested walks spread into a real distribution:
//!
//! * L1 hit: 0 cycles.
//! * L2 hit: `l2_lookup_cycles` (7, Table 3's L2 lookup time).
//! * Walked access: `l2_lookup_cycles + walk_base_cycles +
//!   memory_refs * walk_ref_cycles` — with the defaults (2 + 12/ref), a
//!   full 4-reference native walk costs 2 + 48 = 50, exactly the paper's
//!   flat walk charge, while a cold virtualized walk (24 refs) costs 297.
//! * Shootdown-stalled: the access additionally absorbs
//!   `ipi_stall_cycles` per IPI delivered to its core since the previous
//!   access (the remote-shootdown interrupt cost).
//!
//! Summed over a single-core run, the histogram total ties exactly to the
//! stats observer: `Σ cycles = 7·l1_misses + 2·l2_misses + 12·walk_refs`.
//!
//! # Hot-path discipline
//!
//! The two fixed-cost classes (L1 hit, L2 hit) cover almost every access,
//! so the observer accumulates them as two plain integers — the per-block
//! cycle-class accumulator — and bulk-records them into their (constant)
//! buckets only when the histograms are read or a [`BlockEnd`] flush
//! boundary passes. Variable-cost accesses (walks, stalls) record
//! individually. Bucketed counts are therefore independent of flush
//! frequency; `crates/obs/tests/hist_equivalence.rs` proves `run_block`
//! histograms equal the `run_per_access_with` reference for every organization.
//!
//! [`BlockEnd`]: eeat_types::events::TranslationEvent::BlockEnd

use eeat_types::events::{Observer, TranslationEvent};

use crate::json::{self, Json};

/// Values below this record into their own exact bucket.
const LINEAR_CUTOFF: u64 = 32;
/// Sub-buckets per power-of-two octave above the cutoff.
const SUB_BUCKETS: usize = 16;
/// Bucket count: 32 exact + 16 sub-buckets for each octave 2^5..2^63.
const BUCKETS: usize = LINEAR_CUTOFF as usize + (64 - 6) * SUB_BUCKETS + SUB_BUCKETS;

/// How one access resolved, for latency classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyClass {
    /// Served by an L1 structure (0 cycles).
    L1Hit = 0,
    /// Served by an L2 structure after missing every L1 (7 cycles).
    L2Hit = 1,
    /// Resolved by a native (one-dimensional) page walk.
    NativeWalk = 2,
    /// Resolved by a nested (two-dimensional, virtualized) page walk.
    NestedWalk = 3,
    /// Any access whose core absorbed shootdown-IPI deliveries since the
    /// previous access; the stall cycles dominate its own outcome.
    ShootdownStalled = 4,
}

impl LatencyClass {
    /// All classes, in index order.
    pub const ALL: [LatencyClass; 5] = [
        LatencyClass::L1Hit,
        LatencyClass::L2Hit,
        LatencyClass::NativeWalk,
        LatencyClass::NestedWalk,
        LatencyClass::ShootdownStalled,
    ];

    /// Stable snake_case name (artifact keys, report columns).
    pub fn name(self) -> &'static str {
        match self {
            LatencyClass::L1Hit => "l1_hit",
            LatencyClass::L2Hit => "l2_hit",
            LatencyClass::NativeWalk => "native_walk",
            LatencyClass::NestedWalk => "nested_walk",
            LatencyClass::ShootdownStalled => "shootdown_stalled",
        }
    }
}

/// Cycles charged per access outcome; see the module header for the tie to
/// the paper's flat `CycleModel`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Cycles of an L2 TLB lookup, charged to every L1 miss.
    pub l2_lookup_cycles: u64,
    /// Fixed walk-setup cycles, charged once per page walk.
    pub walk_base_cycles: u64,
    /// Cycles per page-walk memory reference.
    pub walk_ref_cycles: u64,
    /// Stall cycles per shootdown IPI delivered to the core.
    pub ipi_stall_cycles: u64,
}

impl Default for LatencyModel {
    /// Table 3 tie-in: 7-cycle L2 lookup; 2 + 12·refs walk, so the
    /// canonical 4-reference walk costs the paper's flat 50 cycles; IPI
    /// stalls use the coherence layer's delivery cost.
    fn default() -> Self {
        Self {
            l2_lookup_cycles: 7,
            walk_base_cycles: 2,
            walk_ref_cycles: 12,
            ipi_stall_cycles: eeat_energy::IPI_DELIVER_CYCLES,
        }
    }
}

/// A log-bucketed histogram of `u64` samples with exact counts.
///
/// Values below 32 get one bucket each (translation latencies 0 and 7 — the
/// overwhelming majority — are exact); larger values land in 16 sub-buckets
/// per power-of-two octave, bounding relative bucket error at 1/16. Storage
/// is one fixed `Box<[u64]>` (~7.7 KiB); recording is an index computation
/// and an add, with no allocation and no floating point, so counts and
/// percentiles are bit-identical across platforms and run orders.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyHistogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    total: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            total: 0,
            max: 0,
        }
    }

    /// The bucket index of `value`.
    #[inline]
    fn index(value: u64) -> usize {
        if value < LINEAR_CUTOFF {
            return value as usize;
        }
        // Exponent e >= 5; the top SUB_BUCKETS-worth of mantissa selects
        // the sub-bucket within the octave.
        let e = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (e - 4)) as usize) - SUB_BUCKETS;
        LINEAR_CUTOFF as usize + (e - 5) * SUB_BUCKETS + sub
    }

    /// The smallest value mapping to bucket `index` (what percentiles
    /// report: a deterministic lower bound, never an interpolation).
    fn lower_bound(index: usize) -> u64 {
        if index < LINEAR_CUTOFF as usize {
            return index as u64;
        }
        let rel = index - LINEAR_CUTOFF as usize;
        let e = 5 + rel / SUB_BUCKETS;
        let sub = (rel % SUB_BUCKETS) as u64;
        (SUB_BUCKETS as u64 + sub) << (e - 4)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value (the bulk path the cycle-class
    /// accumulator flushes through).
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::index(value)] += n;
        self.count += n;
        self.total += value * n;
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// The quantile `q` in `[0, 1]`: the lower bound of the first bucket
    /// whose cumulative count reaches `ceil(q * count)` samples (so `q = 1`
    /// reports the exact maximum). Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                // The max is tracked exactly; never report a bound past it.
                return Self::lower_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (Self::lower_bound(i), c))
            .collect()
    }

    /// The summary object stored in an artifact's `distributions` section:
    /// count/total/max/mean plus p50/p90/p99/p999, and — when
    /// `with_buckets` — the sparse `[lower_bound, count]` bucket list.
    pub fn summary_json(&self, with_buckets: bool) -> Json {
        let mut members = vec![
            ("count", json::num(self.count as f64)),
            ("total", json::num(self.total as f64)),
            ("max", json::num(self.max as f64)),
            ("mean", json::num(self.mean())),
            ("p50", json::num(self.percentile(0.50) as f64)),
            ("p90", json::num(self.percentile(0.90) as f64)),
            ("p99", json::num(self.percentile(0.99) as f64)),
            ("p999", json::num(self.percentile(0.999) as f64)),
        ];
        if with_buckets {
            members.push((
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(v, c)| Json::Arr(vec![json::num(v as f64), json::num(c as f64)]))
                        .collect(),
                ),
            ));
        }
        json::obj(members)
    }
}

/// In-flight classification of the access currently in the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pending {
    /// Between accesses (or before the first).
    Idle,
    /// Access seen, no outcome yet.
    Open,
    L1Hit,
    L2Hit,
    NativeWalk,
    NestedWalk,
}

/// The observer recording one [`LatencyHistogram`] per [`LatencyClass`]
/// from the translation-event stream.
///
/// Attach through any observer seam (`run_with_observer`,
/// `MultiCoreSim::run_with` for per-core/tenant distributions, the bench
/// runner's matrix). Reading accessors ([`histograms`], [`merged`],
/// [`class_histograms`]) flush the internal cycle-class accumulator first,
/// so snapshots are always settled.
///
/// [`histograms`]: LatencyObserver::histograms
/// [`merged`]: LatencyObserver::merged
/// [`class_histograms`]: LatencyObserver::class_histograms
#[derive(Clone, Debug)]
pub struct LatencyObserver {
    model: LatencyModel,
    hists: [LatencyHistogram; 5],
    /// Per-block cycle-class accumulator: fixed-cost classes bump these
    /// integers in the hot path and settle in bulk at flush points.
    pending_l1_hits: u64,
    pending_l2_hits: u64,
    /// Cycles accrued by the access currently in flight.
    cycles: u64,
    state: Pending,
    /// Stall cycles from IPIs delivered since the previous access; absorbed
    /// by (and classifying) the next access.
    pending_stall: u64,
    /// `true` when the in-flight access absorbed a stall.
    stalled: bool,
}

impl Default for LatencyObserver {
    fn default() -> Self {
        Self::new(LatencyModel::default())
    }
}

impl LatencyObserver {
    /// An observer with the given cycle model.
    pub fn new(model: LatencyModel) -> Self {
        Self {
            model,
            hists: [
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
            ],
            pending_l1_hits: 0,
            pending_l2_hits: 0,
            cycles: 0,
            state: Pending::Idle,
            pending_stall: 0,
            stalled: false,
        }
    }

    /// The cycle model in use.
    pub fn model(&self) -> LatencyModel {
        self.model
    }

    /// Settles the fixed-cost accumulator into its buckets.
    fn flush_pending(&mut self) {
        let l1 = std::mem::take(&mut self.pending_l1_hits);
        self.hists[LatencyClass::L1Hit as usize].record_n(0, l1);
        let l2 = std::mem::take(&mut self.pending_l2_hits);
        self.hists[LatencyClass::L2Hit as usize].record_n(self.model.l2_lookup_cycles, l2);
    }

    /// One settled histogram per class, in [`LatencyClass::ALL`] order.
    pub fn histograms(&mut self) -> &[LatencyHistogram; 5] {
        self.flush_pending();
        &self.hists
    }

    /// Settled `(class, histogram)` pairs.
    pub fn class_histograms(&mut self) -> Vec<(LatencyClass, LatencyHistogram)> {
        self.flush_pending();
        LatencyClass::ALL
            .into_iter()
            .map(|c| (c, self.hists[c as usize].clone()))
            .collect()
    }

    /// All classes merged into one distribution.
    pub fn merged(&mut self) -> LatencyHistogram {
        self.flush_pending();
        let mut all = LatencyHistogram::new();
        for h in &self.hists {
            all.merge(h);
        }
        all
    }

    /// Closes out the in-flight access, recording it under its class.
    fn finish_access(&mut self) {
        let state = std::mem::replace(&mut self.state, Pending::Idle);
        let class = match state {
            Pending::Idle => return,
            // A stalled access is classified by its stall regardless of how
            // its own translation resolved.
            _ if self.stalled => LatencyClass::ShootdownStalled,
            Pending::L1Hit if self.cycles == 0 => {
                self.pending_l1_hits += 1;
                return;
            }
            Pending::L2Hit if self.cycles == self.model.l2_lookup_cycles => {
                self.pending_l2_hits += 1;
                return;
            }
            Pending::L1Hit => LatencyClass::L1Hit,
            Pending::L2Hit => LatencyClass::L2Hit,
            Pending::NativeWalk | Pending::Open => LatencyClass::NativeWalk,
            Pending::NestedWalk => LatencyClass::NestedWalk,
        };
        self.hists[class as usize].record(self.cycles);
    }
}

impl Observer for LatencyObserver {
    #[inline]
    fn on_event(&mut self, event: &TranslationEvent) {
        match *event {
            TranslationEvent::Access { .. } => {
                // Normally closed by StepEnd; closing here too keeps the
                // observer correct on truncated streams.
                self.finish_access();
                self.cycles = std::mem::take(&mut self.pending_stall);
                self.stalled = self.cycles > 0;
                self.state = Pending::Open;
            }
            TranslationEvent::L1Hit { .. } => self.state = Pending::L1Hit,
            TranslationEvent::L1Miss => self.cycles += self.model.l2_lookup_cycles,
            TranslationEvent::L2Hit { .. } => self.state = Pending::L2Hit,
            TranslationEvent::L2Miss => {
                self.state = Pending::NativeWalk;
                self.cycles += self.model.walk_base_cycles;
            }
            TranslationEvent::PageWalk { memory_refs } => {
                self.cycles += self.model.walk_ref_cycles * u64::from(memory_refs);
            }
            TranslationEvent::NestedWalk { .. } => self.state = Pending::NestedWalk,
            TranslationEvent::IpiDelivered { .. } => {
                self.pending_stall += self.model.ipi_stall_cycles;
            }
            TranslationEvent::StepEnd => self.finish_access(),
            TranslationEvent::BlockEnd => self.flush_pending(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..LINEAR_CUTOFF {
            h.record_n(v, v + 1);
        }
        assert_eq!(h.count(), (1..=LINEAR_CUTOFF).sum::<u64>());
        for (i, (lb, c)) in h.nonzero_buckets().into_iter().enumerate() {
            assert_eq!(lb, i as u64);
            assert_eq!(c, i as u64 + 1);
        }
    }

    #[test]
    fn bucket_bounds_invert_the_index() {
        // Every bucket's lower bound maps back to that bucket, and indexes
        // are monotone in the value.
        for i in 0..BUCKETS {
            let lb = LatencyHistogram::lower_bound(i);
            assert_eq!(LatencyHistogram::index(lb), i, "bucket {i} lb {lb}");
        }
        let mut last = 0;
        for v in [0, 1, 7, 31, 32, 33, 50, 57, 297, 1000, 65_536, u64::MAX] {
            let i = LatencyHistogram::index(v);
            assert!(i >= last, "index not monotone at {v}");
            assert!(LatencyHistogram::lower_bound(i) <= v);
            last = i;
        }
        assert!(LatencyHistogram::index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn relative_bucket_error_is_bounded() {
        // Above the cutoff, a bucket's width is at most lb/16.
        for v in [32u64, 57, 100, 297, 12_345, 1 << 40] {
            let lb = LatencyHistogram::lower_bound(LatencyHistogram::index(v));
            assert!(v - lb <= lb / SUB_BUCKETS as u64, "{v} -> {lb}");
        }
    }

    #[test]
    fn percentiles_scan_ranks() {
        let mut h = LatencyHistogram::new();
        h.record_n(0, 90); // p50, p90 land here
        h.record_n(7, 9); // p99
        h.record(297); // p999..max
        assert_eq!(h.percentile(0.50), 0);
        assert_eq!(h.percentile(0.90), 0);
        assert_eq!(h.percentile(0.99), 7);
        // 297 is above the cutoff: the percentile reports its bucket's
        // lower bound, clamped by the exact max.
        let p = h.percentile(0.999);
        assert!(p <= 297 && 297 - p <= 297 / 16, "p999 = {p}");
        assert_eq!(h.percentile(1.0), h.percentile(0.9999));
        assert_eq!(h.max(), 297);
        assert_eq!(h.total(), 7 * 9 + 297);
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        a.record(7);
        both.record(7);
        for v in [57u64, 297] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn summary_json_has_the_schema_fields() {
        let mut h = LatencyHistogram::new();
        h.record_n(7, 10);
        let s = h.summary_json(true);
        for key in [
            "count", "total", "max", "mean", "p50", "p90", "p99", "p999", "buckets",
        ] {
            assert!(s.get(key).is_some(), "missing {key}");
        }
        assert!(h.summary_json(false).get("buckets").is_none());
    }

    fn step(obs: &mut LatencyObserver, events: &[TranslationEvent]) {
        obs.on_event(&TranslationEvent::Access { instruction_gap: 1 });
        for e in events {
            obs.on_event(e);
        }
        obs.on_event(&TranslationEvent::StepEnd);
    }

    #[test]
    fn observer_classifies_and_prices_outcomes() {
        use eeat_types::events::HitColumn;
        let mut obs = LatencyObserver::default();
        step(
            &mut obs,
            &[TranslationEvent::L1Hit {
                column: HitColumn::FourK,
            }],
        );
        step(
            &mut obs,
            &[
                TranslationEvent::L1Miss,
                TranslationEvent::L2Hit { range: false },
            ],
        );
        step(
            &mut obs,
            &[
                TranslationEvent::L1Miss,
                TranslationEvent::L2Miss,
                TranslationEvent::PageWalk { memory_refs: 4 },
            ],
        );
        step(
            &mut obs,
            &[
                TranslationEvent::L1Miss,
                TranslationEvent::L2Miss,
                TranslationEvent::PageWalk { memory_refs: 24 },
                TranslationEvent::NestedWalk {
                    guest_refs: 4,
                    host_refs: 20,
                },
            ],
        );
        let h = obs.histograms();
        assert_eq!(h[LatencyClass::L1Hit as usize].total(), 0);
        assert_eq!(h[LatencyClass::L2Hit as usize].total(), 7);
        // Native 4-ref walk: 7 + 2 + 48 = 57 (the flat model's 7 + 50).
        assert_eq!(h[LatencyClass::NativeWalk as usize].total(), 57);
        // Cold nested walk: 7 + 2 + 12*24 = 297.
        assert_eq!(h[LatencyClass::NestedWalk as usize].total(), 297);
    }

    #[test]
    fn ipi_stall_classifies_the_next_access() {
        use eeat_types::events::HitColumn;
        let mut obs = LatencyObserver::default();
        obs.on_event(&TranslationEvent::IpiDelivered { invalidations: 3 });
        obs.on_event(&TranslationEvent::IpiDelivered { invalidations: 0 });
        step(
            &mut obs,
            &[TranslationEvent::L1Hit {
                column: HitColumn::FourK,
            }],
        );
        step(
            &mut obs,
            &[TranslationEvent::L1Hit {
                column: HitColumn::FourK,
            }],
        );
        let stall = LatencyModel::default().ipi_stall_cycles;
        let h = obs.histograms();
        let stalled = &h[LatencyClass::ShootdownStalled as usize];
        assert_eq!(stalled.count(), 1, "only the first access absorbs it");
        assert_eq!(stalled.total(), 2 * stall);
        assert_eq!(h[LatencyClass::L1Hit as usize].count(), 1);
    }

    #[test]
    fn accumulator_is_flush_frequency_independent() {
        use eeat_types::events::HitColumn;
        let hit = [TranslationEvent::L1Hit {
            column: HitColumn::FourK,
        }];
        let mut eager = LatencyObserver::default();
        let mut lazy = LatencyObserver::default();
        for i in 0..10 {
            step(&mut eager, &hit);
            eager.on_event(&TranslationEvent::BlockEnd);
            step(&mut lazy, &hit);
            if i == 9 {
                lazy.on_event(&TranslationEvent::BlockEnd);
            }
        }
        assert_eq!(eager.histograms(), lazy.histograms());
    }
}
