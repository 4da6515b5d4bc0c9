//! Per-epoch telemetry: a time-series observer over the translation-event
//! stream.
//!
//! [`EpochSeries`] samples one [`EpochRow`] per instruction bucket: MPKI
//! (the Figure 4 timeline, which `eeat-bench` draws from these rows),
//! per-structure hit counts, range-TLB hit ratio, walk traffic,
//! shootdowns, multi-core coherence traffic (ASID retags, shootdown IPIs
//! sent/delivered), Lite activity, the LRU-distance utility histograms of
//! every monitored structure, and — when an energy observer is embedded —
//! per-bucket picojoules.
//!
//! In a multi-core simulation each core carries its own `EpochSeries`
//! (attached through `MultiCoreSim::run_with`); [`per_core_jsonl`] merges
//! the per-core series into one stream with a `core` tag on every row.
//!
//! A bucket closes at the first step end at or past its instruction mark,
//! which is exactly where a `Simulator::run` to that absolute mark stops;
//! `tests/series_reference.rs` holds every row to such a chunked run.

use eeat_energy::EnergyObserver;
use eeat_types::events::{HitColumn, Observer, ResizableUnit, TranslationEvent};

use crate::json::{self, Json};

/// Number of monitored resizable units (`ResizableUnit` variants).
const UNITS: usize = 3;
/// Maximum LRU-distance counters per unit (`log2(64) + 1`).
const LRU: usize = 7;

fn unit_index(unit: ResizableUnit) -> usize {
    match unit {
        ResizableUnit::L1FourK => 0,
        ResizableUnit::L1TwoM => 1,
        ResizableUnit::L1FullyAssoc => 2,
    }
}

const UNIT_NAMES: [&str; UNITS] = ["lru_l1_4k", "lru_l1_2m", "lru_l1_fa"];

/// Cumulative event counters (everything an [`EpochRow`] differences).
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    accesses: u64,
    l1_misses: u64,
    l2_misses: u64,
    l1_hits_4k: u64,
    l1_hits_2m: u64,
    l1_hits_1g: u64,
    l1_hits_range: u64,
    l2_hits_page: u64,
    l2_hits_range: u64,
    walk_refs: u64,
    guest_walk_refs: u64,
    host_walk_refs: u64,
    range_walks: u64,
    shootdowns: u64,
    context_switches: u64,
    asid_switches: u64,
    ipis_sent: u64,
    ipis_delivered: u64,
    ipi_invalidations: u64,
    lite_epochs: u64,
    lite_reactivations: u64,
}

/// One bucket of the telemetry series. Counter fields are per-bucket
/// deltas; `instructions` and `l1_4k_ways` are the state at bucket close.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRow {
    /// Instructions executed at the end of the bucket.
    pub instructions: u64,
    /// L1 TLB MPKI within the bucket (the Figure 4 timeline's y-axis).
    pub l1_mpki: f64,
    /// L2 TLB MPKI within the bucket.
    pub l2_mpki: f64,
    /// Active ways of the L1-4KB TLB at bucket close (4 when Lite is off,
    /// 0 when the hierarchy has none).
    pub l1_4k_ways: usize,
    /// Memory accesses in the bucket.
    pub accesses: u64,
    /// L1 misses in the bucket.
    pub l1_misses: u64,
    /// L2 misses (page walks) in the bucket.
    pub l2_misses: u64,
    /// L1 hits served by the 4KB column.
    pub l1_hits_4k: u64,
    /// L1 hits served by the 2MB column.
    pub l1_hits_2m: u64,
    /// L1 hits served by the 1GB column.
    pub l1_hits_1g: u64,
    /// L1 hits served by the range column.
    pub l1_hits_range: u64,
    /// L2 hits served by the page L2 TLB.
    pub l2_hits_page: u64,
    /// L2 hits served by the L2-range TLB.
    pub l2_hits_range: u64,
    /// Fraction of the bucket's accesses served by a range TLB (L1 or L2).
    pub range_hit_ratio: f64,
    /// Page-walk memory references in the bucket (total; in virtualized
    /// mode this includes the host dimension).
    pub walk_refs: u64,
    /// Guest-dimension references of nested walks in the bucket (0 in
    /// native mode, where walks carry no `NestedWalk` breakdown).
    pub guest_walk_refs: u64,
    /// Host-dimension references of nested walks in the bucket (EPT
    /// fetches for guest paging structures and data frames).
    pub host_walk_refs: u64,
    /// Background range-table walks in the bucket.
    pub range_walks: u64,
    /// Precise TLB shootdowns in the bucket.
    pub shootdowns: u64,
    /// Context switches in the bucket.
    pub context_switches: u64,
    /// ASID-retagging context switches (multi-core scheduler) in the bucket.
    pub asid_switches: u64,
    /// Cross-core shootdown IPIs sent in the bucket (one per remote core
    /// signalled).
    pub ipis_sent: u64,
    /// Shootdown IPIs received and processed in the bucket.
    pub ipis_delivered: u64,
    /// Entries invalidated by delivered IPIs in the bucket.
    pub ipi_invalidations: u64,
    /// Lite intervals completed in the bucket.
    pub lite_epochs: u64,
    /// Lite full re-activations in the bucket.
    pub lite_reactivations: u64,
    /// Summed LRU-distance counters per monitored unit (4K, 2M, FA) over
    /// the bucket's Lite intervals; only `lru[u][..lru_len[u]]` meaningful.
    pub lru: [[u64; LRU]; UNITS],
    /// Meaningful counter count per unit (0 = unit not monitored).
    pub lru_len: [u8; UNITS],
    /// Dynamic energy spent in the bucket, picojoules (0 without an
    /// embedded energy observer). Probe and fill counts reach observers
    /// once per block, so up to one block of them lands in the next bucket.
    pub energy_pj: f64,
    /// Energy per access in the bucket, picojoules.
    pub pj_per_access: f64,
}

impl EpochRow {
    /// The row as a compact JSON object (LRU arrays included only for
    /// monitored units).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("instructions", json::num(self.instructions as f64)),
            ("l1_mpki", json::num(self.l1_mpki)),
            ("l2_mpki", json::num(self.l2_mpki)),
            ("l1_4k_ways", json::num(self.l1_4k_ways as f64)),
            ("accesses", json::num(self.accesses as f64)),
            ("l1_misses", json::num(self.l1_misses as f64)),
            ("l2_misses", json::num(self.l2_misses as f64)),
            ("l1_hits_4k", json::num(self.l1_hits_4k as f64)),
            ("l1_hits_2m", json::num(self.l1_hits_2m as f64)),
            ("l1_hits_1g", json::num(self.l1_hits_1g as f64)),
            ("l1_hits_range", json::num(self.l1_hits_range as f64)),
            ("l2_hits_page", json::num(self.l2_hits_page as f64)),
            ("l2_hits_range", json::num(self.l2_hits_range as f64)),
            ("range_hit_ratio", json::num(self.range_hit_ratio)),
            ("walk_refs", json::num(self.walk_refs as f64)),
            ("guest_walk_refs", json::num(self.guest_walk_refs as f64)),
            ("host_walk_refs", json::num(self.host_walk_refs as f64)),
            ("range_walks", json::num(self.range_walks as f64)),
            ("shootdowns", json::num(self.shootdowns as f64)),
            ("context_switches", json::num(self.context_switches as f64)),
            ("asid_switches", json::num(self.asid_switches as f64)),
            ("ipis_sent", json::num(self.ipis_sent as f64)),
            ("ipis_delivered", json::num(self.ipis_delivered as f64)),
            (
                "ipi_invalidations",
                json::num(self.ipi_invalidations as f64),
            ),
            ("lite_epochs", json::num(self.lite_epochs as f64)),
            (
                "lite_reactivations",
                json::num(self.lite_reactivations as f64),
            ),
            ("energy_pj", json::num(self.energy_pj)),
            ("pj_per_access", json::num(self.pj_per_access)),
        ];
        for ((name, hist), &len) in UNIT_NAMES.iter().zip(&self.lru).zip(&self.lru_len) {
            let len = len as usize;
            if len > 0 {
                members.push((
                    *name,
                    Json::Arr(hist[..len].iter().map(|&c| json::num(c as f64)).collect()),
                ));
            }
        }
        json::obj(members)
    }
}

/// The telemetry observer: buckets the event stream into [`EpochRow`]s.
#[derive(Clone, Debug)]
pub struct EpochSeries {
    bucket: u64,
    bucket_end: u64,
    instructions: u64,
    cum: Counters,
    last_instructions: u64,
    last: Counters,
    l1_4k_ways: usize,
    /// Active size per resizable unit at this instant, tracked from probe
    /// and settle events (needed to settle the energy clone mid-epoch).
    active: [Option<u32>; UNITS],
    lru: [[u64; LRU]; UNITS],
    lru_len: [u8; UNITS],
    energy: Option<EnergyObserver>,
    last_energy_pj: f64,
    rows: Vec<EpochRow>,
}

impl EpochSeries {
    /// Creates a series sampling every `bucket` instructions, starting from
    /// `start_instructions` with the L1-4KB TLB at `l1_4k_ways` (0 when the
    /// hierarchy has none). Pass an [`EnergyObserver`] configured like the
    /// simulator's own to get per-bucket energy columns.
    ///
    /// # Panics
    ///
    /// Panics when `bucket` is zero.
    pub fn new(
        start_instructions: u64,
        bucket: u64,
        l1_4k_ways: usize,
        energy: Option<EnergyObserver>,
    ) -> Self {
        assert!(bucket > 0, "bucket must be non-zero");
        Self {
            bucket,
            bucket_end: start_instructions + bucket,
            instructions: start_instructions,
            cum: Counters::default(),
            last_instructions: start_instructions,
            last: Counters::default(),
            l1_4k_ways,
            active: [None; UNITS],
            lru: [[0; LRU]; UNITS],
            lru_len: [0; UNITS],
            energy,
            last_energy_pj: 0.0,
            rows: Vec::new(),
        }
    }

    /// The rows sampled so far.
    pub fn rows(&self) -> &[EpochRow] {
        &self.rows
    }

    /// Consumes the observer, returning the series.
    pub fn into_rows(self) -> Vec<EpochRow> {
        self.rows
    }

    /// Cumulative energy including operations not yet settled by a Lite
    /// epoch: settles a *clone* of the embedded observer at the currently
    /// tracked sizes (sizes only change at epoch boundaries, which settle
    /// for real, so every pending operation ran at the tracked size).
    fn energy_now_pj(&self) -> f64 {
        let Some(energy) = &self.energy else {
            return 0.0;
        };
        let mut settled = energy.clone();
        settled.on_event(&TranslationEvent::EpochSettle {
            l1_4k_ways: self.active[unit_index(ResizableUnit::L1FourK)],
            l1_2m_ways: self.active[unit_index(ResizableUnit::L1TwoM)],
            l1_fa_entries: self.active[unit_index(ResizableUnit::L1FullyAssoc)],
        });
        settled.snapshot().total_pj()
    }

    fn close_bucket(&mut self) {
        let delta_instr = self.instructions - self.last_instructions;
        let kilo = delta_instr as f64 / 1000.0;
        let l1_mpki = (self.cum.l1_misses - self.last.l1_misses) as f64 / kilo;
        let l2_mpki = (self.cum.l2_misses - self.last.l2_misses) as f64 / kilo;

        let d = |cur: u64, prev: u64| cur - prev;
        let accesses = d(self.cum.accesses, self.last.accesses);
        let l1_hits_range = d(self.cum.l1_hits_range, self.last.l1_hits_range);
        let l2_hits_range = d(self.cum.l2_hits_range, self.last.l2_hits_range);
        let range_hit_ratio = if accesses == 0 {
            0.0
        } else {
            (l1_hits_range + l2_hits_range) as f64 / accesses as f64
        };
        let energy_total = self.energy_now_pj();
        let energy_pj = energy_total - self.last_energy_pj;
        let pj_per_access = if accesses == 0 {
            0.0
        } else {
            energy_pj / accesses as f64
        };
        self.rows.push(EpochRow {
            instructions: self.instructions,
            l1_mpki,
            l2_mpki,
            l1_4k_ways: self.l1_4k_ways,
            accesses,
            l1_misses: d(self.cum.l1_misses, self.last.l1_misses),
            l2_misses: d(self.cum.l2_misses, self.last.l2_misses),
            l1_hits_4k: d(self.cum.l1_hits_4k, self.last.l1_hits_4k),
            l1_hits_2m: d(self.cum.l1_hits_2m, self.last.l1_hits_2m),
            l1_hits_1g: d(self.cum.l1_hits_1g, self.last.l1_hits_1g),
            l1_hits_range,
            l2_hits_page: d(self.cum.l2_hits_page, self.last.l2_hits_page),
            l2_hits_range,
            range_hit_ratio,
            walk_refs: d(self.cum.walk_refs, self.last.walk_refs),
            guest_walk_refs: d(self.cum.guest_walk_refs, self.last.guest_walk_refs),
            host_walk_refs: d(self.cum.host_walk_refs, self.last.host_walk_refs),
            range_walks: d(self.cum.range_walks, self.last.range_walks),
            shootdowns: d(self.cum.shootdowns, self.last.shootdowns),
            context_switches: d(self.cum.context_switches, self.last.context_switches),
            asid_switches: d(self.cum.asid_switches, self.last.asid_switches),
            ipis_sent: d(self.cum.ipis_sent, self.last.ipis_sent),
            ipis_delivered: d(self.cum.ipis_delivered, self.last.ipis_delivered),
            ipi_invalidations: d(self.cum.ipi_invalidations, self.last.ipi_invalidations),
            lite_epochs: d(self.cum.lite_epochs, self.last.lite_epochs),
            lite_reactivations: d(self.cum.lite_reactivations, self.last.lite_reactivations),
            lru: self.lru,
            lru_len: self.lru_len,
            energy_pj,
            pj_per_access,
        });
        self.last_instructions = self.instructions;
        self.last = self.cum;
        self.last_energy_pj = energy_total;
        self.lru = [[0; LRU]; UNITS];
        self.bucket_end += self.bucket;
    }

    /// JSONL export: one compact object per row.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&row.to_json().to_compact());
            out.push('\n');
        }
        out
    }

    /// CSV export of the scalar columns (LRU histograms are JSONL-only).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "instructions,l1_mpki,l2_mpki,l1_4k_ways,accesses,l1_misses,l2_misses,\
             l1_hits_4k,l1_hits_2m,l1_hits_1g,l1_hits_range,l2_hits_page,l2_hits_range,\
             range_hit_ratio,walk_refs,guest_walk_refs,host_walk_refs,range_walks,\
             shootdowns,context_switches,\
             asid_switches,ipis_sent,ipis_delivered,ipi_invalidations,\
             lite_epochs,lite_reactivations,energy_pj,pj_per_access\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                r.instructions,
                r.l1_mpki,
                r.l2_mpki,
                r.l1_4k_ways,
                r.accesses,
                r.l1_misses,
                r.l2_misses,
                r.l1_hits_4k,
                r.l1_hits_2m,
                r.l1_hits_1g,
                r.l1_hits_range,
                r.l2_hits_page,
                r.l2_hits_range,
                r.range_hit_ratio,
                r.walk_refs,
                r.guest_walk_refs,
                r.host_walk_refs,
                r.range_walks,
                r.shootdowns,
                r.context_switches,
                r.asid_switches,
                r.ipis_sent,
                r.ipis_delivered,
                r.ipi_invalidations,
                r.lite_epochs,
                r.lite_reactivations,
                r.energy_pj,
                r.pj_per_access,
            ));
        }
        out
    }
}

/// JSONL export of several cores' series as one stream: every row carries a
/// leading `core` member naming the series it came from. Rows are grouped
/// by core (core 0's rows first), so per-core slices stay contiguous.
pub fn per_core_jsonl(cores: &[EpochSeries]) -> String {
    let mut out = String::new();
    for (core, series) in cores.iter().enumerate() {
        for row in series.rows() {
            let mut json = row.to_json();
            if let Json::Obj(members) = &mut json {
                members.insert(0, ("core".to_string(), json::num(core as f64)));
            }
            out.push_str(&json.to_compact());
            out.push('\n');
        }
    }
    out
}

impl Observer for EpochSeries {
    #[inline]
    fn on_event(&mut self, event: &TranslationEvent) {
        if let Some(energy) = &mut self.energy {
            energy.on_event(event);
        }
        match *event {
            TranslationEvent::Access { instruction_gap } => {
                self.instructions += u64::from(instruction_gap);
                self.cum.accesses += 1;
            }
            TranslationEvent::Probe { unit, active, .. } => {
                self.active[unit_index(unit)] = Some(active);
            }
            TranslationEvent::L1Hit { column } => match column {
                HitColumn::FourK => self.cum.l1_hits_4k += 1,
                HitColumn::TwoM => self.cum.l1_hits_2m += 1,
                HitColumn::OneG => self.cum.l1_hits_1g += 1,
                HitColumn::Range => self.cum.l1_hits_range += 1,
            },
            TranslationEvent::L1Miss => self.cum.l1_misses += 1,
            TranslationEvent::L2Hit { range: false } => self.cum.l2_hits_page += 1,
            TranslationEvent::L2Hit { range: true } => self.cum.l2_hits_range += 1,
            TranslationEvent::L2Miss => self.cum.l2_misses += 1,
            TranslationEvent::PageWalk { memory_refs } => {
                self.cum.walk_refs += u64::from(memory_refs);
            }
            TranslationEvent::NestedWalk {
                guest_refs,
                host_refs,
            } => {
                self.cum.guest_walk_refs += u64::from(guest_refs);
                self.cum.host_walk_refs += u64::from(host_refs);
            }
            TranslationEvent::RangeTableWalk { .. } => self.cum.range_walks += 1,
            TranslationEvent::Shootdown => self.cum.shootdowns += 1,
            TranslationEvent::ContextSwitch => self.cum.context_switches += 1,
            TranslationEvent::AsidSwitch { .. } => self.cum.asid_switches += 1,
            TranslationEvent::ShootdownIpi { recipients } => {
                self.cum.ipis_sent += u64::from(recipients);
            }
            TranslationEvent::IpiDelivered { invalidations } => {
                self.cum.ipis_delivered += 1;
                self.cum.ipi_invalidations += invalidations;
            }
            TranslationEvent::EpochMonitor {
                unit,
                counters,
                len,
            } => {
                let u = unit_index(unit);
                self.lru_len[u] = len;
                for (acc, c) in self.lru[u].iter_mut().zip(counters) {
                    *acc += c;
                }
            }
            TranslationEvent::EpochSettle {
                l1_4k_ways,
                l1_2m_ways,
                l1_fa_entries,
            } => {
                // Authoritative sizes at the epoch boundary.
                self.active = [l1_4k_ways, l1_2m_ways, l1_fa_entries];
            }
            TranslationEvent::EpochEnd {
                reactivated,
                l1_4k_ways,
            } => {
                self.cum.lite_epochs += 1;
                if reactivated {
                    self.cum.lite_reactivations += 1;
                }
                if let Some(ways) = l1_4k_ways {
                    self.l1_4k_ways = ways as usize;
                }
            }
            TranslationEvent::StepEnd if self.instructions >= self.bucket_end => {
                self.close_bucket();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(gap: u32) -> TranslationEvent {
        TranslationEvent::Access {
            instruction_gap: gap,
        }
    }

    #[test]
    fn buckets_close_at_the_first_step_past_each_mark() {
        let mut s = EpochSeries::new(0, 1000, 4, None);
        for _ in 0..7 {
            s.on_event(&access(300));
            s.on_event(&TranslationEvent::L1Miss);
            s.on_event(&TranslationEvent::StepEnd);
        }
        // Buckets close at 1200 and 2100 instructions (the first StepEnd at
        // or past each bucket boundary: 1000 and 2000).
        let rows = s.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].instructions, 1200);
        assert_eq!(rows[0].accesses, 4);
        assert_eq!(rows[0].l1_misses, 4);
        assert!((rows[0].l1_mpki - 4.0 / 1.2).abs() < 1e-12);
        assert_eq!(rows[1].instructions, 2100);
        assert_eq!(rows[1].l1_misses, 3);
    }

    #[test]
    fn range_hit_ratio_counts_both_levels() {
        let mut s = EpochSeries::new(0, 100, 0, None);
        for hit_range in [true, false, true, true] {
            s.on_event(&access(50));
            if hit_range {
                s.on_event(&TranslationEvent::L1Hit {
                    column: HitColumn::Range,
                });
            } else {
                s.on_event(&TranslationEvent::L1Miss);
                s.on_event(&TranslationEvent::L2Hit { range: true });
            }
            s.on_event(&TranslationEvent::StepEnd);
        }
        let rows = s.rows();
        assert!(!rows.is_empty());
        assert_eq!(rows[0].range_hit_ratio, 1.0);
    }

    #[test]
    fn lru_histograms_accumulate_and_reset_per_bucket() {
        let mut s = EpochSeries::new(0, 100, 4, None);
        let monitor = |counters: [u64; 3]| {
            let mut padded = [0u64; 7];
            padded[..3].copy_from_slice(&counters);
            TranslationEvent::EpochMonitor {
                unit: ResizableUnit::L1FourK,
                counters: padded,
                len: 3,
            }
        };
        s.on_event(&access(10));
        s.on_event(&monitor([5, 3, 1]));
        s.on_event(&monitor([1, 1, 1]));
        s.on_event(&access(100));
        s.on_event(&TranslationEvent::StepEnd);
        let row = &s.rows()[0];
        assert_eq!(row.lru_len[0], 3);
        assert_eq!(&row.lru[0][..3], &[6, 4, 2]);

        // The next bucket starts from zero.
        s.on_event(&access(100));
        s.on_event(&TranslationEvent::StepEnd);
        assert_eq!(&s.rows()[1].lru[0][..3], &[0, 0, 0]);
    }

    #[test]
    fn ways_track_epoch_end() {
        let mut s = EpochSeries::new(0, 100, 4, None);
        s.on_event(&access(10));
        s.on_event(&TranslationEvent::EpochEnd {
            reactivated: true,
            l1_4k_ways: Some(2),
        });
        s.on_event(&access(100));
        s.on_event(&TranslationEvent::StepEnd);
        let row = &s.rows()[0];
        assert_eq!(row.l1_4k_ways, 2);
        assert_eq!(row.lite_epochs, 1);
        assert_eq!(row.lite_reactivations, 1);
    }

    #[test]
    fn nested_walk_dimensions_are_split_out() {
        let mut s = EpochSeries::new(0, 10, 0, None);
        // A cold virtualized 4K walk: 24 total references, 4 of them in
        // the guest dimension and 20 in the host dimension.
        s.on_event(&TranslationEvent::PageWalk { memory_refs: 24 });
        s.on_event(&TranslationEvent::NestedWalk {
            guest_refs: 4,
            host_refs: 20,
        });
        s.on_event(&access(20));
        s.on_event(&TranslationEvent::StepEnd);
        let row = &s.rows()[0];
        assert_eq!(row.walk_refs, 24);
        assert_eq!(row.guest_walk_refs, 4);
        assert_eq!(row.host_walk_refs, 20);
        // Native walks leave the per-dimension columns at zero.
        s.on_event(&TranslationEvent::PageWalk { memory_refs: 4 });
        s.on_event(&access(10));
        s.on_event(&TranslationEvent::StepEnd);
        let row = &s.rows()[1];
        assert_eq!(row.walk_refs, 4);
        assert_eq!((row.guest_walk_refs, row.host_walk_refs), (0, 0));
    }

    #[test]
    fn shootdowns_and_switches_are_counted() {
        let mut s = EpochSeries::new(0, 10, 0, None);
        s.on_event(&TranslationEvent::Shootdown);
        s.on_event(&TranslationEvent::ContextSwitch);
        s.on_event(&access(20));
        s.on_event(&TranslationEvent::StepEnd);
        let row = &s.rows()[0];
        assert_eq!(row.shootdowns, 1);
        assert_eq!(row.context_switches, 1);
    }

    #[test]
    fn coherence_events_are_counted() {
        let mut s = EpochSeries::new(0, 10, 0, None);
        s.on_event(&TranslationEvent::AsidSwitch { asid: 3 });
        s.on_event(&TranslationEvent::ShootdownIpi { recipients: 3 });
        s.on_event(&TranslationEvent::ShootdownIpi { recipients: 0 });
        s.on_event(&TranslationEvent::IpiDelivered { invalidations: 2 });
        s.on_event(&TranslationEvent::IpiDelivered { invalidations: 0 });
        s.on_event(&access(20));
        s.on_event(&TranslationEvent::StepEnd);
        let row = &s.rows()[0];
        assert_eq!(row.asid_switches, 1);
        assert_eq!(row.ipis_sent, 3, "one IPI per remote core signalled");
        assert_eq!(row.ipis_delivered, 2);
        assert_eq!(row.ipi_invalidations, 2);
        // The next bucket differences back to zero.
        s.on_event(&access(10));
        s.on_event(&TranslationEvent::StepEnd);
        assert_eq!(s.rows()[1].ipis_delivered, 0);
    }

    #[test]
    fn per_core_jsonl_tags_every_row() {
        let mut cores = vec![
            EpochSeries::new(0, 10, 0, None),
            EpochSeries::new(0, 10, 0, None),
        ];
        for (i, s) in cores.iter_mut().enumerate() {
            for _ in 0..=i {
                s.on_event(&access(20));
                s.on_event(&TranslationEvent::StepEnd);
            }
        }
        let jsonl = per_core_jsonl(&cores);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for (line, want_core) in lines.iter().zip([0.0, 1.0, 1.0]) {
            let parsed = crate::json::parse(line).expect("row parses");
            assert_eq!(parsed.get("core").and_then(Json::as_f64), Some(want_core));
        }
    }

    #[test]
    fn exports_parse_back() {
        let mut s = EpochSeries::new(0, 10, 4, None);
        s.on_event(&access(20));
        s.on_event(&TranslationEvent::L1Miss);
        s.on_event(&TranslationEvent::StepEnd);
        let jsonl = s.to_jsonl();
        let first = jsonl.lines().next().expect("one row");
        let parsed = crate::json::parse(first).expect("row parses");
        assert_eq!(
            parsed.get("instructions").and_then(Json::as_f64),
            Some(20.0)
        );
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 2, "header + one row");
        assert!(csv.starts_with("instructions,"));
    }
}
