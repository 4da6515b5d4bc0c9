//! Per-cell correctness checks and the tally behind `fail_rate`.

use std::panic::{self, AssertUnwindSafe};

use eeat_core::{RunResult, SimStats};

/// Relative energy tolerance between a chunked and a single-call run: the
/// extra settle events of a chunked run reorder float additions only.
const ENERGY_TOLERANCE: f64 = 1e-12;

/// Cells attempted and failed in one process.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that panicked or failed a check.
    pub failed: u64,
}

impl Tally {
    /// Runs one cell. A panic or an `Err` counts the cell as failed and
    /// reports it on stderr; the run goes on either way.
    pub fn attempt<T>(&mut self, cell: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let error = match panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(message)) => message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string()),
        };
        self.failed += 1;
        eprintln!("cell {cell} FAILED: {error}");
        None
    }

    /// Failed ÷ attempted (0 when nothing ran).
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The accounting identities every run must satisfy, per core.
pub fn invariants(results: &[RunResult], virtualized: bool) -> Result<(), String> {
    for (core, r) in results.iter().enumerate() {
        let s = &r.stats;
        let fail = |what: &str| Err(format!("core {core}: {what} ({s:?})"));
        if s.l1_hits() + s.l1_misses != s.accesses {
            return fail("L1 hits + misses != accesses");
        }
        if s.l2_hits_page + s.l2_hits_range + s.l2_misses != s.l1_misses {
            return fail("L2 hits + walks != L1 misses");
        }
        if virtualized && s.guest_walk_refs + s.host_walk_refs != s.walk_memory_refs {
            return fail("guest + host refs != walk refs");
        }
    }
    Ok(())
}

/// A latency histogram must hold exactly one sample per access.
pub fn latency_count(recorded: u64, accesses: u64) -> Result<(), String> {
    if recorded == accesses {
        Ok(())
    } else {
        Err(format!(
            "latency observer recorded {recorded} of {accesses} accesses"
        ))
    }
}

/// A chunked run must reproduce the single-call run: bit-identical
/// counters and energy within [`ENERGY_TOLERANCE`].
pub fn same_run(chunked: &[RunResult], single: &[RunResult]) -> Result<(), String> {
    if chunked.len() != single.len() {
        return Err("core counts differ".to_string());
    }
    for (core, (a, b)) in chunked.iter().zip(single).enumerate() {
        if a.stats != b.stats {
            return Err(format!(
                "core {core}: chunked counters {:?} != single-call {:?}",
                a.stats, b.stats
            ));
        }
        let (ea, eb) = (a.energy.total_pj(), b.energy.total_pj());
        let scale = ea.abs().max(eb.abs());
        if scale > 0.0 && (ea - eb).abs() / scale > ENERGY_TOLERANCE {
            return Err(format!(
                "core {core}: chunked energy {ea} pJ != single-call {eb} pJ"
            ));
        }
    }
    Ok(())
}

/// Adds `b`'s counters that the benchmark reports into `a`.
pub fn add(a: &mut SimStats, b: &SimStats) {
    a.instructions += b.instructions;
    a.accesses += b.accesses;
    a.l1_misses += b.l1_misses;
    a.l2_misses += b.l2_misses;
    a.walk_memory_refs += b.walk_memory_refs;
    a.host_walk_refs += b.host_walk_refs;
    a.lite_intervals += b.lite_intervals;
    a.lite_reactivations += b.lite_reactivations;
    a.asid_switches += b.asid_switches;
    a.ipis_sent += b.ipis_sent;
    a.ipi_invalidations += b.ipi_invalidations;
}

/// Counters summed over cores.
pub fn total(results: &[RunResult]) -> SimStats {
    let mut t = SimStats::default();
    for r in results {
        add(&mut t, &r.stats);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use eeat_core::{Config, Simulator};
    use eeat_workloads::Workload;

    #[test]
    fn a_broken_invariant_fails_its_cell_without_aborting_the_run() {
        let mut sim = Simulator::from_workload(Config::four_k(), Workload::Mcf, 1);
        let good = vec![sim.run(20_000)];
        let mut broken = good.clone();
        broken[0].stats.l1_misses += 1;

        let mut tally = Tally::default();
        assert!(tally.attempt("good", || invariants(&good, false)).is_some());
        assert!(tally
            .attempt("broken", || invariants(&broken, false))
            .is_none());
        assert!(tally
            .attempt("panics", || -> Result<(), String> { panic!("injected") })
            .is_none());
        assert!(tally
            .attempt("after", || invariants(&good, false))
            .is_some());
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.fail_rate(), 0.5);

        assert!(same_run(&good, &good).is_ok());
        assert!(same_run(&broken, &good).is_err());
        assert!(latency_count(3, 4).is_err());
    }
}
