//! A fixed reference kernel timed beside the simulator, so end-to-end
//! times can be quoted on a steady scale.
//!
//! On a shared host, other tenants slow every process for minutes at a
//! time (SMT siblings, shared caches, frequency); a run's medians cannot
//! outvote that. The kernel — xorshift arithmetic, stores into an
//! L1-resident table and dependent loads from a 1 MiB table, the mix of
//! the simulator's hot loop — shares none of the simulator's code, so a
//! change to the simulator leaves it untouched while a slower host slows
//! both. Sampled between cells all through a pass, its median gives the
//! host's slowdown during that pass.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Kernel ns per step on the reference host (2-core x86-64, idle): the
/// scale end-to-end times are quoted on.
pub const REFERENCE_NS_PER_STEP: f64 = 2.92;

/// Steps per sample: about 5 ms on the reference host.
const STEPS: u64 = 1_500_000;

/// `u64` slots of the pointer-chased table (1 MiB).
const TABLE: usize = 1 << 17;

/// The kernel's state and the samples taken so far.
pub struct Calibration {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Calibration {
    /// A kernel with no samples yet.
    pub fn new() -> Self {
        Self {
            table: (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            samples: Vec::new(),
        }
    }

    /// Times one run of the kernel, after one untimed pass over the table
    /// so the sample does not depend on what the simulator left in the
    /// caches.
    pub fn sample(&mut self) {
        black_box(self.table.iter().fold(0u64, |a, &v| a ^ v));
        let mut small = [0u64; 4096];
        let mut x = 0x1234_5678_9abc_def1u64;
        let mut at = 0usize;
        let start = Instant::now();
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (small.len() - 1);
            small[slot] = small[slot].wrapping_add(x);
            if x & 7 == 0 {
                at = ((self.table[at] ^ x) as usize) & (TABLE - 1);
            }
        }
        let elapsed = start.elapsed();
        black_box((&small, at));
        self.samples.push(elapsed.as_nanos() as f64 / STEPS as f64);
    }

    /// Median kernel ns per step over every sample (NaN before the first).
    pub fn ns_per_step(&self) -> f64 {
        if self.samples.is_empty() {
            f64::NAN
        } else {
            median(&self.samples)
        }
    }

    /// How much slower this host ran than the reference host: multiply a
    /// reference-host time by this to get the measured one.
    pub fn slowdown(&self) -> f64 {
        self.ns_per_step() / REFERENCE_NS_PER_STEP
    }
}
