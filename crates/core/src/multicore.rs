//! Multi-core, multi-tenant simulation: `N` cores each owning a
//! [`TlbHierarchy`](crate::TlbHierarchy) and MMU caches, `M` tenants
//! round-robin scheduled across them with ASID-tagged context switches, and
//! a cross-core TLB-shootdown IPI bus.
//!
//! The single-core simulator models multiprogramming with
//! [`Simulator::set_flush_interval`] — an ASID-less context switch that
//! flushes everything. This module is the ASID upgrade: each tenant keeps
//! its own address space (backed by a disjoint shard of physical memory, so
//! PFNs never collide), every TLB entry carries the owning tenant's ASID,
//! and a context switch merely retags the structures
//! ([`TlbHierarchy::set_current_asid`]) and flushes the *untagged* MMU
//! paging-structure caches. Warm TLB state survives a tenant's time off
//! core.
//!
//! Coherence is modelled explicitly: when a core demotes one of its current
//! tenant's huge pages, the local structures take a precise ASID-tagged
//! shootdown ([`TlbHierarchy::invalidate`](crate::TlbHierarchy::invalidate)
//! with an [`Invalidate::Page`] scope whose `asid` is the tenant's), and
//! every *other* core that may hold the tenant's translations (it ran the
//! tenant at least once) is sent an IPI over a sequence-numbered FIFO bus.
//! Delivery applies the same scope there, sparing the receiving core's
//! other tenants and global entries. IPIs are delivered at the receiving
//! core's next quantum boundary — latency of at most one quantum,
//! deterministic regardless of host parallelism. Sends, deliveries, and
//! ASID retags cost cycles and energy through [`eeat_energy::IpiObserver`]
//! riding each core's event stream.
//!
//! With `cores = 1, tenants = 1` the driver degenerates to the plain
//! single-core simulator: no switches, no IPIs, one energy settle per
//! [`MultiCoreSim::run`] — bit-identical results for *any* quantum (the
//! golden-parity regression test pins this).

use std::collections::VecDeque;
use std::mem;

use eeat_energy::{IpiBreakdown, IpiObserver};
use eeat_os::{AddressSpace, ShardedFrameAllocator};
use eeat_tlb::{Invalidate, ASID_MASK};
use eeat_types::events::{Observer, TranslationEvent};
use eeat_types::{MemAccess, PageSize, VirtAddr};
use eeat_workloads::{Workload, WorkloadSpec};

use crate::config::Config;
use crate::setup::{self, AccessSource};
use crate::simulator::{RunResult, Simulator, DEFAULT_BLOCK};
use crate::stats::SimStats;

/// Physical frames given to *each* tenant: the single-core default
/// (16 GiB of 4 KiB frames), so every tenant lays out exactly as a plain
/// [`Simulator`] tenant does no matter how many tenants share the machine.
/// Shards are disjoint, so PFNs never collide across tenants.
const FRAMES_PER_TENANT: u64 = (16u64 << 30) >> 12;

/// Shape of a multi-core simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiCoreParams {
    /// Hardware contexts, each with its own TLB hierarchy and MMU caches.
    pub cores: usize,
    /// Tenants (address spaces) scheduled across the cores. Must be at
    /// least `cores`; tenant `t` owns ASID `t`.
    pub tenants: usize,
    /// Instructions each core runs between scheduling/IPI-delivery
    /// boundaries.
    pub quantum: u64,
    /// Huge pages each core demotes (with cross-core shootdown fan-out)
    /// per quantum; 0 disables background demotion.
    pub demotions_per_quantum: u64,
}

impl MultiCoreParams {
    /// `cores` cores, one tenant per core, 100k-instruction quanta, no
    /// background demotion.
    pub fn symmetric(cores: usize) -> Self {
        Self {
            cores,
            tenants: cores,
            quantum: 100_000,
            demotions_per_quantum: 0,
        }
    }
}

/// One core's cumulative results.
#[derive(Clone, Debug)]
pub struct CoreResult {
    /// Tenant currently installed on the core.
    pub tenant: usize,
    /// The core's translation accounting (misses, energy, cycles).
    pub run: RunResult,
    /// The core's coherence-traffic accounting (IPIs, ASID switches).
    pub ipi: IpiBreakdown,
}

/// Results of a [`MultiCoreSim::run`], one entry per core.
#[derive(Clone, Debug)]
pub struct MultiCoreResult {
    /// Per-core results, indexed by core id.
    pub per_core: Vec<CoreResult>,
}

impl MultiCoreResult {
    /// Coherence traffic summed over all cores.
    pub fn total_ipi(&self) -> IpiBreakdown {
        self.per_core
            .iter()
            .fold(IpiBreakdown::default(), |acc, c| acc.merged(&c.ipi))
    }

    /// Instructions executed, summed over all cores.
    pub fn total_instructions(&self) -> u64 {
        self.per_core.iter().map(|c| c.run.stats.instructions).sum()
    }

    /// L2 misses (page walks) per kilo-instruction across all cores.
    pub fn l2_mpki(&self) -> f64 {
        let misses: u64 = self.per_core.iter().map(|c| c.run.stats.l2_misses).sum();
        misses as f64 / (self.total_instructions() as f64 / 1000.0)
    }
}

/// An off-core tenant: everything the simulator swaps at a context switch.
/// The partially consumed access block travels with the tenant — leftover
/// accesses belong to *its* trace, not the core's.
struct TenantState {
    address_space: AddressSpace,
    source: AccessSource,
    size_oracle: crate::simulator::SizeOracle,
    block_buf: Vec<MemAccess>,
    block_pos: usize,
}

/// One hardware context.
struct CoreSlot {
    sim: Simulator,
    ipi: IpiObserver,
    /// `resident[t]`: tenant `t` has run here at least once, so this core's
    /// structures may hold its translations (a monotonic, conservative
    /// shootdown filter — real kernels track `mm_cpumask` the same way).
    resident: Vec<bool>,
    tenant: usize,
}

/// A posted shootdown IPI, tagged with its global sequence number (the
/// bus-order the differential oracle replays).
#[derive(Clone, Copy, Debug)]
struct Ipi {
    seq: u64,
    asid: u16,
    va: VirtAddr,
}

/// Per-core FIFO IPI queues with a global total order.
struct IpiBus {
    queues: Vec<VecDeque<Ipi>>,
    seq: u64,
}

/// The multi-core driver: owns the cores, the parked tenants, the ready
/// queue, and the IPI bus, and advances everything in deterministic
/// quantum-sized steps.
pub struct MultiCoreSim {
    cores: Vec<CoreSlot>,
    /// Off-core tenant state, indexed by tenant id (`None` while on core).
    parked: Vec<Option<TenantState>>,
    /// Round-robin ready queue of parked tenant ids.
    ready: VecDeque<usize>,
    bus: IpiBus,
    quantum: u64,
    demotions_per_quantum: u64,
    /// Completed quanta (scheduling epochs) so far.
    quanta: u64,
}

impl MultiCoreSim {
    /// Builds a multi-core simulation where every tenant runs `workload`
    /// (with per-tenant seeds, so layouts and traces differ) under the same
    /// organization `config` on every core.
    pub fn from_workload(
        config: Config,
        workload: Workload,
        params: MultiCoreParams,
        seed: u64,
    ) -> Self {
        Self::from_spec(config, &workload.spec(), params, seed)
    }

    /// Builds a multi-core simulation for an arbitrary workload spec.
    ///
    /// Tenant `t` gets seed `seed.wrapping_add(t)` (tenant 0 uses `seed`
    /// exactly, preserving single-tenant parity) and its own disjoint,
    /// 2 MiB-aligned shard of 16 GiB of physical frames (the single-core
    /// default).
    ///
    /// # Panics
    ///
    /// Panics when `cores` is zero, `tenants < cores`, `quantum` is zero,
    /// or `tenants` exceeds the ASID space.
    pub fn from_spec(
        config: Config,
        spec: &WorkloadSpec,
        params: MultiCoreParams,
        seed: u64,
    ) -> Self {
        assert!(params.cores >= 1, "at least one core");
        assert!(
            params.tenants >= params.cores,
            "every core needs a tenant: {} tenants < {} cores",
            params.tenants,
            params.cores
        );
        assert!(params.quantum > 0, "quantum must be non-zero");
        assert!(
            params.tenants <= ASID_MASK as usize + 1,
            "{} tenants exceed the {}-wide ASID space",
            params.tenants,
            ASID_MASK as usize + 1
        );

        let mut shards = ShardedFrameAllocator::new(
            FRAMES_PER_TENANT * params.tenants as u64,
            params.tenants as u64,
        );
        // Virtualized tenants additionally get a disjoint shard of *host*
        // physical frames for their EPTs, laid out like the guest shards.
        let mut host_shards = config.depth.is_virtualized().then(|| {
            ShardedFrameAllocator::new(
                FRAMES_PER_TENANT * params.tenants as u64,
                params.tenants as u64,
            )
        });
        let mut parked: Vec<Option<TenantState>> = (0..params.tenants)
            .map(|t| {
                let tseed = seed.wrapping_add(t as u64);
                let mut address_space =
                    AddressSpace::with_allocator(config.policy, shards.take_shard(), tseed);
                if let Some(host_shards) = &mut host_shards {
                    address_space.virtualize_with(host_shards.take_shard());
                }
                let (address_space, generator) = setup::populate_spec(address_space, spec, tseed);
                let size_oracle = setup::size_oracle_for(&address_space);
                Some(TenantState {
                    address_space,
                    source: AccessSource::Synthetic(generator),
                    size_oracle,
                    block_buf: Vec::new(),
                    block_pos: 0,
                })
            })
            .collect();

        let cores = (0..params.cores)
            .map(|c| {
                let t = parked[c].take().expect("tenant built above");
                let mut sim =
                    setup::assemble_with_source(config.clone(), t.address_space, t.source, seed);
                sim.hierarchy.set_current_asid(c as u16);
                let mut resident = vec![false; params.tenants];
                resident[c] = true;
                CoreSlot {
                    sim,
                    ipi: IpiObserver::new(),
                    resident,
                    tenant: c,
                }
            })
            .collect();

        Self {
            cores,
            parked,
            ready: (params.cores..params.tenants).collect(),
            bus: IpiBus {
                queues: vec![VecDeque::new(); params.cores],
                seq: 0,
            },
            quantum: params.quantum,
            demotions_per_quantum: params.demotions_per_quantum,
            quanta: 0,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.parked.len()
    }

    /// The tenant currently installed on `core`.
    pub fn current_tenant(&self, core: usize) -> usize {
        self.cores[core].tenant
    }

    /// The underlying simulator of `core` (hierarchy, stats, config).
    pub fn simulator(&self, core: usize) -> &Simulator {
        &self.cores[core].sim
    }

    /// Counters of `core` so far.
    pub fn core_stats(&self, core: usize) -> &SimStats {
        self.cores[core].sim.stats()
    }

    /// Coherence-traffic accounting of `core` so far.
    pub fn core_ipi(&self, core: usize) -> IpiBreakdown {
        self.cores[core].ipi.snapshot()
    }

    /// Shootdown IPIs posted but not yet delivered (they land at each
    /// receiving core's next quantum boundary).
    pub fn pending_ipis(&self) -> usize {
        self.bus.queues.iter().map(VecDeque::len).sum()
    }

    /// Delivers every queued IPI to `core`: an ASID-tagged precise
    /// shootdown across its structures, plus a paging-structure-cache
    /// invalidation when the IPI targets the tenant currently on core (the
    /// untagged MMU caches only ever hold the current tenant's entries).
    fn deliver<E: Observer>(&mut self, core: usize, extra: &mut E) {
        let CoreSlot {
            sim, ipi, tenant, ..
        } = &mut self.cores[core];
        let mut last_seq = None;
        while let Some(msg) = self.bus.queues[core].pop_front() {
            // The bus is FIFO per core and sequence numbers are globally
            // monotonic, so delivery must follow posting order.
            assert!(
                last_seq.is_none_or(|s| s < msg.seq),
                "IPI bus delivered out of order"
            );
            last_seq = Some(msg.seq);
            let mut invalidations = sim.hierarchy.invalidate(Invalidate::Page {
                va: msg.va,
                asid: Some(msg.asid),
            });
            if msg.asid as usize == *tenant {
                // Untagged walker state holds only the current tenant's
                // entries; in virtualized mode the guest invalidation also
                // flushes the walk's combined nested-TLB entries.
                invalidations += sim.invalidate_walker(msg.va);
            }
            sim.sinks.emit(
                &mut (&mut *ipi, &mut *extra),
                TranslationEvent::IpiDelivered { invalidations },
            );
        }
    }

    /// Round-robin reschedule of `core` at a quantum boundary: the current
    /// tenant goes to the back of the ready queue and the head comes on
    /// core. A real switch retags the ASID-aware structures and flushes
    /// only the untagged MMU caches — warm TLB entries survive.
    fn reschedule<E: Observer>(&mut self, core: usize, extra: &mut E) {
        let old = self.cores[core].tenant;
        self.ready.push_back(old);
        let next = self.ready.pop_front().expect("queue never empty here");
        if next == old {
            // tenants == cores: the queue was empty, the push/pop cancelled
            // out, and the core keeps its tenant — no switch, no events.
            return;
        }
        let mut t = self.parked[next].take().expect("a ready tenant is parked");
        let slot = &mut self.cores[core];
        let sim = &mut slot.sim;
        mem::swap(&mut sim.address_space, &mut t.address_space);
        mem::swap(&mut sim.source, &mut t.source);
        mem::swap(&mut sim.size_oracle, &mut t.size_oracle);
        mem::swap(&mut sim.block_buf, &mut t.block_buf);
        mem::swap(&mut sim.block_pos, &mut t.block_pos);
        self.parked[old] = Some(t);
        slot.tenant = next;
        slot.resident[next] = true;
        sim.hierarchy.set_current_asid(next as u16);
        // Paging-structure caches are not ASID-tagged; a switch flushes
        // them (the TLBs, which are tagged, keep every tenant's entries).
        // Under virtualization a tenant switch is a VM switch: the host
        // caches and the nested TLB's combined entries go too.
        sim.walker.flush();
        sim.sinks.emit(
            &mut (&mut slot.ipi, extra),
            TranslationEvent::AsidSwitch { asid: next as u16 },
        );
    }

    /// Demotes up to `max_pages` of the *current* tenant's huge pages on
    /// `core` back to 4 KiB pages, with a precise local ASID-tagged
    /// shootdown per page and IPI fan-out to every other core whose
    /// structures may hold the tenant's translations. Returns how many
    /// pages were demoted.
    pub fn demote_huge_pages(&mut self, core: usize, max_pages: u64) -> u64 {
        self.demote_with(core, max_pages, &mut ())
    }

    fn demote_with<E: Observer>(&mut self, core: usize, max_pages: u64, extra: &mut E) -> u64 {
        let tenant = self.cores[core].tenant;
        let asid = tenant as u16;
        let mut victims: Vec<u64> = self.cores[core].sim.size_oracle.huge_keys().collect();
        victims.truncate(max_pages as usize);
        let recipients: Vec<usize> = (0..self.cores.len())
            .filter(|&other| other != core && self.cores[other].resident[tenant])
            .collect();
        let mut broken = 0;
        for key in victims {
            let va = VirtAddr::new(key << 21);
            let CoreSlot { sim, ipi, .. } = &mut self.cores[core];
            if sim.address_space.break_huge_page(va).is_none() {
                continue;
            }
            sim.size_oracle.set(key, PageSize::Size4K);
            // invlpg semantics, scoped to the owning ASID: other tenants'
            // translations of unrelated address spaces are untouched.
            sim.hierarchy.invalidate(Invalidate::Page {
                va,
                asid: Some(asid),
            });
            sim.invalidate_walker(va);
            sim.sinks
                .emit(&mut (&mut *ipi, &mut *extra), TranslationEvent::Shootdown);
            broken += 1;
            for &other in &recipients {
                self.bus.queues[other].push_back(Ipi {
                    seq: self.bus.seq,
                    asid,
                    va,
                });
                self.bus.seq += 1;
            }
            let CoreSlot { sim, ipi, .. } = &mut self.cores[core];
            sim.sinks.emit(
                &mut (&mut *ipi, &mut *extra),
                TranslationEvent::ShootdownIpi {
                    recipients: recipients.len() as u32,
                },
            );
        }
        broken
    }

    /// Runs every core for `instructions_per_core` more instructions in
    /// quantum-sized steps. Each quantum, in core order: deliver pending
    /// IPIs, reschedule (from the second quantum of the simulation on),
    /// demote huge pages when configured, then execute the slice.
    ///
    /// Results are cumulative across `run` calls. Energy is settled once
    /// per call (not per quantum), so a single-core, single-tenant run is
    /// bit-identical to [`Simulator::run`] for any quantum.
    pub fn run(&mut self, instructions_per_core: u64) -> MultiCoreResult {
        let mut taps: Vec<()> = vec![(); self.cores.len()];
        self.run_with(instructions_per_core, &mut taps)
    }

    /// Like [`MultiCoreSim::run`], but fans each core's full event stream —
    /// including the [`TranslationEvent::AsidSwitch`] /
    /// [`TranslationEvent::ShootdownIpi`] / [`TranslationEvent::IpiDelivered`]
    /// coherence events — out to `observers[core]` as well as the core's own
    /// accounting sinks. Observers are pure accumulators, so the simulation
    /// is bit-identical to a plain [`MultiCoreSim::run`].
    ///
    /// # Panics
    ///
    /// Panics when `observers.len()` differs from the core count.
    pub fn run_with<E: Observer>(
        &mut self,
        instructions_per_core: u64,
        observers: &mut [E],
    ) -> MultiCoreResult {
        assert_eq!(
            observers.len(),
            self.cores.len(),
            "one observer per core: got {} for {} cores",
            observers.len(),
            self.cores.len()
        );
        let mut remaining = instructions_per_core;
        while remaining > 0 {
            let slice = remaining.min(self.quantum);
            for (core, tap) in observers.iter_mut().enumerate() {
                self.deliver(core, &mut *tap);
                if self.quanta > 0 {
                    self.reschedule(core, &mut *tap);
                }
                if self.demotions_per_quantum > 0 {
                    self.demote_with(core, self.demotions_per_quantum, &mut *tap);
                }
                let CoreSlot { sim, ipi, .. } = &mut self.cores[core];
                sim.run_inner(slice, DEFAULT_BLOCK, &mut (&mut *ipi, tap));
            }
            self.quanta += 1;
            remaining -= slice;
        }
        let per_core = self
            .cores
            .iter_mut()
            .zip(observers.iter_mut())
            .map(|(slot, extra)| CoreResult {
                tenant: slot.tenant,
                run: slot.sim.result_with(&mut (&mut slot.ipi, extra)),
                ipi: slot.ipi.snapshot(),
            })
            .collect();
        MultiCoreResult { per_core }
    }
}
