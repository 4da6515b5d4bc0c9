//! Watch the Lite mechanism adapt: way counts over time on a phased
//! workload, including the response to a transparent-huge-page breakdown
//! (the OS demoting 2 MiB pages under memory pressure).
//!
//! ```sh
//! cargo run --release --example lite_adaptation
//! ```

use eeat::core::{Config, Simulator};
use eeat::workloads::Workload;

fn main() {
    let workload = Workload::GemsFDTD; // strongly phased (Figure 4)
    let mut sim = Simulator::from_workload(Config::tlb_lite(), workload, 42);

    println!("Lite on {workload}: way counts sampled every 2 M instructions\n");
    println!(
        "{:>10}  {:>9}  {:>9}  {:>8}  note",
        "instr (M)", "L1-4KB", "L1-2MB", "L1 MPKI"
    );

    let mut note = "";
    for step in 1..=15 {
        let result = sim.run(2_000_000);
        let ways_4k = sim
            .hierarchy()
            .l1_4k()
            .map(|t| t.active_ways())
            .unwrap_or(0);
        let ways_2m = sim
            .hierarchy()
            .l1_2m()
            .map(|t| t.active_ways())
            .unwrap_or(0);
        println!(
            "{:>10}  {:>6}-way  {:>6}-way  {:>8.2}  {}",
            step * 2,
            ways_4k,
            ways_2m,
            result.stats.l1_mpki(),
            note
        );
        note = "";

        if step == 10 {
            // Memory pressure: the OS breaks half the huge pages. The miss
            // burst trips Lite's degradation guard, which re-enables all
            // ways (paper §4.2.2).
            let broken = sim.break_huge_pages(sim.address_space().huge_pages() / 2);
            note = "<- THP breakdown injected";
            eprintln!("[injected: {broken} huge pages demoted to 4 KiB]");
        }
    }

    let lite = sim.lite().expect("TLB_Lite runs Lite");
    println!("\nfinal controller state: {lite}");
    println!(
        "reactivations: {} random, {} degradation-triggered",
        lite.random_reactivations(),
        lite.degradation_reactivations()
    );
}
