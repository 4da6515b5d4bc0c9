//! Figure 4: aggregate L1 TLB MPKI over execution time under fixed L1-4KB
//! TLB sizes — *Base* (4 KiB pages), *64*, *32*, *16* (THP).

use eeat_bench::{fig4_fixed_sizes, Cli, Runner};
use eeat_workloads::Workload;

fn main() {
    let cli = Cli::parse("Figure 4: L1 TLB MPKI timeline under fixed L1-4KB TLB sizes");
    let mut runner = Runner::new("fig4", &cli, &[]);
    let bucket = (cli.instructions / 20).max(1_000_000);

    for workload in cli.workloads(&Workload::TLB_INTENSIVE) {
        eprintln!("running {workload}...");
        let series = fig4_fixed_sizes(workload, cli.instructions, bucket, cli.seed);
        runner.line(&format!("== Figure 4: {workload} — L1 MPKI timeline =="));
        let mut header = format!("{:>14}", "instr (M)");
        for (label, _) in &series {
            header.push_str(&format!("  {label:>8}"));
        }
        runner.line(&header);
        let samples = series[0].1.len();
        for i in 0..samples {
            let mut row = format!("{:>14.0}", series[0].1[i].instructions as f64 / 1e6);
            for (_, timeline) in &series {
                if let Some(p) = timeline.get(i) {
                    row.push_str(&format!("  {:>8.2}", p.l1_mpki));
                } else {
                    row.push_str(&format!("  {:>8}", "-"));
                }
            }
            runner.line(&row);
        }
        runner.blank();
        for (label, timeline) in &series {
            if timeline.is_empty() {
                continue;
            }
            let mean = timeline.iter().map(|p| p.l1_mpki).sum::<f64>() / timeline.len() as f64;
            let last = timeline.last().expect("non-empty").l1_mpki;
            let key = |m: &str| format!("cell/{}/{label}/{m}", workload.name());
            runner.metric(key("l1_mpki_mean"), mean);
            runner.metric(key("l1_mpki_last"), last);
        }
    }
    runner.line("Paper: most workloads keep similar MPKI with smaller L1-4KB TLBs under");
    runner.line("THP, but no single size fits all workloads or all phases.");
    runner.finish();
}
