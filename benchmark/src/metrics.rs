//! Every metric the benchmark reports: name, unit and better direction,
//! exactly as `BENCHMARK.json` lists them.

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Name, as printed and as keyed in the artifact.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the simulator sees: host time of the plain pass.
pub const END_TO_END: [Metric; 6] = [
    m("setup_s", "s", "lower"),
    m("sim_mips", "Minstr/s", "higher"),
    m("wall_s", "s", "lower"),
    m("ns_per_acc_p50", "ns", "lower"),
    m("ns_per_acc_p99", "ns", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-crate layer metrics of the traced pass.
pub const PER_LAYER: [Metric; 30] = [
    m("workloads.fill_ns_per_acc", "ns", "lower"),
    m("workloads.read_trace_s", "s", "lower"),
    m("workloads.generator_new_s", "s", "lower"),
    m("os.populate_s", "s", "lower"),
    m("core.assemble_s", "s", "lower"),
    m("core.run_ns_per_acc", "ns", "lower"),
    m("core.self_ns_per_acc", "ns", "lower"),
    m("core.asid_switches", "count", "lower"),
    m("core.ipis_sent", "count", "lower"),
    m("core.ipi_invalidations", "count", "lower"),
    m("core.lite_intervals", "count", "higher"),
    m("core.lite_reactivations", "count", "lower"),
    m("tlb.l1_mpki", "1/kinstr", "lower"),
    m("tlb.l2_mpki", "1/kinstr", "lower"),
    m("tlb.l1_hit_ratio", "ratio", "higher"),
    m("tlb.l2_hit_ratio", "ratio", "higher"),
    m("tlb.lookup_ns", "ns", "lower"),
    m("paging.walks", "count", "lower"),
    m("paging.refs_per_walk", "refs", "lower"),
    m("paging.host_refs_per_walk", "refs", "lower"),
    m("paging.walk_ns", "ns", "lower"),
    m("paging.est_share", "ratio", "lower"),
    m("energy.pj_per_acc", "pJ", "lower"),
    m("energy.miss_cycles_per_kinst", "cycles/kinstr", "lower"),
    m("energy.sink_ns_per_acc", "ns", "lower"),
    m("obs.latency_ns_per_acc", "ns", "lower"),
    m("obs.series_ns_per_acc", "ns", "lower"),
    m("bench.chunks", "count", "higher"),
    m("bench.attributed_share", "ratio", "higher"),
    m("bench.trace_overhead", "ratio", "lower"),
];

/// The unit of metric `name`.
///
/// # Panics
///
/// Panics for a name neither table lists.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unlisted metric {name}"))
        .unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use eeat_obs::json::{self, Json};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_plain_identifiers() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        for w in crate::plan::Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "metric names repeat");
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_leading"));
    }

    /// `(name, unit, better)` of each entry of one `BENCHMARK.json` list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|e| {
                let field = |f: &str| e.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_bin_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[Metric]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        let ours: Vec<&str> = crate::plan::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
