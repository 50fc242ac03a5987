//! The metrics the benchmark reports: names, units, better-direction and,
//! for end-to-end metrics, the regression bound. `BENCHMARK.json` at the
//! repository root mirrors these tables (a unit test keeps them in step).

/// An end-to-end metric: `(name, unit, better, bound)`. `bound` is the
/// share of the parent's median by which the metric may get worse.
pub type E2e = (&'static str, &'static str, &'static str, f64);

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [E2e; 9] = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_tail", "ms", "lower", 0.25),
    ("throughput_ops_per_s", "1/s", "higher", 0.25),
    ("msgs_per_s", "1/s", "higher", 0.25),
    ("rounds_per_op", "count", "lower", 0.2),
    ("messages_per_op", "count", "lower", 0.2),
    ("weight_ratio_milli", "milli", "lower", 0.15),
    ("mem_peak_mb", "MiB", "lower", 0.15),
];

/// A per-layer metric: `(name, unit, better)`.
pub type Layer = (&'static str, &'static str, &'static str);

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// workload that never calls a layer reports 0 for it: that is the
/// prediction that a change to the layer does not move the workload.
pub const PER_LAYER: [Layer; 59] = [
    ("server.queue_wait_ms_p50", "ms", "lower"),
    ("server.queue_wait_ms_tail", "ms", "lower"),
    ("server.service_ms_p50", "ms", "lower"),
    ("server.backlog_max", "count", "lower"),
    ("server.failed", "count", "lower"),
    ("server.rejected", "count", "lower"),
    ("service.solve_ms_p50.det", "ms", "lower"),
    ("service.solve_ms_p50.rand", "ms", "lower"),
    ("service.solve_ms_p50.khan", "ms", "lower"),
    ("service.solve_ms_p50.collect", "ms", "lower"),
    ("service.pool_checkouts_per_solve", "count", "lower"),
    ("service.pool_builds_steady", "count", "lower"),
    ("service.delta_ms_p50.add", "ms", "lower"),
    ("service.delta_ms_p50.remove", "ms", "lower"),
    ("service.delta_ms_p50.reweight", "ms", "lower"),
    ("service.delta_ms_tail.add", "ms", "lower"),
    ("service.delta_ms_tail.remove", "ms", "lower"),
    ("service.delta_moves_per_op", "count", "lower"),
    ("core.det.messages.bfs", "count", "lower"),
    ("core.det.messages.label_broadcast", "count", "lower"),
    ("core.det.messages.decomposition", "count", "lower"),
    ("core.det.messages.merge_collection", "count", "lower"),
    ("core.det.messages.fc_broadcast", "count", "lower"),
    ("core.det.rounds.bfs", "count", "lower"),
    ("core.det.rounds.label_broadcast", "count", "lower"),
    ("core.det.rounds.decomposition", "count", "lower"),
    ("core.det.rounds.merge_collection", "count", "lower"),
    ("core.det.rounds.fc_broadcast", "count", "lower"),
    ("core.rand.messages.le_lists", "count", "lower"),
    (
        "core.rand.messages.multiplicity_convergecast",
        "count",
        "lower",
    ),
    ("core.rand.messages.label_broadcast", "count", "lower"),
    ("core.rand.messages.request_routing", "count", "lower"),
    ("core.flood.ns_per_msg", "ns", "lower"),
    ("core.voronoi.ns_per_msg", "ns", "lower"),
    ("core.upcast.ns_per_msg", "ns", "lower"),
    ("core.bfs.ns_per_msg", "ns", "lower"),
    ("core.det.replay_coverage_frac", "frac", "higher"),
    ("core.rand.replay_coverage_frac", "frac", "higher"),
    ("embed.build_ms", "ms", "lower"),
    ("embed.le_lists.ns_per_msg", "ns", "lower"),
    ("graph.sp_diameter_ms", "ms", "lower"),
    ("graph.dijkstra_ms", "ms", "lower"),
    ("graph.gen_ms", "ms", "lower"),
    ("congest.gossip.ns_per_msg", "ns", "lower"),
    ("congest.run_overhead_us", "us", "lower"),
    ("congest.sharded.ns_per_msg", "ns", "lower"),
    ("congest.obs.steals", "count", "lower"),
    ("congest.obs.idle_waits", "count", "lower"),
    ("steiner.greedy_ms", "ms", "lower"),
    ("steiner.local_search_ms", "ms", "lower"),
    ("steiner.optimize_ms", "ms", "lower"),
    ("steiner.optimize_moves", "count", "higher"),
    ("workloads.certify_ms", "ms", "lower"),
    ("harness.trace_overhead_frac", "frac", "lower"),
    ("harness.generator_lag_ms_max", "ms", "lower"),
    ("harness.self_ms_per_op", "ms", "lower"),
    ("server.self_ms_per_op", "ms", "lower"),
    ("service.self_ms_per_op", "ms", "lower"),
    ("workloads.self_ms_per_op", "ms", "lower"),
];

/// The unit of a metric named in either table.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The root `BENCHMARK.json` lists every workload and every metric
    /// here with the same unit, direction and bound, and nothing else.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut names = 0;
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "missing {entry}");
            assert!(bound <= 0.25);
            names += 1;
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "missing {entry}");
            names += 1;
        }
        for workload in crate::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            names + crate::WORKLOADS.len(),
            "the workloads and the metrics, nothing else"
        );
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        for name in all {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
