//! The metric tables: names, units, which direction is better, and the bound
//! by which an end-to-end metric may worsen before it counts as a
//! regression. `BENCHMARK.json` lists the same names (a unit test compares).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Repeats exactly for one input set: any difference between two sets
    /// of runs fails `selfcheck`.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

/// The end-to-end metrics, in print order. Bounds are shares of the
/// baseline's median. The byte and simulated-time metrics repeat exactly
/// for one seed; their bounds leave room for the spread between the serving
/// plans of different seeds, which the driver also holds them to.
pub const END_TO_END: [EndToEnd; 6] = [
    timed("setup_s", "s", 0.25),
    timed("host_ns_per_op", "ns", 0.25),
    exact("sim_stall_ns_per_op", "sim-ns", Better::Lower, 0.09),
    exact("peak_reserved_bytes", "B", Better::Lower, 0.06),
    exact("utilization", "ratio", Better::Higher, 0.09),
    exact("reserved_vs_caching", "ratio", Better::Lower, 0.20),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The per-layer metrics `(name, unit, better)`, in print order. Layer =
/// crate name. None is gated.
pub const PER_LAYER: [(&str, &str, Better); 88] = {
    use Better::{Higher, Lower};
    [
        ("alloc_p50_ns", "ns", Lower),
        ("alloc_p99_ns", "ns", Lower),
        ("workload.ops", "count", Higher),
        ("workload.gen_s", "s", Lower),
        ("workload.timer_ns", "ns", Lower),
        ("workload.self_ns_per_op", "ns", Lower),
        ("workload.raw_host_ns_per_op", "ns", Lower),
        ("workload.speed_factor", "ratio", Lower),
        ("workload.budget_gap", "ratio", Lower),
        ("workload.failed_ops_share", "ratio", Lower),
        ("workload.violations", "count", Lower),
        ("serving.self_ns_per_op", "ns", Lower),
        ("serving.offer_p50_ns", "ns", Lower),
        ("serving.depart_p50_ns", "ns", Lower),
        ("serving.step_p50_ns", "ns", Lower),
        ("serving.step_p99_ns", "ns", Lower),
        ("serving.refused_p50_ns", "ns", Lower),
        ("serving.quota_refusals", "count", Lower),
        ("serving.offers_queued", "count", Lower),
        ("serving.offers_shed", "count", Lower),
        ("serving.tenants_evicted", "count", Lower),
        ("serving.peak_tenants", "count", Higher),
        ("serving.defrag_passes", "count", Lower),
        ("serving.defrag_reclaimed_bytes", "B", Higher),
        ("runtime.self_ns_per_op", "ns", Lower),
        ("runtime.boundary_p50_ns", "ns", Lower),
        ("runtime.fault_retries", "count", Lower),
        ("runtime.rescues", "count", Lower),
        ("alloc-api.self_ns_per_op", "ns", Lower),
        ("alloc-api.absorbed_share", "ratio", Higher),
        ("alloc-api.small_hits", "count", Higher),
        ("alloc-api.small_misses", "count", Lower),
        ("alloc-api.large_hits", "count", Higher),
        ("alloc-api.large_misses", "count", Lower),
        ("alloc-api.cross_stream_parked", "count", Higher),
        ("alloc-api.cross_stream_fallback", "count", Lower),
        ("alloc-api.event_promotions", "count", Higher),
        ("alloc-api.parked_bytes_at_peak", "B", Lower),
        ("alloc-api.reserved_inflation", "ratio", Lower),
        ("core.calls", "count", Lower),
        ("core.incl_ns_per_call", "ns", Lower),
        ("core.alloc_p50_ns", "ns", Lower),
        ("core.alloc_p99_ns", "ns", Lower),
        ("core.free_p50_ns", "ns", Lower),
        ("core.iter_ns_growth", "ratio", Lower),
        ("core.s1_exact", "count", Higher),
        ("core.s2_single", "count", Lower),
        ("core.s3_multi", "count", Lower),
        ("core.s4_insufficient", "count", Lower),
        ("core.stitches", "count", Lower),
        ("core.splits", "count", Lower),
        ("core.evictions", "count", Lower),
        ("core.pblocks_end", "count", Lower),
        ("core.sblocks_end", "count", Lower),
        ("core.journal_failed_ops", "count", Lower),
        ("core.raw_host_ns_per_op", "ns", Lower),
        ("core.raw_peak_reserved_bytes", "B", Lower),
        ("core.raw_reserved_vs_caching", "ratio", Lower),
        ("planning.hit_rate", "ratio", Higher),
        ("planning.plan_hits", "count", Higher),
        ("planning.residue_allocs", "count", Lower),
        ("planning.plans_built", "count", Lower),
        ("planning.replans", "count", Lower),
        ("planning.install_s", "s", Lower),
        ("planning.arena_bytes", "B", Lower),
        ("planning.reserved_vs_reactive", "ratio", Lower),
        ("caching.peak_reserved_bytes", "B", Lower),
        ("caching.utilization", "ratio", Higher),
        ("caching.raw_host_ns_per_op", "ns", Lower),
        ("caching.raw_sim_stall_ns_per_op", "sim-ns", Lower),
        ("gpu-sim.calls_per_op", "1/op", Lower),
        ("gpu-sim.warmup_calls", "count", Lower),
        ("gpu-sim.calls.create", "count", Lower),
        ("gpu-sim.calls.map", "count", Lower),
        ("gpu-sim.calls.unmap", "count", Lower),
        ("gpu-sim.calls.set_access", "count", Lower),
        ("gpu-sim.calls.release", "count", Lower),
        ("gpu-sim.calls.address_reserve", "count", Lower),
        ("gpu-sim.calls.address_free", "count", Lower),
        ("gpu-sim.calls.event_record", "count", Lower),
        ("gpu-sim.calls.event_query", "count", Lower),
        ("gpu-sim.calls.event_sync", "count", Lower),
        ("gpu-sim.sim_ns_in_core_per_op", "sim-ns", Lower),
        ("gpu-sim.sim_event_ns_per_op", "sim-ns", Lower),
        ("gpu-sim.phys_peak_bytes", "B", Lower),
        ("telemetry.trace_overhead_ratio", "ratio", Lower),
        ("telemetry.sink_overhead_ratio", "ratio", Lower),
        ("telemetry.spans", "count", Lower),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;
    use gmlake_telemetry::json::{self, Value};

    fn names(doc: &Value, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("a name")
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let ours: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names(&doc, "end_to_end"), ours);
        for (listed, m) in doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(
                listed.get("unit").and_then(Value::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                listed.get("better").and_then(Value::as_str),
                Some(m.better.label())
            );
            assert_eq!(
                listed.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let ours: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names(&doc, "per_layer"), ours);
        let ours: Vec<&str> = crate::inputs::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names(&doc, "workloads"), ours);
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
