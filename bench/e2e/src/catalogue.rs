//! Every metric the benchmark reports, by name: the same sets
//! `BENCHMARK.json` declares (a unit test holds the two together).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// them, from the untraced run only.
pub const END_TO_END: [Metric; 5] = [
    lo("setup_s", "s"),
    hi("items_per_s", "1/s"),
    hi("items_per_s_p1", "1/s"),
    lo("job_latency_p50_ms", "ms"),
    lo("peak_rss_mib", "MiB"),
];

/// Single layers, `<crate>.<module>.<name>`, from the traced run only. A
/// metric reads 0 on a workload that does not exercise its layer.
pub const PER_LAYER: [Metric; 97] = [
    // pm.mem — raw word access (isolated loops)
    lo("pm.mem.load_ns", "ns"),
    lo("pm.mem.store_ns", "ns"),
    lo("pm.mem.cam_ns", "ns"),
    lo("pm.mem.store_mmap_ns", "ns"),
    lo("pm.mem.cam_mmap_ns", "ns"),
    // pm.proc — costed access
    lo("pm.proc.pread_ns", "ns"),
    lo("pm.proc.pwrite_ns", "ns"),
    lo("pm.proc.pcam_ns", "ns"),
    lo("pm.proc.block_read_ns_per_word", "ns"),
    lo("pm.proc.block_write_ns_per_word", "ns"),
    lo("pm.proc.stage_flush_ns_per_word", "ns"),
    lo("pm.proc.pread_over_load_x", "x"),
    lo("pm.proc.pwrite_over_store_x", "x"),
    lo("pm.proc.reads", "count"),
    lo("pm.proc.writes", "count"),
    lo("pm.proc.work_per_item", "count"),
    lo("pm.proc.time_share", "x"),
    // pm.frame
    lo("pm.frame.write_ns", "ns"),
    lo("pm.frame.read_ns", "ns"),
    lo("pm.frame.coalesce_ratio", "x"),
    // pm.backend — the durable file
    lo("pm.backend.create_ms", "ms"),
    lo("pm.backend.open_ms", "ms"),
    lo("pm.backend.flush_full_ms", "ms"),
    lo("pm.backend.flush_dirty_us_per_page", "us"),
    lo("pm.backend.final_flush_ms", "ms"),
    lo("pm.backend.file_bytes_per_item", "B"),
    lo("pm.backend.durable_over_volatile_x", "x"),
    // core
    lo("core.machine.new_ms", "ms"),
    lo("core.machine.rss_growth_mib_per_run", "MiB"),
    lo("core.runner.capsule_ns", "ns"),
    hi("core.runner.capsules_per_s", "1/s"),
    lo("core.runner.capsule_over_pwrite_x", "x"),
    lo("core.dsl.fork_join_ns", "ns"),
    lo("core.dsl.pool_words_per_leaf", "count"),
    lo("core.dsl.vs_plain_loop_x", "x"),
    lo("core.registry.rehydrate_ns", "ns"),
    // sched.capsules — the Figure 3 scheduler
    lo("sched.capsules.sched_capsules_per_fork", "count"),
    lo("sched.capsules.steal_attempts", "count"),
    hi("sched.capsules.steals", "count"),
    hi("sched.capsules.steal_success_ratio", "x"),
    lo("sched.capsules.steal_latency_p50_us", "us"),
    lo("sched.capsules.steal_latency_mean_us", "us"),
    lo("sched.capsules.steal_backoff_p99_us", "us"),
    hi("sched.capsules.speedup_x", "x"),
    lo("sched.capsules.idle_share", "x"),
    lo("sched.capsules.extra_work_x", "x"),
    lo("sched.runtime.empty_run_us", "us"),
    // sched.driver — recovery
    lo("sched.driver.open_ms", "ms"),
    lo("sched.driver.recover_s", "s"),
    hi("sched.driver.resumed_share", "x"),
    lo("sched.driver.replay_work_x", "x"),
    lo("sched.driver.replay_work_par_x", "x"),
    // sched.checkpoint
    lo("sched.checkpoint.attempted", "count"),
    hi("sched.checkpoint.completed", "count"),
    lo("sched.checkpoint.skipped_busy", "count"),
    lo("sched.checkpoint.pages_flushed", "count"),
    hi("sched.checkpoint.words_reclaimed", "count"),
    hi("sched.checkpoint.success_ratio", "x"),
    lo("sched.checkpoint.pages_per_checkpoint", "count"),
    lo("sched.checkpoint.quiesce_p50_us", "us"),
    lo("sched.checkpoint.quiesce_p99_us", "us"),
    lo("sched.checkpoint.time_share", "x"),
    // sched.cluster, sched.service — service mode
    lo("sched.cluster.spawn_ms", "ms"),
    lo("sched.cluster.first_job_ms", "ms"),
    lo("sched.cluster.shutdown_ms", "ms"),
    lo("sched.service.submit_p50_us", "us"),
    lo("sched.service.submit_p99_us", "us"),
    lo("sched.service.status_ns", "ns"),
    lo("sched.service.reclaim_ns", "ns"),
    lo("sched.service.tick_us", "us"),
    lo("sched.service.latency_p99_ms", "ms"),
    lo("sched.service.latency_p50_ms_r1", "ms"),
    lo("sched.service.latency_p99_ms_r1", "ms"),
    lo("sched.service.latency_p50_ms_r3", "ms"),
    lo("sched.service.latency_p99_ms_r3", "ms"),
    hi("sched.service.max_rate_ok_per_s", "1/s"),
    lo("sched.service.backlog_end", "count"),
    lo("sched.service.generator_late_p99_ms", "ms"),
    lo("sched.service.would_block", "count"),
    lo("sched.service.rescues", "count"),
    lo("sched.service.pool_words_per_job", "count"),
    // algs — §7 at P=1
    lo("algs.sort.vs_std_sort_x", "x"),
    lo("algs.sort.capsules_per_item", "count"),
    lo("algs.sort.max_capsule_work", "count"),
    hi("algs.prefix.items_per_s_p1", "1/s"),
    hi("algs.merge.items_per_s_p1", "1/s"),
    hi("algs.mergesort.items_per_s_p1", "1/s"),
    hi("algs.matmul.flops_per_s_p1", "1/s"),
    // obs
    lo("obs.metrics.counter_inc_ns", "ns"),
    lo("obs.metrics.histogram_observe_ns", "ns"),
    lo("obs.metrics.render_us", "us"),
    lo("obs.span.on_over_off_x", "x"),
    lo("obs.span.bytes_per_capsule", "B"),
    // harness
    lo("harness.timer_ns", "ns"),
    lo("harness.trace_overhead_x", "x"),
    hi("harness.trials", "count"),
    hi("harness.span_count", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::Workload;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_used_once() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "metric {} listed twice", m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(seen.insert(w.name()), "workload name {} reused", w.name());
        }
    }

    /// `BENCHMARK.json` and this file declare the same sets, in the same
    /// order, with the same units and directions.
    #[test]
    fn benchmark_json_declares_the_same_sets() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let here = |ms: &[Metric]| -> Vec<(String, String, String)> {
            ms.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), here(&END_TO_END));
        assert_eq!(listed("per_layer"), here(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(
            workloads,
            Workload::ALL.map(Workload::name).to_vec(),
            "BENCHMARK.json workloads"
        );
        for m in spec.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
    }
}
