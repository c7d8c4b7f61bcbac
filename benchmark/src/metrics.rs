//! The names every later performance claim must use.
//!
//! `END_TO_END` is what a user of the system sees and what a change is gated
//! on; each workload emits every one of them, so they are named by role and
//! each workload states what fills the role (`README.md`, "Metric
//! glossary"). `PER_LAYER` is the traced run: one entry per number a layer
//! optimisation is likely to move. `BENCHMARK.json` mirrors both tables; a
//! unit test keeps them in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: relative worsening that counts as a regression.
    pub bound: Option<f64>,
    /// Per-layer: a count or virtual time that must repeat exactly between
    /// two runs of the same code at the same sizes.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [MetricDef; 3] = [
    // Median of several full set-ups in one run: input generation,
    // reference results, warm-up. The build is excluded.
    e2e("setup_s", "s", Lower, 0.25),
    // The workload's throughput operation, completed per host second.
    e2e("ops_per_s", "1/s", Higher, 0.25),
    // Median host time of the workload's latency operation.
    e2e("op_ns", "ns", Lower, 0.25),
];

pub const PER_LAYER: [MetricDef; 86] = [
    // fabric
    layer("fabric.rtt_p50_ns", "ns", Lower),
    layer("fabric.rtt_p99_ns", "ns", Lower),
    layer("fabric.oneway_per_s", "1/s", Higher),
    layer("fabric.overflow_oneway_per_s", "1/s", Higher),
    layer("fabric.bringup_us", "us", Lower),
    layer("fabric.spawn_join_p50_ns", "ns", Lower),
    layer("fabric.metrics_probe_ns", "ns", Lower),
    layer("fabric.msgs_sent", "count", Lower),
    layer("fabric.bytes_sent", "B", Lower),
    // am
    layer("am.rtt_p50_ns", "ns", Lower),
    layer("am.rtt_p99_ns", "ns", Lower),
    layer("am.self_p50_ns", "ns", Lower),
    layer("am.oneway_per_s", "1/s", Higher),
    layer("am.coalesced_oneway_per_s", "1/s", Higher),
    layer("am.agg_msgs_per_flush", "ratio", Higher),
    layer("am.bulk_mb_per_s", "MB/s", Higher),
    layer("am.barrier_p50_ns", "ns", Lower),
    layer("am.polls_per_handler", "ratio", Lower),
    layer("am.handlers_run", "count", Lower),
    // threads
    layer("threads.spawn_join_p50_ns", "ns", Lower),
    layer("threads.yield_p50_ns", "ns", Lower),
    layer("threads.mutex_pair_ns", "ns", Lower),
    layer("threads.syncvar_wake_p50_ns", "ns", Lower),
    exact("threads.creates", "count"),
    exact("threads.switches", "count"),
    exact("threads.sync_ops", "count"),
    // splitc
    layer("splitc.read_p50_ns", "ns", Lower),
    layer("splitc.read_p99_ns", "ns", Lower),
    layer("splitc.write_p50_ns", "ns", Lower),
    layer("splitc.get_p50_ns", "ns", Lower),
    layer("splitc.bulk_read_8k_p50_ns", "ns", Lower),
    layer("splitc.barrier_p50_ns", "ns", Lower),
    layer("splitc.self_p50_ns", "ns", Lower),
    layer("splitc.store_sync_us", "us", Lower),
    layer("splitc.store_per_s", "1/s", Higher),
    layer("splitc.bulk_mb_per_s", "MB/s", Higher),
    layer("splitc.bulk_store_p50_ns", "ns", Lower),
    // ccxx
    layer("ccxx.rmi_p50_ns", "ns", Lower),
    layer("ccxx.rmi_p90_ns", "ns", Lower),
    layer("ccxx.rmi_p99_ns", "ns", Lower),
    layer("ccxx.rmi_mean_ns", "ns", Lower),
    layer("ccxx.rmi_per_s", "1/s", Higher),
    layer("ccxx.self_p50_ns", "ns", Lower),
    layer("ccxx.rmi_blocking_p50_ns", "ns", Lower),
    layer("ccxx.rmi_threaded_p50_ns", "ns", Lower),
    layer("ccxx.rmi_atomic_p50_ns", "ns", Lower),
    layer("ccxx.gp_read_p50_ns", "ns", Lower),
    layer("ccxx.gp_write_p50_ns", "ns", Lower),
    layer("ccxx.cold_rmi_ns", "ns", Lower),
    layer("ccxx.init_finalize_us", "us", Lower),
    layer("ccxx.over_splitc_rtt", "ratio", Lower),
    // apps
    layer("apps.em3d_base_splitc_s", "s", Lower),
    layer("apps.em3d_ghost_splitc_s", "s", Lower),
    layer("apps.em3d_bulk_splitc_s", "s", Lower),
    layer("apps.em3d_ghost_ccxx_s", "s", Lower),
    layer("apps.em3d_bulk_ccxx_s", "s", Lower),
    layer("apps.em3d_splitc_s", "s", Lower),
    layer("apps.em3d_ccxx_s", "s", Lower),
    layer("apps.em3d_ccxx_over_splitc", "ratio", Lower),
    exact("apps.em3d_msgs", "count"),
    layer("apps.graph_gen_ms", "ms", Lower),
    layer("apps.sim_em3d_host_s", "s", Lower),
    layer("apps.sim_water_host_s", "s", Lower),
    layer("apps.sim_lu_host_s", "s", Lower),
    // sim
    layer("sim.host_ns_per_event", "ns", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.micro_ops_per_s", "1/s", Higher),
    layer("sim.null_rmi_host_ns", "ns", Lower),
    layer("sim.threaded_rmi_host_ns", "ns", Lower),
    layer("sim.sc_read_host_ns", "ns", Lower),
    layer("sim.bulk_host_ns", "ns", Lower),
    layer("sim.bringup_us", "us", Lower),
    exact("sim.events", "count"),
    exact("sim.msgs", "count"),
    // Virtual (modelled) time, not host time: changes only with the model.
    exact("sim.virt_null_rmi_us", "virt_us"),
    exact("sim.virt_sc_read_us", "virt_us"),
    exact("sim.bucket_cpu_us", "virt_us"),
    exact("sim.bucket_net_us", "virt_us"),
    exact("sim.bucket_thread_mgmt_us", "virt_us"),
    exact("sim.bucket_thread_sync_us", "virt_us"),
    exact("sim.bucket_runtime_us", "virt_us"),
    // bench
    layer("bench.runner_speedup", "ratio", Higher),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    layer("bench.timer_ns", "ns", Lower),
    // Peak resident set of one repetition of the named workload (`VmHWM`,
    // reset before each repetition).
    layer("bench.rep_peak_rss_mb", "MiB", Lower),
    // Median repetition wall time of the named workload's fixed work.
    layer("bench.rep_wall_s", "s", Lower),
];

/// Detail statistics a workload prints under the names the issue fixed,
/// beside the role-named end-to-end metrics: (issue name, per-rep value,
/// unit, workload).
pub const ISSUE_NAMES: [(&str, &str, &str, &str); 9] = [
    ("sim_events_per_s", "sim.events_per_s", "1/s", "sim_apps"),
    ("rmi_p50_ns", "ccxx.rmi_p50_ns", "ns", "local_rtt"),
    ("rmi_p99_ns", "ccxx.rmi_p99_ns", "ns", "local_rtt"),
    ("rmi_per_s", "ccxx.rmi_per_s", "1/s", "local_rtt"),
    ("read_p50_ns", "splitc.read_p50_ns", "ns", "local_rtt"),
    ("store_per_s", "splitc.store_per_s", "1/s", "local_stream"),
    (
        "bulk_mb_per_s",
        "splitc.bulk_mb_per_s",
        "MB/s",
        "local_stream",
    ),
    ("em3d_splitc_s", "apps.em3d_splitc_s", "s", "local_em3d"),
    ("em3d_ccxx_s", "apps.em3d_ccxx_s", "s", "local_em3d"),
];

pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// `worse(a → b)`: by how much `b` is worse than `a`, as a share of `a`
/// (negative when it is better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use serde_json::Value;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_and_unit_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "bad name {:?}", m.name);
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn counts_stay_inside_the_contract() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for (_, detail, _, workload) in ISSUE_NAMES {
            assert!(per_layer(detail).is_some(), "{detail}");
            assert!(Workload::from_name(workload).is_some());
        }
    }

    #[test]
    fn benchmark_json_mirrors_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| v.get(key).and_then(Value::as_array).unwrap().clone();
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(
                j.get("bound").and_then(Value::as_f64),
                m.bound,
                "{}",
                m.name
            );
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (j, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(field(j, "name"), w.name());
            assert_eq!(field(j, "why"), w.why());
        }
        let secs = v.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert!((1..=60).contains(&secs));
        assert_eq!(secs, crate::DEFAULT_SECONDS);
    }

    #[test]
    fn worsening_respects_direction() {
        let by_name = |n: &str| END_TO_END.iter().find(|m| m.name == n).unwrap();
        let (lower, higher) = (by_name("op_ns"), by_name("ops_per_s"));
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 10.0, 12.0) < 0.0);
    }
}
