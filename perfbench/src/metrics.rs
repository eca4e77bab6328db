//! The metric registry (names and units, mirrored by `BENCHMARK.json`) and
//! the result every workload returns.

use crate::util;
use angel_core::IterStats;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run. Each workload defines
/// what its "operation" and "event" are (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("event_mean_ms", "ms"),
    ("sim_throughput", "1/s"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not reach from the benchmark's calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.trace.calls", "count"),
    ("plan.trace.busy_ms", "ms"),
    ("plan.trace.tensors", "count"),
    ("plan.shard.calls", "count"),
    ("plan.shard.busy_ms", "ms"),
    ("plan.shard.pages", "count"),
    ("plan.memory.busy_ms", "ms"),
    ("plan.memory.rejects", "count"),
    ("plan.schedule.calls", "count"),
    ("plan.schedule.busy_ms", "ms"),
    ("plan.schedule.tasks", "count"),
    ("allocator.materialize_ms", "ms"),
    ("allocator.pages", "count"),
    ("plan.lower.calls", "count"),
    ("plan.lower.busy_ms", "ms"),
    ("plan.lower.tasks", "count"),
    ("sim.runs", "count"),
    ("sim.busy_ms", "ms"),
    ("sim.tasks_executed", "count"),
    ("sim.tasks_failed", "count"),
    ("engine.iteration.self_ms", "ms"),
    ("sim.gpu_util", "ratio"),
    ("sim.pcie_util", "ratio"),
    ("sim.comm_util", "ratio"),
    ("sim.overlap_ratio", "ratio"),
    ("sim.peak_gpu_gb", "GB"),
    ("sim.staleness_iters", "iters"),
    ("verify.plan.calls", "count"),
    ("verify.plan.busy_ms", "ms"),
    ("verify.plan.tasks", "count"),
    ("verify.plan.us_per_task", "us"),
    ("verify.plan.clean_ratio", "ratio"),
    ("verify.spmd.calls", "count"),
    ("verify.spmd.busy_ms", "ms"),
    ("verify.spmd.events", "count"),
    ("replan.splices", "count"),
    ("replan.busy_ms", "ms"),
    ("replan.layers_reused_ratio", "ratio"),
    ("replan.in_place_ratio", "ratio"),
    ("service.admission.calls", "count"),
    ("service.admission.busy_ms", "ms"),
    ("service.admission.reject_ms", "ms"),
    ("service.admission.admit_ratio", "ratio"),
    ("service.admission.repeat_key_ratio", "ratio"),
    ("service.control_plane.self_ms", "ms"),
    ("service.control_plane.preemptions", "count"),
    ("service.control_plane.resumes", "count"),
    ("service.control_plane.queue_wait_p50_ms", "ms"),
    ("trace.ops", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer values of one traced run, pre-filled with every registered
/// name so a run always reports the full set.
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Self(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(v) => *v = value,
            None => panic!("per-layer metric {name} is not registered"),
        }
    }

    pub fn add(&mut self, name: &str, value: f64) {
        let v = self.get(name);
        self.set(name, v + value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Simulated hardware metrics, averaged over the iterations' stats.
    pub fn set_sim(&mut self, stats: &[IterStats]) {
        if stats.is_empty() {
            return;
        }
        let avg = |f: fn(&IterStats) -> f64| util::mean(&stats.iter().map(f).collect::<Vec<_>>());
        self.set("sim.gpu_util", avg(|s| s.gpu_utilization));
        self.set("sim.pcie_util", avg(|s| s.pcie_utilization));
        self.set("sim.comm_util", avg(|s| s.comm_utilization));
        self.set("sim.overlap_ratio", avg(|s| s.overlap_ratio));
        self.set("sim.peak_gpu_gb", avg(|s| s.peak_gpu_bytes as f64 / 1e9));
        self.set("sim.staleness_iters", avg(|s| s.staleness_iters));
    }

    /// Traced minus untraced mean operation time, from the alternating
    /// units of one traced run: `(total ms, operations)` of each side.
    pub fn set_overhead(&mut self, plain: (f64, u64), traced: (f64, u64)) {
        self.set("trace.ops", traced.1 as f64);
        if plain.1 == 0 || traced.1 == 0 {
            return;
        }
        let (p, t) = (plain.0 / plain.1 as f64, traced.0 / traced.1 as f64);
        self.set("trace.overhead_ms", t - p);
        self.set("trace.overhead_ratio", t / p - 1.0);
    }
}

/// What a workload run produced: operation accounting, failures, both
/// metric sets, and the properties of its generated inputs.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: Layers,
    pub inputs: serde_json::Map,
    /// Chrome trace events of the traced run (empty when untraced).
    pub trace_events: Vec<serde_json::Value>,
    /// The Recorder's metrics snapshot, when the run attached one.
    pub snapshot: Option<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// The final result line: `correct`, `attempted`, `failed` and the
    /// metrics of the requested set.
    pub fn result_json(&self, traced: bool) -> serde_json::Value {
        let mut metrics = serde_json::Map::new();
        let set = if traced { PER_LAYER } else { END_TO_END };
        for (name, unit) in set {
            let value = if traced {
                self.layers.get(name)
            } else {
                self.e2e.get(name).copied().unwrap_or(f64::NAN)
            };
            metrics.insert(
                name.to_string(),
                serde_json::json!({"value": value, "unit": *unit}),
            );
        }
        let failed = self.failures.len() as u64;
        serde_json::json!({
            "correct": failed == 0 && self.attempted > 0 && metrics_finite(&metrics),
            "attempted": self.attempted,
            "failed": failed,
            "metrics": serde_json::Value::Object(metrics),
        })
    }
}

fn metrics_finite(m: &serde_json::Map) -> bool {
    m.iter()
        .all(|(_, v)| v.get("value").and_then(|x| x.as_f64()).is_some())
}
