//! Planning-cost benchmark: the Unified Scheduler's (Algorithm 1) wall-clock
//! planning time on paper-scale inputs (DESIGN.md §9). The "optimized"
//! column is `UnifiedScheduler::schedule` — a from-scratch
//! `Planner::new` session, the library's one Algorithm 1 — and the
//! "oracle" column is the per-page reference `scheduler::oracle`, which
//! this crate reaches through angel-core's `verify-extras` feature.
//!
//! Writes the machine-readable baseline `BENCH_plan.json` at the repo root
//! (or to the path given as the first non-flag argument) so every future PR
//! has a recorded perf trajectory. Regenerate with:
//!
//! ```text
//! cargo run --release -p angel-bench --bin planning_cost
//! ```
//!
//! Every timed pair is also checked byte-identical (same tasks, same stats),
//! so the speedup numbers are for provably equivalent schedules. The
//! `replan-*` rows time a warm incremental `Planner::replan` against a
//! from-scratch plan of the same mutated input.

use angel_bench::Experiment;
use angel_core::scheduler::{
    input_from_trace, oracle, LayerPlan, Schedule, SchedulerInput, UnifiedScheduler,
};
use angel_core::{MetricsSnapshot, Planner, Recorder, ReplanDelta, Tracer};
use angel_model::TransformerConfig;
use std::time::Instant;

/// A synthetic eviction-heavy input: `layers × 2` compute steps, uniform
/// pages, a budget small enough that most pages churn through the wait
/// stack but large enough that every layer stays feasible.
fn synthetic(layers: usize, pages_per_layer: usize, page: u64, dp: u64) -> SchedulerInput {
    let shard = page * pages_per_layer as u64;
    let full = shard * dp;
    let working_set = 4 * page;
    // ~20% of the total shard bytes fit: heavy phase-1 churn, and room for
    // phase-2 advancement in the backward half.
    let budget = (full + working_set).max(shard * layers as u64 / 5);
    SchedulerInput {
        layers: (0..layers)
            .map(|l| LayerPlan {
                layer: l,
                shard_pages: vec![page; pages_per_layer],
                full_param_bytes: full,
                working_set,
            })
            .collect(),
        steps: SchedulerInput::default_steps(layers),
        gpu_budget: budget,
        page_size: page,
        step_base_load: Vec::new(),
    }
}

/// Best-of-`reps` wall time of `f`, in seconds, plus its last result.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.unwrap())
}

struct Row {
    name: &'static str,
    input: SchedulerInput,
}

fn model_row(name: &'static str, cfg: &TransformerConfig, dp: usize, budget: u64) -> Row {
    let trace = Tracer::default().trace(cfg, 1, true);
    let mut input = input_from_trace(&trace, 4 << 20, dp, budget);
    // Keep every layer feasible (MoE layers gather every expert): floor the
    // budget at 1.25x the largest single-layer requirement. This is a
    // planning-cost benchmark, not a capacity experiment.
    let need = input
        .layers
        .iter()
        .map(|l| l.full_param_bytes + l.working_set)
        .max()
        .unwrap_or(0);
    input.gpu_budget = input.gpu_budget.max(need + need / 4);
    Row { name, input }
}

/// A replan case: a named mutation of `base`, expressed both as the mutated
/// input (for the from-scratch side) and as forward/reverse deltas (for the
/// incremental side, applied alternately so each timed replan starts from a
/// warm session with reusable buffers).
struct DeltaCase {
    name: String,
    base: SchedulerInput,
    mutated: SchedulerInput,
}

impl DeltaCase {
    fn single_layer(model: &str, base: &SchedulerInput) -> Self {
        // A one-byte working-set nudge on one layer: the canonical local
        // delta (an activation-footprint re-estimate). The planner must
        // revalidate, recompute the touched layer and diff triggers, but the
        // surviving decisions let the emission patch in place.
        let idx = base.layers.len() / 2;
        let mut mutated = base.clone();
        mutated.layers[idx].working_set += 1;
        Self {
            name: format!("replan-single-layer-{model}"),
            base: base.clone(),
            mutated,
        }
    }

    fn outage(model: &str, base: &SchedulerInput) -> Self {
        // A degraded fleet tightens the budget by 1/16 — a pure capacity
        // delta, the Engine::run_online outage splice.
        let mut mutated = base.clone();
        mutated.gpu_budget -= mutated.gpu_budget / 16;
        Self {
            name: format!("replan-outage-{model}"),
            base: base.clone(),
            mutated,
        }
    }

    fn resize(model: &str, base: &SchedulerInput, resized: &SchedulerInput) -> Self {
        // Elastic resize dp 8 → 16: every layer's shard halves — the delta
        // touches all layers, the fast path's worst case.
        Self {
            name: format!("replan-resize-{model}"),
            base: base.clone(),
            mutated: resized.clone(),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    let gib = 1u64 << 30;
    let rows = vec![
        // The acceptance input: ~10⁵ pages over ≥192 compute steps (384
        // layers × 2 passes = 768 steps — the 100T-scale depth regime of
        // Table 5 where the old per-page planner went quadratic).
        Row {
            name: "synthetic-100k-pages",
            input: synthetic(384, 261, 1024, 8),
        },
        // Paper-scale model configs (one-server dp=8 keeps shards page-rich).
        model_row("gpt3-13b", &TransformerConfig::gpt3_13b(), 8, 30 * gib),
        model_row("gpt3-175b", &TransformerConfig::gpt3_175b(), 8, 30 * gib),
        model_row(
            "gpt3-1t",
            &TransformerConfig::gpt3_175b().with_layers(548),
            8,
            30 * gib,
        ),
        model_row(
            "t5-moe-1.2t",
            &TransformerConfig::t5_moe_1_2t(),
            8,
            30 * gib,
        ),
    ];

    let sched = UnifiedScheduler::default();
    let mut table = Experiment::new(
        "plan_bench",
        "Algorithm 1 planning time: segment-tree planner vs. per-page oracle",
        &[
            "input",
            "layers",
            "steps",
            "pages",
            "optimized",
            "oracle",
            "speedup",
            "identical",
        ],
    );
    let recorder = Recorder::enabled();
    let plan_us = recorder.histogram(
        "plan.optimized_us",
        // Planning-latency decades: 100 µs .. 10 s of wall time.
        &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
    );
    let mut records = Vec::new();
    for row in &rows {
        let pages: usize = row.input.layers.iter().map(|l| l.shard_pages.len()).sum();
        let (opt_s, fast): (f64, Schedule) =
            time_best(reps, || sched.schedule(&row.input).expect("feasible"));
        let (ora_s, slow) = time_best(1, || {
            oracle::schedule(&sched, &row.input).expect("feasible")
        });
        let identical = fast == slow;
        assert!(
            identical,
            "{}: optimized and oracle schedules diverge",
            row.name
        );
        let speedup = ora_s / opt_s.max(1e-9);
        recorder.counter("plan.rows").inc();
        plan_us.observe((opt_s * 1e6) as u64);
        recorder
            .gauge(&format!("plan.pages.{}", row.name))
            .set(pages as u64);
        table.row(vec![
            row.name.to_string(),
            row.input.layers.len().to_string(),
            row.input.steps.len().to_string(),
            pages.to_string(),
            format!("{:.2} ms", opt_s * 1e3),
            format!("{:.2} ms", ora_s * 1e3),
            format!("{speedup:.1}x"),
            identical.to_string(),
        ]);
        records.push(serde_json::json!({
            "name": row.name,
            "layers": row.input.layers.len(),
            "steps": row.input.steps.len(),
            "pages": pages,
            "tasks": fast.tasks.len(),
            "optimized_ms": opt_s * 1e3,
            "oracle_ms": ora_s * 1e3,
            "speedup": speedup,
            "identical": identical,
        }));
    }
    // Incremental replanning (the ReplanDelta fast path) vs. a from-scratch
    // schedule of the same mutated input. Columns map as: optimized =
    // warm-session incremental replan, oracle = from-scratch schedule()
    // (`Planner::new`) of the mutated input. `identical` asserts the session's emitted schedule is
    // byte-equal to the from-scratch one.
    let mut cases = Vec::new();
    for (model, cfg) in [
        ("gpt3-13b", TransformerConfig::gpt3_13b()),
        ("gpt3-175b", TransformerConfig::gpt3_175b()),
        ("gpt3-1t", TransformerConfig::gpt3_175b().with_layers(548)),
    ] {
        let base = model_row("base", &cfg, 8, 30 * gib).input;
        let resized = model_row("resized", &cfg, 16, 30 * gib).input;
        cases.push(DeltaCase::single_layer(model, &base));
        cases.push(DeltaCase::outage(model, &base));
        cases.push(DeltaCase::resize(model, &base, &resized));
    }
    for case in &cases {
        let fwd = ReplanDelta::diff(&case.base, &case.mutated);
        let rev = ReplanDelta::diff(&case.mutated, &case.base);
        let mut planner = Planner::new(sched.clone(), case.base.clone()).expect("feasible base");
        // Alternate forward/reverse applies: each timed replan runs on a
        // warm session whose timeline and emission buffers are reused
        // (reset, not reallocated). Best-of over both directions.
        let mut inc_s = f64::INFINITY;
        for _ in 0..reps {
            for delta in [&fwd, &rev] {
                let t0 = Instant::now();
                planner.replan(delta).expect("feasible delta");
                inc_s = inc_s.min(t0.elapsed().as_secs_f64());
            }
        }
        planner.replan(&fwd).expect("feasible delta"); // land on `mutated`
        let outcome = planner.last_outcome();
        let (full_s, full): (f64, Schedule) =
            time_best(reps, || sched.schedule(&case.mutated).expect("feasible"));
        let identical = *planner.schedule() == full;
        assert!(
            identical,
            "{}: incremental replan diverges from from-scratch schedule",
            case.name
        );
        let speedup = full_s / inc_s.max(1e-9);
        let pages: usize = case
            .mutated
            .layers
            .iter()
            .map(|l| l.shard_pages.len())
            .sum();
        recorder.counter("plan.replans").inc();
        recorder.counter("plan.replan_ns").add((inc_s * 1e9) as u64);
        recorder
            .counter("plan.layers_reused")
            .add(outcome.layers_reused as u64);
        plan_us.observe((inc_s * 1e6) as u64);
        table.row(vec![
            case.name.clone(),
            case.mutated.layers.len().to_string(),
            case.mutated.steps.len().to_string(),
            pages.to_string(),
            format!("{:.3} ms", inc_s * 1e3),
            format!("{:.3} ms", full_s * 1e3),
            format!("{speedup:.1}x"),
            identical.to_string(),
        ]);
        records.push(serde_json::json!({
            "name": case.name.clone(),
            "layers": case.mutated.layers.len(),
            "steps": case.mutated.steps.len(),
            "pages": pages,
            "tasks": full.tasks.len(),
            "optimized_ms": inc_s * 1e3,
            "oracle_ms": full_s * 1e3,
            "speedup": speedup,
            "identical": identical,
            "layers_reused": outcome.layers_reused,
            "layers_touched": outcome.layers_touched,
            "patched_in_place": outcome.patched_in_place,
        }));
    }

    table.note(
        "Optimized = UnifiedScheduler::schedule, a from-scratch Planner session \
         (segment-tree timeline, run-form batched evict/re-add); oracle = \
         retained per-page O(pages × steps) implementation. Both emit \
         byte-identical schedules (asserted). replan-* rows compare a warm \
         incremental session (optimized) against a from-scratch schedule of \
         the mutated input (oracle).",
    );
    table.emit();

    std::fs::create_dir_all("target").ok();
    let out = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .cloned()
        .unwrap_or_else(|| {
            if quick {
                // Smoke runs must not overwrite the checked-in baseline.
                "target/BENCH_plan.json".to_string()
            } else {
                format!("{}/../../BENCH_plan.json", env!("CARGO_MANIFEST_DIR"))
            }
        });
    let doc = serde_json::json!({
        "id": "plan_bench",
        "generated_by": "cargo run --release -p angel-bench --bin planning_cost",
        "unit": "milliseconds (best of 3 optimized, single oracle run)",
        "inputs": records,
    });
    std::fs::write(&out, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        .expect("write BENCH_plan.json");
    println!("\nwrote {out}");

    std::fs::create_dir_all("target").ok();
    let path = "target/planning_metrics.json";
    let json = recorder.snapshot().to_json_string();
    std::fs::write(path, &json).expect("write metrics snapshot");
    let snap = MetricsSnapshot::from_json_str(&json).expect("snapshot round-trips");
    let hist = &snap.histograms["plan.optimized_us"];
    println!(
        "wrote {path}: {} inputs planned, mean optimized time {:.2} ms",
        snap.counters.get("plan.rows").copied().unwrap_or(0),
        hist.sum as f64 / hist.total.max(1) as f64 / 1e3,
    );
}
