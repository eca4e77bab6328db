//! Cluster weak-scaling benchmark (Figure 9 / Table 3 regime): simulated
//! throughput and wall-clock planning cost from one 8×A100 server out to
//! 128 servers / 1024 GPUs, under declarative `ParallelismPlan`s.
//!
//! Three curves, all through `Engine::initialize`'s staged pipeline:
//!
//! * **fixed** — GPT3-13B on a growing fleet (strong scaling: the model
//!   stays put, the dp group and its NIC-crossing collectives grow);
//! * **scaled** — GPT3-28B geometry with 8 layers per server (weak
//!   scaling: ~0.8 B parameters per GPU, 0.8 T total at 1024 GPUs);
//! * **composed** — at the largest fleet, a dp×tp×pp mesh plan
//!   (ZeRO-3 across dp groups, tensor parallelism inside the NVLink
//!   domain, a 2-deep pipeline), statically verified.
//!
//! Every lowering is certified before it is timed: the §8 plan-graph
//! verifier (clean, peak bound covering the simulated run; each point
//! records its `tasks` and `plan_verify_ms`) and the SPMD certifier.
//!
//! A fourth record stresses the segment-tree planner alone on the
//! 1024-GPU-scale input (≈10× the page count of BENCH_plan.json's largest).
//!
//! Writes the machine-readable baseline `BENCH_scale.json` at the repo root
//! (or to the path given as the first non-flag argument). `--quick` trims
//! the sweep to its endpoints for CI smoke runs. Regenerate with:
//!
//! ```text
//! cargo run --release -p angel-bench --bin figure9_cluster
//! ```

use angel_bench::{fmt_params, fmt_sps, Experiment};
use angel_core::communicator::CommRecord;
use angel_core::plan::{ParallelismPlan, ZeroStage};
use angel_core::scheduler::{input_from_trace, UnifiedScheduler};
use angel_core::verify::PlanGraph;
use angel_core::{Engine, EngineConfig, SpmdTrace, Tracer};
use angel_hw::DeviceMesh;
use angel_model::TransformerConfig;
use std::time::Instant;

/// SPMD certification of one lowered iteration's communication journal:
/// always the symmetry-reduced pass (recorded in the baseline), plus the
/// exhaustive full-projection pass when `full` is set (`--verify`). Panics
/// on any mismatch or deadlock — an uncertifiable plan fails the run.
fn spmd_point(log: &[CommRecord], mesh: &DeviceMesh, what: &str, full: bool) -> serde_json::Value {
    let t0 = Instant::now();
    let reduced = SpmdTrace::project_reduced(log, mesh).verify();
    let reduced_ms = t0.elapsed().as_secs_f64() * 1e3;
    reduced.assert_certified(what);
    if full {
        let t0 = Instant::now();
        let report = SpmdTrace::project_full(log, mesh).verify();
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        report.assert_certified(what);
        serde_json::json!({
            "ranks": mesh.num_ranks(),
            "certified": true,
            "reduced_ranks_checked": reduced.ranks_checked,
            "reduced_events": reduced.events_checked,
            "reduced_ms": reduced_ms,
            "full_events": report.events_checked,
            "full_ms": full_ms,
        })
    } else {
        serde_json::json!({
            "ranks": mesh.num_ranks(),
            "certified": true,
            "reduced_ranks_checked": reduced.ranks_checked,
            "reduced_events": reduced.events_checked,
            "reduced_ms": reduced_ms,
        })
    }
}

/// One engine run: wall-clock planning time, simulated throughput, and the
/// certificates of the lowered iteration — the §8 plan-graph verdict (clean,
/// with a peak bound covering the simulated run; panics otherwise) and the
/// SPMD record.
struct Point {
    planning_ms: f64,
    samples_per_sec: f64,
    iter_ns: u64,
    tasks: usize,
    plan_verify_ms: f64,
    spmd: serde_json::Value,
}

fn run_point(
    model: &TransformerConfig,
    config: &EngineConfig,
    what: &str,
    full_verify: bool,
) -> Option<Point> {
    let t0 = Instant::now();
    let mut engine = Engine::initialize(model, config).ok()?;
    let planning_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mesh = config.device_mesh().expect("engine validated the plan");
    let lowered = engine.lowered();
    let tasks = lowered.sim.num_tasks();
    let t0 = Instant::now();
    let verdict = PlanGraph::from_sim(&lowered.sim).verify();
    let plan_verify_ms = t0.elapsed().as_secs_f64() * 1e3;
    verdict.assert_clean(what);
    verdict.assert_covers(&lowered.sim.run(), what);
    let spmd = spmd_point(&lowered.comm_log, &mesh, what, full_verify);
    let stats = engine.train_iteration();
    Some(Point {
        planning_ms,
        samples_per_sec: stats.samples_per_sec,
        iter_ns: stats.iter_time_ns,
        tasks,
        plan_verify_ms,
        spmd,
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let verify = std::env::args().any(|a| a == "--verify");
    let sweep: &[usize] = if quick {
        &[1, 128]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 128]
    };

    let fixed_model = TransformerConfig::gpt3_13b();
    let scaled_geometry = TransformerConfig::gpt3_28b();
    let layers_per_server = 8;

    let mut table = Experiment::new(
        "scale_bench",
        "Weak scaling to 1024 simulated GPUs: throughput and planning cost",
        &[
            "servers",
            "gpus",
            "fixed sps",
            "fixed plan ms",
            "scaled params",
            "scaled sps",
            "scaled plan ms",
        ],
    );
    let mut points = Vec::new();
    let mut verify_rows: Vec<Vec<String>> = Vec::new();
    for &servers in sweep {
        let gpus = servers * 8;
        let fixed = run_point(
            &fixed_model,
            &EngineConfig::servers(servers).with_batch_size(1),
            &format!("fixed plan at {gpus} GPUs"),
            verify,
        )
        .expect("13B fits every fleet");
        let scaled_model = scaled_geometry
            .clone()
            .with_layers(layers_per_server * servers);
        let scaled = run_point(
            &scaled_model,
            &EngineConfig::servers(servers).with_batch_size(1),
            &format!("weak-scaled plan at {gpus} GPUs"),
            verify,
        )
        .expect("weak-scaled model keeps per-GPU bytes constant");
        table.row(vec![
            servers.to_string(),
            gpus.to_string(),
            fmt_sps(fixed.samples_per_sec),
            format!("{:.1}", fixed.planning_ms),
            fmt_params(scaled_model.total_params()),
            fmt_sps(scaled.samples_per_sec),
            format!("{:.1}", scaled.planning_ms),
        ]);
        if verify {
            verify_rows.push(vec![
                gpus.to_string(),
                scaled.spmd["full_events"].as_u64().unwrap_or(0).to_string(),
                format!("{:.1}", scaled.spmd["full_ms"].as_f64().unwrap_or(0.0)),
                scaled.spmd["reduced_events"]
                    .as_u64()
                    .unwrap_or(0)
                    .to_string(),
                format!("{:.2}", scaled.spmd["reduced_ms"].as_f64().unwrap_or(0.0)),
            ]);
        }
        points.push(serde_json::json!({
            "servers": servers,
            "gpus": gpus,
            "fixed": {
                "model": "gpt3-13b",
                "samples_per_sec": fixed.samples_per_sec,
                "planning_ms": fixed.planning_ms,
                "iter_ms": fixed.iter_ns as f64 / 1e6,
                "tasks": fixed.tasks,
                "plan_verified": true,
                "plan_verify_ms": fixed.plan_verify_ms,
                "spmd": fixed.spmd,
            },
            "scaled": {
                "model": "gpt3-28b-geometry",
                "layers": scaled_model.layers,
                "params": scaled_model.total_params(),
                "samples_per_sec": scaled.samples_per_sec,
                "planning_ms": scaled.planning_ms,
                "iter_ms": scaled.iter_ns as f64 / 1e6,
                "tasks": scaled.tasks,
                "plan_verified": true,
                "plan_verify_ms": scaled.plan_verify_ms,
                "spmd": scaled.spmd,
            },
        }));
    }
    table.note(
        "fixed = GPT3-13B, batch 1/GPU, default ZeRO-3 plan (strong scaling); \
         scaled = GPT3-28B geometry growing 8 layers per server, ~0.8B \
         params/GPU (weak scaling). Simulated A100 servers, 16×12.5 GB/s \
         RoCE between them.",
    );

    // Composed mesh plan at the largest fleet: dp × tp=2 × pp=2, lowered
    // through the same pipeline and statically verified.
    let max_servers = *sweep.last().unwrap();
    let max_gpus = max_servers * 8;
    let plan = ParallelismPlan {
        dp: max_gpus / 4,
        tp: 2,
        pp: 2,
        zero_stage: ZeroStage::Full,
    };
    let composed_model = scaled_geometry
        .clone()
        .with_layers(layers_per_server * max_servers);
    let composed_config = EngineConfig::servers(max_servers)
        .with_batch_size(1)
        .with_parallelism(plan);
    let t0 = Instant::now();
    let engine = Engine::initialize(&composed_model, &composed_config)
        .expect("composed plan must initialize at max scale");
    let composed_planning_ms = t0.elapsed().as_secs_f64() * 1e3;
    let lowered = engine.lowered();
    let verdict = PlanGraph::from_sim(&lowered.sim).verify();
    verdict.assert_clean("composed mesh plan");
    // Cross-rank SPMD certification of the same plan: always run both
    // passes here — the full-vs-reduced contrast at max scale is the
    // symmetry reduction's headline number.
    let mesh = composed_config
        .device_mesh()
        .expect("composed plan factors the fleet");
    let spmd = spmd_point(&lowered.comm_log, &mesh, "composed mesh plan", true);
    if verify {
        verify_rows.push(vec![
            format!("{max_gpus} (composed)"),
            spmd["full_events"].as_u64().unwrap_or(0).to_string(),
            format!("{:.1}", spmd["full_ms"].as_f64().unwrap_or(0.0)),
            spmd["reduced_events"].as_u64().unwrap_or(0).to_string(),
            format!("{:.2}", spmd["reduced_ms"].as_f64().unwrap_or(0.0)),
        ]);
    }
    let report = lowered.sim.run();
    verdict.assert_covers(&report, "composed mesh plan");
    let composed = serde_json::json!({
        "plan": format!("dp={} tp=2 pp=2 zero=full", plan.dp),
        "servers": max_servers,
        "gpus": max_gpus,
        "planning_ms": composed_planning_ms,
        "tasks": lowered.sim.num_tasks(),
        "slot_makespan_ms": report.makespan as f64 / 1e6,
        "verified": true,
        "spmd": spmd,
    });
    table.note(format!(
        "composed plan at {max_gpus} GPUs: dp={} × tp=2 × pp=2, {} lowered \
         tasks, verifier clean; SPMD-certified in {:.2} ms (reduced) / \
         {:.1} ms (full).",
        plan.dp,
        lowered.sim.num_tasks(),
        composed["spmd"]["reduced_ms"].as_f64().unwrap_or(0.0),
        composed["spmd"]["full_ms"].as_f64().unwrap_or(0.0),
    ));

    // Planner stress: the raw Algorithm 1 input at 1024-GPU model scale —
    // 1024 layers traced at page granularity fine enough for ~10× the page
    // count of BENCH_plan.json's largest row.
    let stress = if quick {
        serde_json::json!(null)
    } else {
        let page = 1u64 << 20;
        let stress_model = scaled_geometry.clone().with_layers(1024);
        let trace = Tracer::default().trace(&stress_model, 1, true);
        let mut input = input_from_trace(&trace, page, 1, 40 << 30);
        let need = input
            .layers
            .iter()
            .map(|l| l.full_param_bytes + l.working_set)
            .max()
            .unwrap_or(0);
        input.gpu_budget = input.gpu_budget.max(need + need / 4);
        let pages: usize = input.layers.iter().map(|l| l.shard_pages.len()).sum();
        let t0 = Instant::now();
        let schedule = UnifiedScheduler::default()
            .schedule(&input)
            .expect("stress input feasible");
        let stress_ms = t0.elapsed().as_secs_f64() * 1e3;
        table.note(format!(
            "planner stress: {pages} pages / {} steps planned in {stress_ms:.0} ms \
             ({} tasks).",
            input.steps.len(),
            schedule.tasks.len(),
        ));
        serde_json::json!({
            "layers": 1024,
            "steps": input.steps.len(),
            "pages": pages,
            "planning_ms": stress_ms,
            "tasks": schedule.tasks.len(),
        })
    };

    table.emit();

    if verify {
        let mut vt = Experiment::new(
            "spmd_verify",
            "SPMD certification time vs. GPU count (weak-scaling plan)",
            &[
                "gpus",
                "full events",
                "full ms",
                "reduced events",
                "reduced ms",
            ],
        );
        for row in verify_rows {
            vt.row(row);
        }
        vt.note(
            "full = every mesh rank projected and matched; reduced = one \
             representative rank per pipeline stage (symmetry reduction). \
             Both passes must certify (mismatch/deadlock panics the run).",
        );
        vt.emit();
    }

    let out = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_else(|| format!("{}/../../BENCH_scale.json", env!("CARGO_MANIFEST_DIR")));
    let doc = serde_json::json!({
        "id": "scale_bench",
        "generated_by": "cargo run --release -p angel-bench --bin figure9_cluster",
        "units": {"samples_per_sec": "global samples/s (simulated)", "planning_ms": "wall clock"},
        "points": points,
        "composed": composed,
        "planner_stress": stress,
    });
    std::fs::write(&out, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        .expect("write BENCH_scale.json");
    println!("\nwrote {out}");
}
