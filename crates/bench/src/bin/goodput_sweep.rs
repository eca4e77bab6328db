//! Goodput under failures — MTBF × checkpoint-interval sweep.
//!
//! Section 3.1: "pre-training tasks would encounter GPU failure with a high
//! probability, and should be restarted after failure." This harness
//! quantifies the operational consequence: for paper-scale models, how much
//! useful training survives once checkpoint writes, lost work and restarts
//! are paid — as a function of per-GPU reliability (MTBF) and of how far the
//! checkpoint interval strays from the Young–Daly optimum.
//!
//! Unlike `recovery_analysis` (which motivates the math), the checkpoint
//! write and restore costs here are **derived from executed schedules**: the
//! per-layer ZeRO-sharded FP32 master state is lowered through
//! `plan::lower_checkpoint` as `ssd_write`/`ssd_read`+`move_in` task graphs
//! and run on the simulated hardware, so the costs include link latency,
//! per-layer serialization and the SSD share per rank. A final note
//! demonstrates the simulator's fault events: an SSD outage injected into
//! the lowered write graph stretches the checkpoint and degrades goodput.

use angel_bench::Experiment;
use angel_core::fault::mtbf_cluster_events;
use angel_core::plan::{checkpoint_write_graph, lower_checkpoint};
use angel_core::recovery::RecoveryModel;
use angel_core::{ClusterEvent, Engine, EngineConfig, Error, MetricsSnapshot, Recorder};
use angel_model::TransformerConfig;
use angel_sim::{ns_to_s, FaultEvent, FaultKind};

/// Failure detection + rescheduling overhead on restart (seconds), on top
/// of the derived checkpoint-restore time.
const DETECT_SECS: f64 = 600.0;

/// Measured cost of recovering by *replanning onto survivors* instead of
/// restarting: one real [`Engine::run_online`] with a single-server loss.
struct SpliceCost {
    /// Wall-clock seconds of the full replan (trace → shard → incremental
    /// schedule → materialize), from the engine's splice report.
    replan_secs: f64,
    /// Post-splice throughput as a fraction of the healthy fleet's
    /// (simulated samples/s on `servers − 1` over samples/s on `servers`).
    degraded_throughput: f64,
}

fn measure_splice(model: &TransformerConfig, servers: usize) -> SpliceCost {
    let config = EngineConfig::servers(servers).with_batch_size(1);
    let mut engine = Engine::initialize(model, &config).expect("engine initializes");
    let healthy = engine.train_iteration();
    let report = engine
        .run_online(
            2,
            &[ClusterEvent::ServerLoss {
                at_iter: 0,
                servers: 1,
                at_ns: 0,
            }],
        )
        .expect("online run completes");
    let after = &report.per_iter[1];
    assert_eq!(after.tasks_failed, 0, "replanned iteration must run clean");
    SpliceCost {
        replan_secs: report.splices[0].replan_ns as f64 / 1e9,
        degraded_throughput: (after.samples_per_sec / healthy.samples_per_sec).clamp(0.01, 1.0),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let jobs: [(&str, TransformerConfig, usize); 2] = [
        ("GPT3-175B", TransformerConfig::gpt3_175b(), 96),
        ("T5-58B", TransformerConfig::t5_58b(), 32),
    ];
    let mtbfs: &[f64] = if quick {
        &[50_000.0]
    } else {
        &[10_000.0, 50_000.0, 200_000.0]
    };
    let factors: &[f64] = if quick {
        &[0.5, 1.0, 4.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0]
    };

    let mut table = Experiment::new(
        "goodput",
        "Effective goodput vs per-GPU MTBF and checkpoint interval (interval as a \
         multiple of the Young-Daly optimum; checkpoint cost from executed schedules). \
         Static = restart from checkpoint on failure; Replanned = online splice onto \
         the surviving fleet, with replan time and degraded throughput measured on \
         the engine",
        &[
            "Model",
            "GPUs",
            "MTBF/GPU (h)",
            "Ckpt write (s)",
            "Restore (s)",
            "Interval (xYD)",
            "Interval (min)",
            "Static",
            "Replanned",
        ],
    );

    // Machine-readable sidecar: per-model checkpoint costs and best goodput
    // land in a MetricsSnapshot next to the table.
    let recorder = Recorder::enabled();

    for (name, model, servers) in &jobs {
        let config = EngineConfig::servers(*servers).with_batch_size(1);
        let ckpt = lower_checkpoint(model, &config);
        let splice = measure_splice(model, *servers);
        recorder
            .gauge(&format!("ckpt.write_ms.{name}"))
            .set((ckpt.write_secs * 1e3) as u64);
        recorder
            .gauge(&format!("ckpt.restore_ms.{name}"))
            .set((ckpt.restore_secs * 1e3) as u64);
        recorder
            .gauge(&format!("splice.replan_us.{name}"))
            .set((splice.replan_secs * 1e6) as u64);
        recorder
            .gauge(&format!("splice.degraded_ppm.{name}"))
            .set((splice.degraded_throughput * 1e6) as u64);
        for &mtbf in mtbfs {
            let m = RecoveryModel::from_lowering(config.num_gpus(), mtbf, &ckpt, DETECT_SECS);
            let yd = m.young_daly_interval_secs();
            for &f in factors {
                let interval = yd * f;
                let stat = m.goodput(interval);
                let rep = m.replanned_goodput(
                    interval,
                    splice.replan_secs,
                    ckpt.restore_secs,
                    splice.degraded_throughput,
                );
                // The acceptance property: replanning onto survivors never
                // loses to a checkpoint restart, under every MTBF plan.
                assert!(
                    rep >= stat,
                    "{name} @ {mtbf:.0}h x{f}: replanned {rep} < static {stat}"
                );
                recorder.counter("goodput.rows").inc();
                recorder
                    .gauge(&format!("goodput.best_ppm.{name}"))
                    .set_max((stat * 1e6) as u64);
                recorder
                    .gauge(&format!("goodput.replanned_best_ppm.{name}"))
                    .set_max((rep * 1e6) as u64);
                table.row(vec![
                    name.to_string(),
                    config.num_gpus().to_string(),
                    format!("{mtbf:.0}"),
                    format!("{:.1}", ckpt.write_secs),
                    format!("{:.1}", ckpt.restore_secs),
                    format!("{f:.2}"),
                    format!("{:.1}", interval / 60.0),
                    format!("{:.3}%", stat * 100.0),
                    format!("{:.3}%", rep * 100.0),
                ]);
            }
        }
        table.note(format!(
            "{name}: one measured splice — replan {:.2} ms, post-splice throughput \
             {:.2}% of the healthy fleet on {} surviving servers.",
            splice.replan_secs * 1e3,
            splice.degraded_throughput * 100.0,
            servers - 1,
        ));
    }

    // MTBF fault plan replayed online: a deterministic event stream drawn
    // from the fleet MTTF (time-compressed so a short replay sees faults)
    // drives the same engine loop end to end — outages tighten the budget,
    // server losses splice onto survivors, and every iteration after a
    // splice runs the freshly planned fleet.
    {
        let (name, model, servers) = &jobs[1];
        let config = EngineConfig::servers(*servers).with_batch_size(1);
        let mut engine = Engine::initialize(model, &config).expect("engine initializes");
        let healthy = engine.train_iteration();
        let iters = if quick { 4 } else { 8 };
        let m = RecoveryModel::from_lowering(
            config.num_gpus(),
            50_000.0,
            &lower_checkpoint(model, &config),
            DETECT_SECS,
        );
        // Compress time: pretend each iteration covers a quarter MTTF so
        // the plan fires within the replay window.
        let iter_time_ns = (m.fleet_mttf_secs() / 4.0 * 1e9) as u64;
        let events = mtbf_cluster_events(7, iters, iter_time_ns, m.fleet_mttf_secs(), *servers);
        let report = engine
            .run_online(iters, &events)
            .expect("fault-plan replay completes");
        // Steady-state retention: the best clean iteration after the first
        // splice that had no event injected (stranded iterations report
        // zero useful samples, outage iterations are stretched by the
        // downtime, pre-fault iterations ran the full fleet).
        let first_splice = report.splices.first().map_or(0, |s| s.at_iter);
        let retained = report
            .per_iter
            .iter()
            .enumerate()
            .filter(|(k, it)| {
                *k > first_splice
                    && it.tasks_failed == 0
                    && events.iter().all(|e| e.at_iter() != *k)
            })
            .map(|(_, it)| it.samples_per_sec / healthy.samples_per_sec)
            .fold(0.0f64, f64::max);
        recorder
            .counter("goodput.fault_plan_events")
            .add(events.len() as u64);
        recorder
            .counter("goodput.fault_plan_splices")
            .add(report.splices.len() as u64);
        table.note(format!(
            "MTBF fault plan replayed online ({name}, {iters} iterations, fleet MTTF \
             compressed 4x): {} events drawn, {} splices, steady-state throughput \
             between faults {:.1}% of healthy — the loop absorbs the whole plan \
             without a restart.",
            events.len(),
            report.splices.len(),
            retained * 100.0,
        ));
    }

    // Terminal failure: losing the whole fleet is not a splice — it is a
    // typed error. A ServerLoss covering every server used to be silently
    // respliced onto one phantom server; now it surfaces as
    // ClusterExhausted and the only recovery path is a checkpoint restart
    // on new hardware (the Static column's cost model).
    {
        let mut engine =
            Engine::initialize(&jobs[1].1, &EngineConfig::servers(2).with_batch_size(1))
                .expect("engine initializes");
        let err = engine
            .run_online(
                2,
                &[ClusterEvent::ServerLoss {
                    at_iter: 0,
                    servers: 2,
                    at_ns: 0,
                }],
            )
            .expect_err("total fleet loss must not replan");
        assert!(
            matches!(
                err,
                Error::ClusterExhausted {
                    had_servers: 2,
                    lost_servers: 2,
                }
            ),
            "total loss must be ClusterExhausted, got: {err}"
        );
        recorder.counter("goodput.cluster_exhausted").inc();
        table.note(format!(
            "Terminal failure: a ServerLoss covering the whole 2-server fleet does \
             not splice — the engine returns the typed error \"{err}\" and keeps its \
             last good plan; recovery means a checkpoint restart on new hardware, \
             priced by the Static column.",
        ));
    }

    // Fault-event demonstration: an SSD outage covering a checkpoint write
    // stretches it by the downtime; re-deriving the recovery model with the
    // degraded cost shows the goodput impact.
    let (name, model, servers) = &jobs[0];
    let config = EngineConfig::servers(*servers).with_batch_size(1);
    let ckpt = lower_checkpoint(model, &config);
    let lo = checkpoint_write_graph(model, &config);
    let ssd = lo.ssd_id();
    let outage_ns = (ckpt.write_secs * 2e9) as u64; // 2× the clean write
    let faulted = lo.sim().run_with_faults(&[FaultEvent {
        resource: ssd,
        at: 0,
        kind: FaultKind::Outage {
            duration: outage_ns,
        },
    }]);
    let degraded_write = ns_to_s(faulted.makespan);
    recorder
        .gauge("ckpt.degraded_write_ms")
        .set((degraded_write * 1e3) as u64);
    let clean = RecoveryModel::from_lowering(config.num_gpus(), 50_000.0, &ckpt, DETECT_SECS);
    let degraded = RecoveryModel {
        checkpoint_write_secs: degraded_write,
        ..clean
    };
    table.note(format!(
        "Fault event: an SSD outage of {:.1} s injected into the lowered {name} \
         write graph stretches one checkpoint from {:.1} s to {:.1} s; if writes \
         stayed degraded, Young-Daly goodput at 50k h MTBF would drop from {:.3}% \
         to {:.3}%.",
        ns_to_s(outage_ns),
        ckpt.write_secs,
        degraded_write,
        clean.optimal_goodput() * 100.0,
        degraded.optimal_goodput() * 100.0,
    ));
    table.note(
        "Short intervals overpay in checkpoint writes, long intervals in lost work; \
         the Young-Daly column (1.00xYD) maximizes goodput in every MTBF row. Less \
         reliable fleets both checkpoint more often and lose more to each failure.",
    );
    table.emit();

    std::fs::create_dir_all("target").ok();
    let path = "target/goodput_metrics.json";
    let json = recorder.snapshot().to_json_string();
    std::fs::write(path, &json).expect("write metrics snapshot");
    let snap = MetricsSnapshot::from_json_str(&json).expect("snapshot round-trips");
    println!(
        "\nwrote {path}: {} sweep rows, {} gauges",
        snap.counters.get("goodput.rows").copied().unwrap_or(0),
        snap.gauges.len(),
    );
}
