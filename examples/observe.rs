//! One-command observability demo: run the engine *and* a real lock-free
//! trainer under a single shared [`Recorder`], then export
//!
//! * `target/angel_observe_trace.json` — the merged Perfetto timeline:
//!   process 1 is the simulated hardware (per-resource task tracks plus
//!   per-domain resident-bytes counter tracks), process 2 is the runtime
//!   (real lock-free updater threads, engine iteration spans, queue-depth /
//!   pending-gradient counter tracks);
//! * `target/angel_observe_metrics.json` — the [`MetricsSnapshot`] with
//!   allocator (`alloc.*`), trainer (`trainer.*`), iteration (`engine.*`)
//!   and simulated-executor (`sim.*`) metrics.
//!
//! ```text
//! cargo run --release -p angel-examples --bin observe
//! # then load target/angel_observe_trace.json in https://ui.perfetto.dev
//! ```

use angel_core::lockfree::{
    ClearPolicy, LayerState, LockFreeTrainer, MemoryStore, RetryPolicy, SgdOptimizer,
};
use angel_core::{Engine, EngineConfig, MetricsSnapshot, Recorder};
use angel_model::TransformerConfig;

fn identity_cast(x: f32) -> f32 {
    x
}

fn main() {
    let recorder = Recorder::enabled();

    // ---- Simulated side: a 13B iteration under the unified scheduler,
    // on a composed mesh plan so the per-group communicator channels
    // (dp / tp / pp) each show up as their own timeline track. -----
    let model = TransformerConfig::gpt3_13b();
    let config = EngineConfig::single_server()
        .with_batch_size(4)
        .with_parallelism(angel_core::plan::ParallelismPlan {
            dp: 2,
            tp: 2,
            pp: 2,
            zero_stage: angel_core::plan::ZeroStage::Full,
        });
    let mut engine = Engine::initialize(&model, &config).expect("13B fits on one server");
    engine.set_recorder(recorder.clone());
    let stats = engine.train_iteration();
    println!(
        "engine: iter {:.1} ms simulated, gpu util {:.1}%, overlap {:.2}",
        stats.iter_time_ns as f64 / 1e6,
        stats.gpu_utilization * 100.0,
        stats.overlap_ratio,
    );

    // ---- Online replanning: an injected outage tightens the budget and
    // splices a replanned schedule at the iteration boundary — the replan
    // span and the `plan.replan_ns` counter land on the engine's runtime
    // track. ---------------------------------------------------------------
    let online = engine
        .run_online(
            2,
            &[angel_core::ClusterEvent::Outage {
                at_iter: 0,
                target: angel_core::plan::FaultTarget::H2d,
                at_ns: 0,
                duration_ns: 1_000_000,
            }],
        )
        .expect("online replanning run completes");
    println!(
        "online: {} splice(s), replan {:.2} ms, {} layers planned from scratch",
        online.splices.len(),
        online.splices[0].replan_ns as f64 / 1e6,
        online.splices[0].outcome.layers_touched,
    );

    // ---- Runtime side: Algorithm 2 on real OS threads --------------------
    let layers = 8;
    let initial: Vec<Vec<f32>> = (0..layers).map(|l| vec![l as f32; 4096]).collect();
    let store = MemoryStore::throttled(
        initial.iter().map(|p| LayerState::new(p.clone())).collect(),
        2_000_000_000, // 2 GB/s "SSD"
    );
    let trainer = LockFreeTrainer::spawn_observed(
        initial,
        Box::new(store),
        Box::new(SgdOptimizer { lr: 0.01 }),
        identity_cast,
        ClearPolicy::TakeAtSnapshot,
        RetryPolicy::default(),
        recorder.clone(),
    );
    for i in 0..48 {
        trainer.push_grads(i % layers, vec![0.1; 4096]);
    }
    assert!(trainer.wait_quiescent(), "trainer settles");
    let lf = trainer.stats();
    println!(
        "trainer: {} pushes -> {} optimizer updates ({} grads applied)",
        lf.grads_pushed, lf.updates_applied, lf.grads_applied,
    );

    // ---- Exports ---------------------------------------------------------
    std::fs::create_dir_all("target").ok();

    let trace = engine.export_merged_trace();
    let trace_path = "target/angel_observe_trace.json";
    std::fs::write(trace_path, &trace).expect("write trace");

    let snapshot = recorder.snapshot();
    let metrics = snapshot.to_json_string();
    let metrics_path = "target/angel_observe_metrics.json";
    std::fs::write(metrics_path, &metrics).expect("write metrics");
    // Round-trip through the parser so the file is known-consumable.
    let back = MetricsSnapshot::from_json_str(&metrics).expect("snapshot round-trips");
    assert_eq!(
        back.counters.get("trainer.grads_pushed"),
        Some(&lf.grads_pushed)
    );

    let spans = trace.matches("\"ph\": \"X\"").count();
    let counters = trace.matches("\"ph\": \"C\"").count();
    println!(
        "wrote {trace_path}: {spans} span events, {counters} counter samples, \
         {} ring events ({} dropped)",
        recorder.events().len(),
        recorder.events_dropped(),
    );
    println!(
        "wrote {metrics_path}: {} counters, {} gauges, {} histograms",
        back.counters.len(),
        back.gauges.len(),
        back.histograms.len(),
    );
    println!("open https://ui.perfetto.dev and load {trace_path}:");
    println!("  process 1 = simulated hardware (scheduler overlap, resident bytes)");
    println!("  process 2 = runtime threads (lock-free updater, engine iterations)");
}
