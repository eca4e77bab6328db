//! End-to-end integration: models flow from `angel-model` through the
//! tracer, scheduler, allocator and simulator, and the reported statistics
//! are mutually consistent.

use angel_core::{Engine, EngineConfig, Error};
use angel_hw::DeviceId;
use angel_integration::{server, small_gpt};
use angel_model::TransformerConfig;

#[test]
fn engine_runs_every_table4_dense_model_on_enough_servers() {
    for model in TransformerConfig::table4() {
        if model.is_moe() {
            continue; // covered separately (needs expert-parallel fleets)
        }
        // Pick a fleet that surely fits: states/16 GPUs-worth of servers.
        let servers = (model.model_state_bytes() / (200u64 << 30) + 1) as usize;
        let cfg = EngineConfig::servers(servers.max(1)).with_batch_size(1);
        let mut engine = Engine::initialize(&model, &cfg)
            .unwrap_or_else(|e| panic!("{} on {servers} servers: {e}", model.name));
        let s = engine.train_iteration();
        assert!(s.samples_per_sec > 0.0, "{}", model.name);
        assert!(s.gpu_utilization > 0.0 && s.gpu_utilization <= 1.0);
        assert!(s.peak_gpu_bytes <= cfg.gpu_budget(), "{}", model.name);
    }
}

#[test]
fn moe_model_runs_under_expert_parallelism() {
    let ep = angel_model::moe::ExpertParallelism::paper_scaling(64);
    let model = ep.scale_model(&TransformerConfig::t5_moe_1_2t());
    let cfg = EngineConfig::servers(8).with_batch_size(4);
    let mut engine = Engine::initialize(&model, &cfg).expect("MoE fits with local experts");
    let s = engine.train_iteration();
    assert!(s.samples_per_sec > 0.0);
}

#[test]
fn placement_accounting_is_consistent() {
    let mut engine = Engine::initialize(&small_gpt(), &server(4)).unwrap();
    let p = engine.placement();
    // Everything placed somewhere; no tier over-filled.
    assert!(p.gpu_bytes + p.cpu_bytes + p.ssd_bytes > 0);
    assert_eq!(p.ssd_bytes, 0, "SSD off by default");
    // Allocator pools reflect the CPU placement: used bytes within pool.
    let alloc = engine.allocator();
    let cpu = alloc.stats(DeviceId::CPU);
    assert!(cpu.used_pages <= cpu.capacity_pages);
    let s = engine.train_iteration();
    assert!(s.resident_fraction >= 0.0 && s.resident_fraction <= 1.0);
}

#[test]
fn schedule_tasks_cover_all_steps() {
    let engine = Engine::initialize(&small_gpt(), &server(2)).unwrap();
    let schedule = engine.schedule();
    let n = small_gpt().layers;
    assert_eq!(schedule.num_steps, 2 * n);
    // One compute per step, gathers for every step, moves for every page.
    let computes = schedule
        .tasks
        .iter()
        .filter(|t| matches!(t.op, angel_core::TaskOp::Compute(_)))
        .count();
    assert_eq!(computes, 2 * n);
    let gathers = schedule
        .tasks
        .iter()
        .filter(|t| matches!(t.op, angel_core::TaskOp::AllGather { .. }))
        .count();
    assert!(gathers >= 2 * n);
}

#[test]
fn capacity_errors_are_informative() {
    let huge = TransformerConfig::gpt3_175b().with_layers(2000);
    match Engine::initialize(&huge, &server(1)) {
        Err(Error::ModelTooLarge {
            state_bytes,
            usable_bytes,
            ..
        }) => {
            assert!(state_bytes > usable_bytes);
        }
        other => panic!("expected ModelTooLarge, got {:?}", other.map(|_| ())),
    }
    // Batch so large even one layer cannot run.
    match Engine::initialize(&TransformerConfig::gpt3_120b(), &server(512)) {
        Err(Error::WorkingSetTooLarge {
            layer_bytes,
            gpu_bytes,
        }) => {
            assert!(layer_bytes > gpu_bytes);
        }
        other => panic!("expected WorkingSetTooLarge, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn ssd_tier_extends_capacity_end_to_end() {
    let base = TransformerConfig::gpt3_28b();
    let without = Engine::max_layers(&base, &server(1));
    let with = Engine::max_layers(&base, &server(1).with_ssd(true));
    assert!(
        with > without * 2,
        "SSD should far more than double capacity: {without} → {with}"
    );
}

#[test]
fn lock_free_mode_reports_background_updates() {
    let mut engine =
        Engine::initialize(&small_gpt(), &server(2).with_ssd(true).with_lock_free(true)).unwrap();
    let s = engine.train_iteration();
    assert!(s.update_cycle_ns > 0);
    // Lock-free iterations exclude the update cycle from the critical path.
    let mut sync_engine = Engine::initialize(&small_gpt(), &server(2).with_ssd(true)).unwrap();
    let sync = sync_engine.train_iteration();
    assert!(
        s.iter_time_ns <= sync.iter_time_ns,
        "lock-free {} vs sync {}",
        s.iter_time_ns,
        sync.iter_time_ns
    );
}

#[test]
fn utilization_improves_with_batch_size() {
    let low = Engine::initialize(&small_gpt(), &server(1))
        .unwrap()
        .train_iteration();
    let high = Engine::initialize(&small_gpt(), &server(16))
        .unwrap()
        .train_iteration();
    assert!(high.samples_per_sec > low.samples_per_sec);
}
