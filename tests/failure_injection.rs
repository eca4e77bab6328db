//! Failure injection — Section 3.1's "Failure and Recovery": pre-training
//! jobs run for weeks on hundreds of GPUs, so the system must survive
//! resource loss and restarts.

use angel_core::lockfree::{ClearPolicy, LayerState, LockFreeTrainer, MemoryStore, SgdOptimizer};
use angel_core::{CapacityTier, Engine, EngineConfig, Error, MemoryPlan};
use angel_hw::DeviceId;
use angel_integration::{server, small_gpt};
use angel_model::TransformerConfig;

/// Losing a server mid-job: re-initializing on the smaller fleet must
/// either succeed with a fresh schedule or fail with a clean capacity error
/// — never panic or corrupt state.
#[test]
fn shrinking_the_fleet_reinitializes_cleanly() {
    let model = TransformerConfig::gpt3_13b();
    let mut last_sps = f64::INFINITY;
    for servers in [4usize, 2, 1] {
        let cfg = EngineConfig::servers(servers).with_batch_size(2);
        match Engine::initialize(&model, &cfg) {
            Ok(mut e) => {
                let s = e.train_iteration();
                assert!(s.samples_per_sec < last_sps * 1.01);
                last_sps = s.samples_per_sec;
            }
            Err(e) => {
                // Acceptable terminal state: clean capacity error.
                let msg = e.to_string();
                assert!(msg.contains("exceed"), "unexpected error: {msg}");
            }
        }
    }
}

/// An elastic splice onto a fleet too small for the model fails typed,
/// before anything is traced, and leaves the engine exactly as it was: same
/// lowering, same config, same next iteration.
#[test]
fn failed_splice_leaves_the_engine_as_it_was() {
    // GPT-3 28B geometry at 100 layers fits two servers, not one.
    let model = TransformerConfig::gpt3_28b().with_layers(100);
    let mut engine = Engine::initialize(&model, &EngineConfig::servers(2)).unwrap();
    let tasks = engine.lowered().sim.num_tasks();
    let comm_log = format!("{:?}", engine.lowered().comm_log);
    let config = format!("{:?}", engine.config());
    let before = engine.train_iteration();

    let one_server = EngineConfig::servers(1);
    assert!(
        MemoryPlan::precheck(&model, &one_server).is_err(),
        "the splice must be rejected before tracing"
    );
    match engine.splice_resize(0, 1) {
        Err(Error::ModelTooLarge {
            tier: CapacityTier::CpuPool,
            needed_bytes,
            available_bytes,
            ..
        }) => assert!(needed_bytes > available_bytes),
        other => panic!("expected a CPU-pool ModelTooLarge, got {other:?}"),
    }

    assert_eq!(engine.lowered().sim.num_tasks(), tasks);
    assert_eq!(format!("{:?}", engine.lowered().comm_log), comm_log);
    assert_eq!(format!("{:?}", engine.config()), config);
    assert_eq!(engine.train_iteration(), before);
}

/// Device-capacity shrink: a tighter GPU budget (e.g. another tenant's
/// reservation) degrades residency but the schedule stays within budget.
#[test]
fn gpu_budget_shrink_degrades_gracefully() {
    let model = small_gpt();
    let mut prev_resident = 2.0f64;
    for reserved_gib in [2u64, 8, 16, 24, 32] {
        let cfg = server(2).with_gpu_reserved(reserved_gib << 30);
        match Engine::initialize(&model, &cfg) {
            Ok(engine) => {
                let stats = engine.schedule().stats;
                assert!(stats.peak_gpu_bytes <= cfg.gpu_budget());
                assert!(stats.resident_fraction <= prev_resident + 1e-9);
                prev_resident = stats.resident_fraction;
            }
            Err(_) => break, // eventually nothing fits — fine
        }
    }
}

/// Allocator behaviour at exhaustion: failed allocations must not leak
/// pages, and the pool must keep serving after the failure.
#[test]
fn allocator_survives_exhaustion_cycles() {
    let mut alloc = angel_core::PageAllocator::with_page_size(1 << 20, false);
    alloc.add_pool(DeviceId::gpu(0), 8 << 20).unwrap();
    for _round in 0..50 {
        let a = alloc.alloc_tensor_raw(5 << 20, DeviceId::gpu(0)).unwrap();
        assert!(alloc.alloc_tensor_raw(5 << 20, DeviceId::gpu(0)).is_err());
        let b = alloc.alloc_tensor_raw(3 << 20, DeviceId::gpu(0)).unwrap();
        alloc.release_tensor(a).unwrap();
        alloc.release_tensor(b).unwrap();
        assert_eq!(alloc.stats(DeviceId::gpu(0)).used_pages, 0);
    }
}

/// Checkpoint/restart of the lock-free trainer: shutting down returns the
/// authoritative FP32 states, and a new trainer resumed from them continues
/// exactly where the old one stopped.
#[test]
fn lockfree_checkpoint_restart() {
    let initial = vec![vec![1.0f32; 32]; 3];
    let t1 = LockFreeTrainer::spawn(
        initial.clone(),
        Box::new(MemoryStore::new(
            initial.iter().cloned().map(LayerState::new).collect(),
        )),
        Box::new(SgdOptimizer { lr: 0.1 }),
        |x| x,
        ClearPolicy::TakeAtSnapshot,
    );
    for l in 0..3 {
        t1.push_grads(l, vec![1.0; 32]);
    }
    t1.wait_quiescent();
    // "GPU failure": shut down, persist the states (the checkpoint).
    let checkpoint = t1.shutdown(3).expect("in-memory store cannot fail");
    let after_crash: Vec<Vec<f32>> = checkpoint.iter().map(|s| s.p32.clone()).collect();

    // Restart from the checkpoint and keep training.
    let t2 = LockFreeTrainer::spawn(
        after_crash.clone(),
        Box::new(MemoryStore::new(checkpoint)),
        Box::new(SgdOptimizer { lr: 0.1 }),
        |x| x,
        ClearPolicy::TakeAtSnapshot,
    );
    let (resumed, _) = t2.read_params(0);
    assert_eq!(
        resumed, after_crash[0],
        "restart must resume from the checkpoint"
    );
    t2.push_grads(0, vec![1.0; 32]);
    t2.wait_quiescent();
    let finals = t2.shutdown(3).expect("in-memory store cannot fail");
    assert!(
        finals[0].p32[0] < after_crash[0][0],
        "training continues after restart"
    );
}

/// A trainer dropped without shutdown (simulating an abrupt task kill) must
/// not hang the process.
#[test]
fn lockfree_abrupt_drop_does_not_hang() {
    let initial = vec![vec![0.0f32; 16]; 2];
    let t = LockFreeTrainer::spawn(
        initial.clone(),
        Box::new(MemoryStore::new(
            initial.iter().cloned().map(LayerState::new).collect(),
        )),
        Box::new(SgdOptimizer { lr: 0.1 }),
        |x| x,
        ClearPolicy::OnUpdateReceipt,
    );
    t.push_grads(0, vec![1.0; 16]);
    drop(t); // Drop impl must stop both threads
}
