//! The engine lowers once per schedule and keeps that `LoweredIteration`.
//!
//! These tests pin the two ways a stored lowering can go wrong: a fault
//! injected into one iteration leaking into the stored graph (so every
//! later iteration replays it), and a splice that replaces the schedule
//! without rebuilding the graph (so later iterations keep running the old
//! plan). Every check compares against a fresh engine, which lowers its
//! schedule from scratch.

use angel_core::plan::{ParallelismPlan, ZeroStage};
use angel_core::{ClusterEvent, Engine, EngineConfig, FaultTarget};
use angel_model::TransformerConfig;

fn tiny() -> TransformerConfig {
    TransformerConfig::gpt3_1_7b()
        .with_layers(4)
        .with_seq_len(256)
}

/// What identifies a lowering: its task count, its Communicator journal,
/// its memory-domain capacities (the GPU budget an outage splice tightens)
/// and the makespan of one run of it.
fn signature(e: &Engine) -> (usize, String, Vec<u64>, u64) {
    let lowered = e.lowered();
    let resources = lowered.sim.resources();
    (
        lowered.sim.num_tasks(),
        format!("{:?}", lowered.comm_log),
        resources
            .mem_domains()
            .map(|(dom, _)| resources.mem_capacity(dom))
            .collect(),
        lowered.sim.run().makespan,
    )
}

/// `e` at its current config is indistinguishable from a fresh engine
/// initialized there: same lowering, same next iteration.
fn assert_matches_fresh(e: &mut Engine, model: &TransformerConfig, what: &str) {
    let mut fresh = Engine::initialize(model, e.config()).expect("current config initializes");
    assert_eq!(signature(e), signature(&fresh), "{what}: lowering");
    assert_eq!(
        e.train_iteration(),
        fresh.train_iteration(),
        "{what}: iteration"
    );
}

fn mesh(servers: usize) -> EngineConfig {
    EngineConfig::servers(servers)
        .with_batch_size(2)
        .with_parallelism(ParallelismPlan {
            dp: servers * 2,
            tp: 2,
            pp: 2,
            zero_stage: ZeroStage::Full,
        })
}

#[test]
fn repeated_iterations_equal_a_fresh_first_iteration() {
    let moe = TransformerConfig::t5_moe_1_2t()
        .with_layers(2)
        .with_experts(16)
        .with_seq_len(256);
    let cases = [
        ("zero3", tiny(), EngineConfig::servers(2).with_batch_size(2)),
        ("dp x tp2 x pp2", tiny(), mesh(1)),
        ("moe", moe, EngineConfig::servers(2).with_batch_size(2)),
        ("ssd", tiny(), EngineConfig::single_server().with_ssd(true)),
        (
            "lock-free",
            tiny(),
            EngineConfig::single_server()
                .with_ssd(true)
                .with_lock_free(true),
        ),
    ];
    for (what, model, config) in cases {
        let first = Engine::initialize(&model, &config)
            .expect("case initializes")
            .train_iteration();
        let mut e = Engine::initialize(&model, &config).expect("case initializes");
        for k in 0..3 {
            assert_eq!(e.train_iteration(), first, "{what}: iteration {k}");
        }
    }
}

#[test]
fn faults_on_the_last_iteration_leave_the_stored_lowering_clean() {
    // A fault on the final iteration has no boundary after it, so no splice
    // rebuilds the lowering: the next iteration runs the stored graph, which
    // must not carry the fault.
    let mut e = Engine::initialize(&tiny(), &EngineConfig::servers(2)).unwrap();
    let quiet = e.train_iteration();
    let before = signature(&e);
    let faults = [
        ClusterEvent::Outage {
            at_iter: 1,
            target: FaultTarget::Comm,
            at_ns: 0,
            duration_ns: 2_000_000,
        },
        ClusterEvent::ServerLoss {
            at_iter: 1,
            servers: 1,
            at_ns: 0,
        },
    ];
    for fault in faults {
        let r = e.run_online(2, &[fault]).unwrap();
        assert!(r.splices.is_empty(), "{fault:?}: no boundary follows");
        assert_eq!(r.per_iter[0], quiet, "{fault:?}: quiet iteration");
        assert_ne!(r.per_iter[1], quiet, "{fault:?}: the fault must bite");
        assert!(e.lowered().sim.faults().is_empty(), "{fault:?}");
        assert_eq!(signature(&e), before, "{fault:?}");
        assert_eq!(e.train_iteration(), quiet, "{fault:?}: next iteration");
    }
}

#[test]
fn every_splice_kind_rebuilds_the_lowering() {
    let model = tiny();
    let outage = |at_iter| ClusterEvent::Outage {
        at_iter,
        target: FaultTarget::Gpu,
        at_ns: 0,
        duration_ns: 2_000_000,
    };
    let mut e = Engine::initialize(&model, &EngineConfig::servers(2)).unwrap();
    let mut prev = signature(&e);
    let splices: [(&str, ClusterEvent); 3] = [
        ("outage", outage(0)),
        (
            "server loss",
            ClusterEvent::ServerLoss {
                at_iter: 0,
                servers: 1,
                at_ns: 0,
            },
        ),
        (
            "resize",
            ClusterEvent::Resize {
                at_iter: 0,
                servers: 2,
            },
        ),
    ];
    for (what, ev) in splices {
        let r = e.run_online(2, &[ev]).unwrap();
        assert_eq!(r.splices.len(), 1, "{what}");
        assert!(e.lowered().sim.faults().is_empty(), "{what}");
        // Each splice changes the plan, so a stale lowering cannot pass
        // for the rebuilt one.
        let now = signature(&e);
        assert_ne!(now, prev, "{what}: the splice must change the lowering");
        prev = now;
        assert_matches_fresh(&mut e, &model, what);
    }
    // The service's resize primitive splices through the same path.
    e.splice_resize(0, 1).unwrap();
    assert_ne!(signature(&e), prev, "splice_resize");
    assert_matches_fresh(&mut e, &model, "splice_resize");
}

#[test]
fn lower_iteration_is_a_copy_of_the_stored_lowering() {
    let e = Engine::initialize(&tiny(), &mesh(1)).unwrap();
    let owned = e.lower_iteration();
    let stored = e.lowered();
    assert_eq!(owned.sim.num_tasks(), stored.sim.num_tasks());
    assert_eq!(
        format!("{:?}", owned.comm_log),
        format!("{:?}", stored.comm_log)
    );
    assert_eq!(owned.sim.run().makespan, stored.sim.run().makespan);
}
