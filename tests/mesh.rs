//! Device-mesh integration: declarative `ParallelismPlan`s lower through
//! the shared Trace → Shard → Place → Schedule → Lower pipeline, pass the
//! plan-graph verifier, and the degenerate plan reproduces the pre-mesh
//! lowering byte-for-byte.

use angel_core::plan::{ParallelismPlan, ZeroStage};
use angel_core::verify::PlanGraph;
use angel_core::{CommGroup, Engine, EngineConfig, Error};
use angel_integration::small_gpt;
use angel_model::TransformerConfig;

fn verify_clean(sim: &angel_sim::Simulation, what: &str) {
    let verdict = PlanGraph::from_sim(sim).verify();
    verdict.assert_clean(what);
    verdict.assert_covers(&sim.run(), what);
}

/// The explicit ZeRO-3 plan over every GPU is the default — configuring it
/// by hand must change nothing: same task graph, same resource surface,
/// same simulated iteration, byte for byte.
#[test]
fn explicit_zero3_plan_is_byte_identical_to_the_default() {
    let model = small_gpt();
    let base = EngineConfig::single_server().with_batch_size(2);
    let explicit = base
        .clone()
        .with_parallelism(ParallelismPlan::zero3(8))
        .with_micro_batches(1);

    let mut e_def = Engine::initialize(&model, &base).unwrap();
    let mut e_exp = Engine::initialize(&model, &explicit).unwrap();

    let lo_def = e_def.lowered();
    let lo_exp = e_exp.lowered();
    assert_eq!(lo_def.sim.num_tasks(), lo_exp.sim.num_tasks());
    assert_eq!(
        lo_def.sim.resources().iter().count(),
        lo_exp.sim.resources().iter().count(),
        "degenerate mesh must not add channels"
    );
    assert_eq!(lo_def.sim.run().makespan, lo_exp.sim.run().makespan);
    assert_eq!(e_def.train_iteration(), e_exp.train_iteration());
}

/// A multi-server dp × tp × pp composition lowers through the same staged
/// pipeline, registers per-group channels, and verifies clean: no races,
/// well-formed lifetimes, and a peak-memory bound that dominates execution.
#[test]
fn mesh_plan_lowers_and_verifies_clean() {
    let model = small_gpt().with_layers(8);
    let plan = ParallelismPlan {
        dp: 4,
        tp: 2,
        pp: 4,
        zero_stage: ZeroStage::Full,
    };
    let config = EngineConfig::servers(4)
        .with_batch_size(2)
        .with_parallelism(plan);
    let mut engine = Engine::initialize(&model, &config).expect("mesh plan must initialize");
    let lowered = engine.lowered();
    let names: Vec<&str> = lowered
        .sim
        .resources()
        .iter()
        .map(|(_, name)| name)
        .collect();
    assert!(names.contains(&CommGroup::Dp.channel_name()));
    assert!(names.contains(&CommGroup::Tp.channel_name()));
    assert!(names.contains(&CommGroup::Pp.channel_name()));
    verify_clean(&lowered.sim, "mesh-plan lowering (dp=4 tp=2 pp=4)");

    let s = engine.train_iteration();
    assert!(s.iter_time_ns > 0);
    assert!(s.samples_per_sec > 0.0);
    assert!(s.gpu_utilization > 0.0 && s.gpu_utilization <= 1.0);
}

/// Replicated (Megatron-style) and ZeRO-1 stages flow through the engine
/// too: the same pipeline prices their larger resident states, and what
/// does not fit fails with a typed capacity error instead of a panic.
#[test]
fn replicated_stages_either_fit_or_fail_typed() {
    let model = small_gpt();
    for stage in [ZeroStage::None, ZeroStage::Optimizer] {
        let plan = ParallelismPlan {
            dp: 4,
            tp: 2,
            pp: 1,
            zero_stage: stage,
        };
        let config = EngineConfig::single_server().with_parallelism(plan);
        match Engine::initialize(&model, &config) {
            Ok(mut e) => {
                let s = e.train_iteration();
                assert!(s.samples_per_sec > 0.0);
            }
            Err(Error::ModelTooLarge { .. }) | Err(Error::OutOfPages { .. }) => {}
            Err(other) => panic!("unexpected error under {stage:?}: {other}"),
        }
    }
}

/// Micro-batch pipelining scales the iteration deterministically: the
/// lowered slot graph is identical, and the 1F1B slot count
/// `micro_batches + pp − 1` multiplies it.
#[test]
fn micro_batches_scale_the_pipeline_slots() {
    let model = small_gpt();
    let base = EngineConfig::single_server().with_batch_size(2);
    let m1 = Engine::initialize(&model, &base).unwrap().train_iteration();
    let m4 = Engine::initialize(&model, &base.clone().with_micro_batches(4))
        .unwrap()
        .train_iteration();
    assert_eq!(m4.iter_time_ns, 4 * m1.iter_time_ns);
    // Throughput is unchanged without a pipeline to fill (pp = 1): four
    // micro-batches take four slots and carry four times the samples.
    assert!((m4.samples_per_sec - m1.samples_per_sec).abs() / m1.samples_per_sec < 1e-9);
}

/// The planner holds up at cluster scale: 128 servers / 1024 GPUs, both as
/// pure ZeRO-3 and as a composed mesh, initialize and verify end to end —
/// the Figure 9 / Table 3 regime.
#[test]
fn planner_scales_to_1024_gpus() {
    let model = TransformerConfig::gpt3_28b();
    let cluster = EngineConfig::servers(128);
    assert_eq!(cluster.num_gpus(), 1024);

    // Pure ZeRO-3 over all 1024 ranks (the default plan at this scale).
    let mut flat = Engine::initialize(&model, &cluster.clone().with_batch_size(1))
        .expect("28B across 1024 GPUs must fit");
    let s = flat.train_iteration();
    assert!(s.samples_per_sec > 0.0);

    // Composed: ZeRO-3 across 256 dp groups × tp=2 × pp=2.
    let plan = ParallelismPlan {
        dp: 256,
        tp: 2,
        pp: 2,
        zero_stage: ZeroStage::Full,
    };
    let engine = Engine::initialize(&model, &cluster.with_batch_size(1).with_parallelism(plan))
        .expect("composed 1024-GPU plan must initialize");
    let lowered = engine.lowered();
    assert!(lowered.sim.num_tasks() > 0);
    verify_clean(&lowered.sim, "1024-GPU composed plan");
}

/// Invalid factorization surfaces as a typed error from `initialize`, not
/// from deep inside the pipeline.
#[test]
fn invalid_plan_fails_fast() {
    let bad = EngineConfig::servers(2).with_parallelism(ParallelismPlan::zero3(8));
    match Engine::initialize(&small_gpt(), &bad) {
        Err(Error::InvalidParallelism(msg)) => {
            assert!(msg.contains("16"), "message names the cluster size: {msg}")
        }
        other => panic!("expected InvalidParallelism, got {:?}", other.map(|_| ())),
    }
}
