//! Static verification of every lowering the system produces, plus the
//! bounded model checker over the lock-free updating protocol.
//!
//! Three layers of assurance:
//!
//! 1. Every production lowering — the Engine's planned iteration, the
//!    DeepSpeed and Megatron baselines, and both checkpoint graphs — must
//!    verify clean (no races, no lifetime violations, acyclic) and its
//!    proven peak-memory bound must dominate the simulated execution.
//! 2. Mutation tests: seeding a defect (deleting a dependency edge) must
//!    make the verifier complain — otherwise the verifier has no teeth.
//! 3. Random plans (proptest): on arbitrary self-balanced task graphs the
//!    static bound must still dominate the dynamic peak, and the verifier's
//!    report must equal the naive-reachability oracle's.

use angel_baselines::deepspeed::DeepSpeed;
use angel_baselines::megatron::{lower_strategy, MegatronStrategy};
use angel_core::plan::{checkpoint_restore_graph, checkpoint_write_graph};
use angel_core::verify::{check_lockfree, ModelConfig, Mutation, PlanGraph, ShutdownMode};
use angel_core::{lockfree::ClearPolicy, Engine, EngineConfig};
use angel_hw::ClusterSpec;
use angel_integration::small_gpt;
use angel_model::TransformerConfig;
use angel_sim::compute::GpuComputeModel;

fn verify_clean(sim: &angel_sim::Simulation, what: &str) {
    let verdict = PlanGraph::from_sim(sim).verify();
    verdict.assert_clean(what);
    verdict.assert_covers(&sim.run(), what);
}

#[test]
fn engine_lowerings_verify_clean_across_configs() {
    let model = small_gpt();
    let configs = [
        ("sync cpu", EngineConfig::single_server().with_batch_size(2)),
        (
            "ssd",
            EngineConfig::single_server()
                .with_batch_size(2)
                .with_ssd(true),
        ),
        (
            "lock-free ssd",
            EngineConfig::single_server()
                .with_batch_size(2)
                .with_ssd(true)
                .with_lock_free(true),
        ),
    ];
    for (what, config) in configs {
        let engine = Engine::initialize(&model, &config).expect("engine must initialize");
        let lowered = engine.lowered();
        verify_clean(&lowered.sim, &format!("engine lowering ({what})"));
    }
}

#[test]
fn deepspeed_lowering_verifies_clean() {
    let model = small_gpt();
    let ds = DeepSpeed::new(ClusterSpec::single_a100(), 2);
    let lo = ds
        .lower_iteration(&model)
        .expect("small model must fit DeepSpeed");
    verify_clean(lo.sim(), "DeepSpeed lowering");
}

#[test]
fn megatron_lowering_verifies_clean() {
    let model = TransformerConfig::gpt3_1_7b();
    let s = MegatronStrategy {
        tp: 1,
        pp: 2,
        dp: 4,
        micro_batch: 1,
        num_micro_batches: 8,
    };
    let lo = lower_strategy(
        &model,
        s,
        &ClusterSpec::single_a100(),
        &GpuComputeModel::a100(),
    )
    .expect("strategy must fit");
    verify_clean(lo.sim(), "Megatron lowering");
}

#[test]
fn checkpoint_graphs_verify_clean() {
    let model = small_gpt();
    let config = EngineConfig::single_server().with_ssd(true);
    verify_clean(
        checkpoint_write_graph(&model, &config).sim(),
        "checkpoint write graph",
    );
    verify_clean(
        checkpoint_restore_graph(&model, &config).sim(),
        "checkpoint restore graph",
    );
}

/// Large lowerings verify too: a deep GPT-3 175B-geometry model (1500
/// layers) on sixteen SSD-backed servers lowers to more than 20 000 sim
/// tasks, and verifies clean with a peak bound covering the simulated run.
#[test]
fn large_lowering_verifies_clean() {
    let model = TransformerConfig::gpt3_175b().with_layers(1500);
    let config = EngineConfig::servers(16).with_ssd(true);
    let engine = Engine::initialize(&model, &config).expect("deep model must fit the SSD fleet");
    let lowered = engine.lowered();
    let tasks = lowered.sim.num_tasks();
    assert!(tasks > 20_000, "lowering has only {tasks} tasks");
    verify_clean(&lowered.sim, "deep gpt3-175b-geometry lowering");
}

/// Mutation seed: delete the gather→compute dependency edge. The compute
/// then races the all-gather on the gathered-layer buffer — the verifier
/// must flag exactly that object.
#[test]
fn deleting_a_dependency_edge_plants_a_race() {
    let model = small_gpt();
    let config = EngineConfig::single_server().with_batch_size(2);
    let engine = Engine::initialize(&model, &config).expect("engine must initialize");
    let lowered = engine.lowered();

    let mut graph = PlanGraph::from_sim(&lowered.sim);
    let gather = graph.task_by_label("all_gather s0");
    let compute = graph.task_by_label("compute s0");
    assert!(
        graph.remove_dep(compute, gather),
        "compute s0 must depend on all_gather s0"
    );
    let verdict = graph.verify();
    assert!(
        !verdict.races.is_empty(),
        "deleting the gather→compute edge must plant a race"
    );
    assert!(
        verdict
            .races
            .iter()
            .any(|r| r.first_label.contains("all_gather s0")
                || r.second_label.contains("all_gather s0")),
        "the planted race must involve the mutated gather: {:?}",
        verdict.races
    );
}

/// The model checker certifies the production protocol deadlock-free and
/// conserving under both clear policies and both shutdown modes, and
/// rejects the seeded protocol mutations — end-to-end over the same
/// decision functions the trainer executes.
#[test]
fn model_checker_certifies_protocol_and_rejects_mutations() {
    for policy in [ClearPolicy::OnUpdateReceipt, ClearPolicy::TakeAtSnapshot] {
        for shutdown in [ShutdownMode::Quiescent, ShutdownMode::Abort] {
            let mut cfg = ModelConfig::new(policy, shutdown);
            cfg.max_faults = 1;
            let ex = check_lockfree(&cfg);
            assert!(ex.complete, "exploration must be exhaustive");
            assert!(
                ex.violation.is_none(),
                "clean protocol must verify ({policy:?}, {shutdown:?}): {:?}",
                ex.violation
            );
        }
    }
    // Dropping the update receipt deadlocks quiescent shutdown under the
    // paper's receipt-based clearing.
    let mut cfg = ModelConfig::new(ClearPolicy::OnUpdateReceipt, ShutdownMode::Quiescent);
    cfg.mutation = Mutation::SkipReceipt;
    let ex = check_lockfree(&cfg);
    assert!(
        ex.violation.is_some(),
        "skipping the receipt must be caught"
    );
    assert!(!ex.trace.is_empty(), "a counterexample trace is produced");
}

mod random_plans {
    use super::*;
    use angel_core::verify::plan::oracle;
    use angel_sim::{Access, MemEffect, ObjectId, Resources, SimTask, Simulation};
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    struct RandTask {
        resource: usize,
        duration: u64,
        acquire: u64,
        release_frac: u8,
        dep_picks: Vec<usize>,
        /// (object, mode) with mode 0..4 = read / write / alloc / free.
        accesses: Vec<(u64, u8)>,
        /// Candidate forward dependency edges, planted after submission.
        forward_picks: Vec<usize>,
    }

    fn rand_task() -> impl Strategy<Value = RandTask> {
        (
            (
                0usize..4,
                0u64..2000,
                0u64..4096,
                0u8..101,
                proptest::collection::vec(any::<usize>(), 0..3),
            ),
            proptest::collection::vec((0u64..4, 0u8..4), 0..3),
            proptest::collection::vec(any::<usize>(), 0..2),
        )
            .prop_map(
                |(
                    (resource, duration, acquire, release_frac, dep_picks),
                    accesses,
                    forward_picks,
                )| {
                    RandTask {
                        resource,
                        duration,
                        acquire,
                        release_frac,
                        dep_picks,
                        accesses,
                        forward_picks,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On arbitrary DAGs over four streams and one memory domain —
        /// random durations, random dependency edges, random accesses to a
        /// few objects, and self-balanced memory effects (each task
        /// releases at most what it acquired) — the verifier's static peak
        /// bound dominates the simulator's observed peak, and its races,
        /// cycle verdict and peak bounds equal the naive-reachability
        /// oracle's. Planting forward dependency edges (which may close a
        /// cycle) keeps the two equal.
        #[test]
        fn static_bound_dominates_simulated_peak(
            tasks in proptest::collection::vec(rand_task(), 1..24)
        ) {
            let mut res = Resources::new();
            let streams = [
                res.add_compute("s0"),
                res.add_compute("s1"),
                res.add_compute("s2"),
                res.add_compute("s3"),
            ];
            let dom = res.add_mem_domain("mem", u64::MAX);
            let mut sim = Simulation::new(res);
            for (i, t) in tasks.iter().enumerate() {
                let deps: Vec<usize> = t.dep_picks.iter().filter_map(|p| {
                    if i == 0 { None } else { Some(p % i) }
                }).collect();
                let release = t.acquire * u64::from(t.release_frac) / 100;
                let mut task = SimTask::duration(streams[t.resource], t.duration)
                    .with_deps(deps)
                    .with_mem(MemEffect { domain: dom, acquire: t.acquire, release })
                    .with_label(format!("t{i}"));
                for &(object, mode) in &t.accesses {
                    let object = ObjectId(object);
                    task = task.with_access(match mode {
                        0 => Access::read(object),
                        1 => Access::write(object),
                        2 => Access::alloc(object),
                        _ => Access::free(object),
                    });
                }
                sim.submit(task);
            }
            let mut graph = PlanGraph::from_sim(&sim);
            let verdict = oracle::assert_agrees(&graph);
            let report = sim.run();
            prop_assert!(verdict.cycle.is_none());
            for (d, (&bound, &seen)) in
                verdict.peak_bounds.iter().zip(report.peak_mem.iter()).enumerate()
            {
                prop_assert!(
                    bound >= seen,
                    "domain {d}: static bound {bound} < simulated peak {seen}"
                );
            }
            let n = tasks.len();
            for (i, t) in tasks.iter().enumerate() {
                for &p in t.forward_picks.iter().filter(|&&p| p % 3 == 0) {
                    if i + 1 < n {
                        graph.add_dep(i, i + 1 + p / 3 % (n - i - 1));
                    }
                }
            }
            oracle::assert_agrees(&graph);
        }
    }
}
