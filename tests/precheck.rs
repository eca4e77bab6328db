//! Soundness of the closed-form capacity precheck
//! (`MemoryPlan::precheck`): across the plan space, `Engine::initialize`
//! decides exactly as the stage pipeline does without the precheck — same
//! acceptance, same error variant, same capacity tier — and a precheck
//! rejection reports a need that overflows its tier and never exceeds the
//! need the pipeline itself reports.

use angel_core::{
    CapacityTier, Engine, EngineConfig, Error, MemoryPlan, ParallelismPlan, SchedulePlan,
    ShardPlan, TracePlan, ZeroStage,
};
use angel_model::TransformerConfig;
use proptest::prelude::*;

/// The stage pipeline without the precheck: trace → shard → memory →
/// schedule → place → materialize. Lowering cannot fail, so this decides
/// every plan exactly as `Engine::initialize` did before the precheck.
fn staged(model: &TransformerConfig, config: &EngineConfig) -> Result<(), Error> {
    let traced = TracePlan::build(model, config)?;
    let shard = ShardPlan::build(model, config, &traced);
    let mem = MemoryPlan::build(config, &shard)?;
    let planned = SchedulePlan::build(config, &shard, &mem, &traced.zero)?;
    let placed = mem.place(config, &shard, &planned)?;
    mem.materialize(config, model.layers, &placed)?;
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Gpt,
    T5,
    T5Moe,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    Zero3,
    /// dp × tp2 × pp2 under ZeRO-3.
    Mesh,
    /// dp × tp2 × pp2 with replicated parameters (ZeRO stage None).
    Replicated,
}

#[derive(Debug, Clone)]
struct Case {
    family: Family,
    layers: usize,
    layout: Layout,
    servers: usize,
    batch: u64,
    /// (ssd, lock_free, gpu_cache, recompute)
    flags: (bool, bool, bool, bool),
    /// Host memory and SSD per server, as multiples of the model's states.
    host_ratio: f64,
    ssd_ratio: f64,
    /// Per-GPU budget, as a multiple of one layer's FP16 parameters and
    /// gradients.
    gpu_ratio: f64,
}

impl Case {
    fn model(&self) -> TransformerConfig {
        let base = match self.family {
            Family::Gpt => TransformerConfig::gpt3_1_7b(),
            Family::T5 => TransformerConfig::t5_1_4b(),
            Family::T5Moe => TransformerConfig::t5_moe_1_2t().with_experts(16),
        };
        base.with_layers(self.layers).with_seq_len(256)
    }

    /// A fleet scaled to the model, so that the pinned-buffer cap, the
    /// CPU pool and a step's working set can each be the first to trip.
    fn config(&self, model: &TransformerConfig) -> EngineConfig {
        let (ssd, lock_free, gpu_cache, recompute) = self.flags;
        let mut config = EngineConfig::servers(self.servers)
            .with_batch_size(self.batch)
            .with_ssd(ssd)
            .with_lock_free(lock_free)
            .with_gpu_cache(gpu_cache)
            .with_recompute(recompute);
        let dp = self.servers * 8 / 4;
        config = match self.layout {
            Layout::Zero3 => config,
            Layout::Mesh => config
                .with_parallelism(ParallelismPlan {
                    dp,
                    tp: 2,
                    pp: 2,
                    zero_stage: ZeroStage::Full,
                })
                .with_micro_batches(2),
            Layout::Replicated => config
                .with_parallelism(ParallelismPlan::megatron(dp, 2, 2))
                .with_micro_batches(2),
        };
        let states = model.model_state_bytes() as f64;
        let server = &mut config.cluster.server;
        server.cpu.capacity = (states * self.host_ratio) as u64;
        if let Some(dev) = server.ssd.as_mut() {
            dev.capacity = (states * self.ssd_ratio) as u64;
        }
        let gpu = server.gpu(0).capacity;
        let layer_p16g16 = (model.params_per_layer() * 4) as f64;
        let budget = ((layer_p16g16 * self.gpu_ratio) as u64).min(gpu);
        config.with_gpu_reserved(gpu - budget)
    }
}

fn cases() -> impl Strategy<Value = Case> {
    (
        (
            prop_oneof![Just(Family::Gpt), Just(Family::T5), Just(Family::T5Moe)],
            1usize..25,
            prop_oneof![
                Just(Layout::Zero3),
                Just(Layout::Mesh),
                Just(Layout::Replicated)
            ],
            1usize..3,
            1u64..5,
        ),
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        (-7.0f64..0.5, -6.0f64..1.0, -1.0f64..4.0),
    )
        .prop_map(
            |((family, layers, layout, servers, batch), flags, (host_log2, ssd_log2, gpu_log2))| {
                Case {
                    family,
                    layers,
                    layout,
                    servers,
                    batch,
                    flags,
                    host_ratio: host_log2.exp2(),
                    ssd_ratio: ssd_log2.exp2(),
                    gpu_ratio: gpu_log2.exp2(),
                }
            },
        )
}

/// How the generated cases were decided.
#[derive(Debug, Default)]
struct Tally {
    accepted: usize,
    precheck_rejected: usize,
    cpu_pool_at_place: usize,
    pinned_buffers: usize,
    working_set: usize,
    invalid_plan: usize,
    other: usize,
}

fn check(case: &Case, tally: &mut Tally) -> Result<(), String> {
    let model = case.model();
    let config = case.config(&model);
    let engine = Engine::initialize(&model, &config).map(|_| ());
    let reference = staged(&model, &config);
    let tier = |e: &Error| match e {
        Error::ModelTooLarge { tier, .. } => Some(*tier),
        _ => None,
    };
    let (got, want) = match (engine, reference) {
        (Ok(()), Ok(())) => {
            tally.accepted += 1;
            return Ok(());
        }
        (Err(got), Err(want))
            if std::mem::discriminant(&got) == std::mem::discriminant(&want)
                && tier(&got) == tier(&want) =>
        {
            (got, want)
        }
        (engine, reference) => {
            return Err(format!(
                "{case:?}: engine {engine:?}, pipeline {reference:?}"
            ));
        }
    };
    let prechecked = MemoryPlan::precheck(&model, &config);
    let mismatch =
        || format!("{case:?}: engine {got:?}, pipeline {want:?}, precheck {prechecked:?}");
    match &prechecked {
        // The pipeline's own error, exactly.
        Ok(()) if got == want => {}
        Err(pre) if *pre != got => return Err(mismatch()),
        Err(pre) if *pre == want => {}
        // A closed-form CPU-pool rejection: its need overflows the pool and
        // never exceeds the need of the schedule's placement.
        Err(Error::ModelTooLarge {
            tier: CapacityTier::CpuPool,
            needed_bytes,
            available_bytes,
            ..
        }) => match want {
            Error::ModelTooLarge {
                needed_bytes: actual,
                ..
            } if available_bytes < needed_bytes && *needed_bytes <= actual => {}
            _ => return Err(mismatch()),
        },
        _ => return Err(mismatch()),
    }
    let counter = match (tier(&want), &want) {
        (Some(CapacityTier::CpuPool), _) if prechecked.is_err() => &mut tally.precheck_rejected,
        (Some(CapacityTier::CpuPool), _) => &mut tally.cpu_pool_at_place,
        (Some(CapacityTier::PinnedBuffers), _) => &mut tally.pinned_buffers,
        (_, Error::WorkingSetTooLarge { .. }) => &mut tally.working_set,
        (_, Error::InvalidParallelism(_)) => &mut tally.invalid_plan,
        _ => &mut tally.other,
    };
    *counter += 1;
    Ok(())
}

/// Every generated plan is decided identically with and without the
/// precheck, and the generated space reaches every way a plan is decided.
#[test]
fn precheck_never_changes_a_decision() {
    let strategy = cases();
    let mut rng = proptest::new_test_rng();
    let mut tally = Tally::default();
    for n in 0..400 {
        let case = strategy.generate(&mut rng);
        if let Err(msg) = check(&case, &mut tally) {
            panic!("case {n}: {msg}");
        }
    }
    assert!(tally.accepted > 0, "{tally:?}");
    assert!(tally.precheck_rejected > 0, "{tally:?}");
    assert!(tally.cpu_pool_at_place > 0, "{tally:?}");
    assert!(tally.pinned_buffers > 0, "{tally:?}");
    assert!(tally.working_set > 0, "{tally:?}");
    assert!(tally.invalid_plan > 0, "{tally:?}");
}
