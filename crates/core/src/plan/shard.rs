//! Stage 2 — Shard: ZeRO and expert-parallel byte accounting (Section 3.2,
//! and Section 6.4 for MoE models).
//!
//! This stage turns the trace into the [`SchedulerInput`] — per-layer shard
//! pages, gathered sizes and working sets — and computes the per-rank byte
//! quantities every later stage prices against:
//!
//! * dense models: plain ZeRO sharding of every layer's FP16 parameters;
//! * MoE models: expert parameters are partitioned by expert parallelism —
//!   each rank holds `experts/N` experts locally and never gathers the
//!   rest; only the non-expert ("dense") parameters are ZeRO-sharded and
//!   travel the collective fabric. Gradients follow the same split: a rank
//!   only materializes its local experts' gradients (tokens routed
//!   elsewhere never come back);
//! * mesh plans: the [`ParallelismPlan`] composes on top — tensor
//!   parallelism divides every layer's tensors (and activations) by `tp`
//!   before ZeRO sharding, pipeline parallelism confines this rank's
//!   schedule to its stage's `ceil(layers/pp)` layers, and the ZeRO stage
//!   decides which state is sharded across the dp group at all.

use crate::config::EngineConfig;
use crate::plan::{ParallelismPlan, ZeroStage};
use crate::scheduler::{input_from_trace, LayerPlan, SchedulerInput};
use crate::tracer::Trace;
use angel_model::TransformerConfig;

use super::trace::TracePlan;

/// This rank's byte totals: a closed form of the model size and the
/// parallelism plan, shared by [`ShardPlan::build`] and the capacity
/// precheck ([`super::MemoryPlan::precheck`]), which needs them before any
/// trace exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankTotals {
    /// Whole-model parameter count.
    pub total_params: u64,
    /// Parameters of one model-parallel slice (`total / (tp·pp)` — the
    /// whole model for pure data parallelism).
    pub model_parallel_params: u64,
    /// Whole-model state bytes (16 B/param).
    pub state_bytes: u64,
    /// This rank's ZeRO parameter share.
    pub rank_params: u64,
    /// This rank's share of model states.
    pub rank_state_bytes: u64,
    /// This rank's FP32 optimizer-state bytes (12 B/param).
    pub rank_optim: u64,
    /// This rank's FP16 parameter+gradient bytes (4 B/param).
    pub rank_p16g16: u64,
}

impl RankTotals {
    /// The totals of one rank of `model` under `plan`.
    pub fn new(model: &TransformerConfig, plan: &ParallelismPlan) -> Self {
        let total_params = model.total_params();
        let state_bytes = model.model_state_bytes();
        // Model parallelism divides the replica first; the ZeRO stage then
        // decides what the dp group shards of each rank's slice.
        let mp = plan.model_parallel();
        let model_parallel_params = total_params.div_ceil(mp);
        let rank_params = model_parallel_params.div_ceil(plan.param_shard_ranks());
        let rank_optim = model_parallel_params.div_ceil(plan.optim_shard_ranks()) * 12;
        let rank_p16g16 = rank_params * 4;
        let rank_state_bytes = match plan.zero_stage {
            // Fully sharded: an even slice of everything.
            ZeroStage::Full => state_bytes.div_ceil(mp * plan.dp as u64),
            // Replicated parameters/gradients plus the (possibly sharded)
            // optimizer states.
            _ => rank_p16g16 + rank_optim,
        };
        Self {
            total_params,
            model_parallel_params,
            state_bytes,
            rank_params,
            rank_state_bytes,
            rank_optim,
            rank_p16g16,
        }
    }
}

/// The sharded view of the model: scheduler input plus rank byte totals.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Per-layer pages/working sets for the Unified Scheduler.
    pub input: SchedulerInput,
    /// Per-layer FP16 parameter bytes that cross the collective fabric
    /// (all parameters for dense models; non-expert parameters only under
    /// expert parallelism).
    pub layer_comm_bytes: Vec<u64>,
    /// This rank's byte totals.
    pub totals: RankTotals,
}

impl ShardPlan {
    /// Shard `model` across the mesh described by `traced`.
    pub fn build(model: &TransformerConfig, config: &EngineConfig, traced: &TracePlan) -> Self {
        let plan = traced.plan;
        let trace = &traced.trace;
        let gpu_budget = config.gpu_budget();
        let degenerate = plan.tp == 1 && plan.pp == 1 && plan.zero_stage == ZeroStage::Full;
        let input = if model.is_moe() {
            moe_input(
                model,
                trace,
                traced.n_gpus,
                config.page_size,
                gpu_budget,
                config.recompute,
            )
        } else if degenerate {
            input_from_trace(trace, config.page_size, plan.dp, gpu_budget)
        } else {
            mesh_input(trace, &plan, config.page_size, gpu_budget)
        };

        let layer_comm_bytes = (0..model.layers)
            .map(|l| {
                if model.is_moe() {
                    trace.layer_param16_split(l).0
                } else {
                    trace.layer_param16_bytes(l).div_ceil(plan.tp as u64)
                }
            })
            .collect();

        Self {
            input,
            layer_comm_bytes,
            totals: RankTotals::new(model, &plan),
        }
    }
}

/// Scheduler input for a non-degenerate mesh plan: this rank schedules its
/// pipeline stage's layers, with every tensor (parameters, activations,
/// gradients) already divided `tp` ways, and the ZeRO stage deciding how
/// much of each layer's parameters this rank stores between iterations.
fn mesh_input(
    trace: &Trace,
    plan: &ParallelismPlan,
    page_size: u64,
    gpu_budget: u64,
) -> SchedulerInput {
    let tp = plan.tp as u64;
    let n_layers = plan.stage_layers(trace.layers);
    let param_shard = plan.param_shard_ranks();
    let layers = (0..n_layers)
        .map(|l| {
            let full = trace.layer_param16_bytes(l).div_ceil(tp);
            let shard = full.div_ceil(param_shard);
            let mut pages = Vec::with_capacity(shard.div_ceil(page_size.max(1)) as usize);
            let mut rest = shard;
            while rest > 0 {
                let take = rest.min(page_size);
                pages.push(take);
                rest -= take;
            }
            LayerPlan {
                layer: l,
                shard_pages: pages,
                full_param_bytes: full,
                working_set: trace.layer_working_set(l).div_ceil(tp),
            }
        })
        .collect();
    let steps = SchedulerInput::default_steps(n_layers);
    // Stage-local lifetime window: layer `l`'s activations live from its
    // forward (step `l`) to its backward (step `2·n_layers − 1 − l`).
    let step_base_load = if trace.recompute {
        Vec::new()
    } else {
        steps
            .iter()
            .enumerate()
            .map(|(j, s)| {
                (0..n_layers)
                    .filter(|&l| l != s.layer() && l <= j && j <= 2 * n_layers - 1 - l)
                    .map(|l| trace.layer_activation_bytes(l).div_ceil(tp))
                    .sum()
            })
            .collect()
    };
    SchedulerInput {
        layers,
        steps,
        gpu_budget,
        page_size,
        step_base_load,
    }
}

/// Scheduler input under expert parallelism: the dense fraction of every
/// layer is ZeRO-sharded, the expert fraction is partitioned whole-expert
/// per rank.
fn moe_input(
    model: &TransformerConfig,
    trace: &Trace,
    n_gpus: usize,
    page_size: u64,
    gpu_budget: u64,
    recompute: bool,
) -> SchedulerInput {
    let experts_per_rank = (model.experts as u64).div_ceil(n_gpus as u64);
    let layers = (0..trace.layers)
        .map(|l| {
            let (dense, expert_total) = trace.layer_param16_split(l);
            let local_experts = if model.experts > 0 {
                expert_total / model.experts as u64 * experts_per_rank
            } else {
                0
            };
            let shard = dense.div_ceil(n_gpus as u64) + local_experts;
            let mut pages = Vec::new();
            let mut rest = shard;
            while rest > 0 {
                let take = rest.min(page_size);
                pages.push(take);
                rest -= take;
            }
            let (dense_g, expert_g) = trace.layer_grad16_split(l);
            let local_expert_g = if model.experts > 0 {
                expert_g / model.experts as u64 * experts_per_rank
            } else {
                0
            };
            LayerPlan {
                layer: l,
                shard_pages: pages,
                full_param_bytes: dense + local_experts,
                working_set: trace.layer_activation_bytes(l) + dense_g + local_expert_g,
            }
        })
        .collect();
    let steps = SchedulerInput::default_steps(trace.layers);
    // Without recomputation, every layer's activations stay live from its
    // forward to its backward; that accumulated load is outside this
    // schedule's control but must constrain it.
    let step_base_load = if recompute {
        Vec::new()
    } else {
        steps
            .iter()
            .enumerate()
            .map(|(j, s)| {
                (0..trace.layers)
                    .filter(|&l| {
                        l != s.layer() && trace.forward_id(l) <= j && j <= trace.backward_id(l)
                    })
                    .map(|l| trace.layer_activation_bytes(l))
                    .sum()
            })
            .collect()
    };
    SchedulerInput {
        layers,
        steps,
        gpu_budget,
        page_size,
        step_base_load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(model: &TransformerConfig, config: &EngineConfig) -> ShardPlan {
        let traced = TracePlan::build(model, config).unwrap();
        ShardPlan::build(model, config, &traced)
    }

    fn moe_model(experts: usize) -> TransformerConfig {
        TransformerConfig::t5_moe_1_2t()
            .with_layers(4)
            .with_experts(experts)
    }

    #[test]
    fn dense_layers_page_up_to_the_shard() {
        let model = TransformerConfig::gpt3_1_7b().with_layers(4);
        let config = EngineConfig::single_server();
        let plan = build(&model, &config);
        let n = config.num_gpus() as u64;
        for (l, lp) in plan.input.layers.iter().enumerate() {
            let shard: u64 = lp.shard_pages.iter().sum();
            assert_eq!(shard, lp.full_param_bytes.div_ceil(n), "layer {l}");
            assert!(lp
                .shard_pages
                .iter()
                .all(|&p| p > 0 && p <= config.page_size));
        }
        assert_eq!(plan.layer_comm_bytes.len(), 4);
    }

    #[test]
    fn moe_shard_covers_dense_share_plus_local_experts() {
        // 6 experts on 8 GPUs: uneven split, each rank provisions
        // ceil(6/8) = 1 expert's bytes.
        let model = moe_model(6);
        let config = EngineConfig::single_server();
        let plan = build(&model, &config);
        let traced = TracePlan::build(&model, &config).unwrap();
        let n = config.num_gpus() as u64;
        for (l, lp) in plan.input.layers.iter().enumerate() {
            let (dense, expert_total) = traced.trace.layer_param16_split(l);
            let per_expert = expert_total / 6;
            let shard: u64 = lp.shard_pages.iter().sum();
            assert_eq!(shard, dense.div_ceil(n) + per_expert, "layer {l}");
            // Gathered size excludes remote experts.
            assert_eq!(lp.full_param_bytes, dense + per_expert, "layer {l}");
            // Only the dense fraction travels the collective fabric.
            assert_eq!(plan.layer_comm_bytes[l], dense, "layer {l}");
        }
    }

    #[test]
    fn moe_uneven_experts_round_up_per_rank() {
        // 12 experts on 8 GPUs: ceil(12/8) = 2 local experts per rank —
        // more bytes per rank than the even 8-expert split.
        let config = EngineConfig::single_server();
        let twelve = build(&moe_model(12), &config);
        let eight = build(&moe_model(8), &config);
        let traced = TracePlan::build(&moe_model(12), &config).unwrap();
        for l in 0..4 {
            let (_, expert_total) = traced.trace.layer_param16_split(l);
            let per_expert = expert_total / 12;
            let shard12: u64 = twelve.input.layers[l].shard_pages.iter().sum();
            let shard8: u64 = eight.input.layers[l].shard_pages.iter().sum();
            // 2 experts of the 12-way split vs 1 expert of the 8-way split;
            // each 8-way expert is as large as a 12-way one here (same
            // total expert bytes per layer ÷ experts).
            assert!(shard12 > shard8, "layer {l}: {shard12} vs {shard8}");
            assert!(shard12 >= 2 * per_expert, "layer {l}");
        }
    }

    #[test]
    fn zero_expert_moe_degrades_to_dense_accounting() {
        // `experts == 0` must not divide by zero and must carry no expert
        // bytes in shards or working sets.
        let model = moe_model(0);
        let config = EngineConfig::single_server();
        let traced = TracePlan::build(&model, &config).unwrap();
        let input = moe_input(
            &model,
            &traced.trace,
            traced.n_gpus,
            config.page_size,
            config.gpu_budget(),
            config.recompute,
        );
        let n = traced.n_gpus as u64;
        for (l, lp) in input.layers.iter().enumerate() {
            let (dense, _) = traced.trace.layer_param16_split(l);
            let (dense_g, _) = traced.trace.layer_grad16_split(l);
            let shard: u64 = lp.shard_pages.iter().sum();
            assert_eq!(shard, dense.div_ceil(n), "layer {l}");
            assert_eq!(lp.full_param_bytes, dense, "layer {l}");
            assert_eq!(
                lp.working_set,
                traced.trace.layer_activation_bytes(l) + dense_g,
                "layer {l}"
            );
        }
    }

    #[test]
    fn recompute_controls_moe_step_base_load() {
        let model = moe_model(8);
        let on = build(&model, &EngineConfig::single_server().with_recompute(true));
        let off = build(&model, &EngineConfig::single_server().with_recompute(false));
        // Recompute discards inter-step activations: no base load at all.
        assert!(on.input.step_base_load.is_empty());
        // Without recompute every step carries the other live layers'
        // activations; mid-iteration steps carry the most.
        assert_eq!(off.input.step_base_load.len(), off.input.steps.len());
        assert!(off.input.step_base_load.iter().any(|&b| b > 0));
        // Working sets also shrink under recompute (activations released).
        for l in 0..4 {
            assert!(on.input.layers[l].working_set <= off.input.layers[l].working_set);
        }
    }

    #[test]
    fn mesh_plan_divides_layers_and_bytes() {
        // 4 servers (32 GPUs): dp=4 × pp=4 × tp=2 on an 8-layer model.
        let model = TransformerConfig::gpt3_1_7b().with_layers(8);
        let config = EngineConfig::servers(4)
            .with_parallelism(crate::plan::ParallelismPlan::megatron(4, 2, 4));
        let plan = build(&model, &config);
        let traced = TracePlan::build(&model, &config).unwrap();
        // This rank's stage holds 8/4 = 2 layers.
        assert_eq!(plan.input.layers.len(), 2);
        assert_eq!(plan.input.steps.len(), 4);
        for (l, lp) in plan.input.layers.iter().enumerate() {
            let full = traced.trace.layer_param16_bytes(l).div_ceil(2);
            // Stage None: no ZeRO sharding — the whole tp slice is the shard.
            assert_eq!(lp.full_param_bytes, full, "layer {l}");
            assert_eq!(lp.shard_pages.iter().sum::<u64>(), full, "layer {l}");
            assert_eq!(plan.layer_comm_bytes[l], full, "layer {l}");
        }
        // Replicated states: 16 bytes per parameter of the tp·pp slice.
        let slice = plan.totals.total_params.div_ceil(8);
        assert_eq!(plan.totals.rank_params, slice);
        assert_eq!(plan.totals.rank_state_bytes, slice * 16);
    }

    #[test]
    fn zero3_mesh_composes_tp_with_sharding() {
        // dp=8 × tp=2 under full ZeRO: each layer's tp slice is further
        // sharded 8 ways across the dp group.
        let model = TransformerConfig::gpt3_1_7b().with_layers(4);
        let config = EngineConfig::servers(2).with_parallelism(crate::plan::ParallelismPlan {
            dp: 8,
            tp: 2,
            pp: 1,
            zero_stage: ZeroStage::Full,
        });
        let plan = build(&model, &config);
        let traced = TracePlan::build(&model, &config).unwrap();
        for (l, lp) in plan.input.layers.iter().enumerate() {
            let slice = traced.trace.layer_param16_bytes(l).div_ceil(2);
            assert_eq!(lp.full_param_bytes, slice, "layer {l}");
            assert_eq!(
                lp.shard_pages.iter().sum::<u64>(),
                slice.div_ceil(8),
                "layer {l}"
            );
        }
        let t = plan.totals;
        assert_eq!(t.rank_params, t.total_params.div_ceil(2).div_ceil(8));
        assert_eq!(t.rank_optim, t.rank_params * 12);
    }

    #[test]
    fn rank_totals_follow_zero_arithmetic() {
        let model = TransformerConfig::gpt3_1_7b().with_layers(4);
        let config = EngineConfig::single_server();
        let t = build(&model, &config).totals;
        let n = config.num_gpus() as u64;
        assert_eq!(t.rank_params, t.total_params.div_ceil(n));
        assert_eq!(t.rank_optim, t.rank_params * 12);
        assert_eq!(t.rank_p16g16, t.rank_params * 4);
        assert_eq!(t.state_bytes, model.model_state_bytes());
    }
}
