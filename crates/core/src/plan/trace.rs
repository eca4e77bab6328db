//! Stage 1 — Trace: one symbolic iteration over the model (paper Section 5).
//!
//! The Tracer replays forward, backward and update once to record every
//! tensor's `(first_id, end_id)` lifetime; everything downstream (sharding,
//! placement, scheduling) is a pure function of this trace. This stage also
//! lays the configured [`ParallelismPlan`] onto the cluster — producing the
//! [`DeviceMesh`] and the ZeRO partition geometry every later stage prices
//! against — so an invalid plan fails here, before any byte accounting.

use crate::config::EngineConfig;
use crate::error::{Error, Result};
use crate::plan::ParallelismPlan;
use crate::tracer::{Trace, Tracer};
use crate::zero::ZeroPartition;
use angel_hw::DeviceMesh;
use angel_model::TransformerConfig;

/// The traced iteration plus the mesh and partition geometry.
#[derive(Debug, Clone)]
pub struct TracePlan {
    /// Lifetime-annotated tensor accesses of one training iteration.
    pub trace: Trace,
    /// Total GPUs in the cluster.
    pub n_gpus: usize,
    /// ZeRO parameter/gradient/optimizer-state partition across the ranks
    /// that actually shard parameters (the dp group under ZeRO-3, nobody
    /// under replicated stages).
    pub zero: ZeroPartition,
    /// The validated physical layout of the parallelism plan.
    pub mesh: DeviceMesh,
    /// The plan itself (copied out of the config for downstream stages).
    pub plan: ParallelismPlan,
}

impl TracePlan {
    /// Run the Tracer over `model` under `config`'s batch/recompute policy
    /// and validate the parallelism plan against the cluster.
    pub fn build(model: &TransformerConfig, config: &EngineConfig) -> Result<Self> {
        let plan = config.parallelism;
        let mesh = Self::validate(model, config)?;
        let tracer = Tracer {
            gpu_model: config.gpu_compute,
            cpu_model: config.cpu_update,
        };
        Ok(Self {
            trace: tracer.trace(model, config.batch_size, config.recompute),
            n_gpus: config.num_gpus(),
            zero: ZeroPartition::new(plan.param_shard_ranks() as usize),
            mesh,
            plan,
        })
    }

    /// Lay `config`'s parallelism plan onto the cluster and check that
    /// `model` supports it: the checks [`TracePlan::build`] makes before it
    /// traces, which the capacity precheck
    /// ([`super::MemoryPlan::precheck`]) makes first.
    pub fn validate(model: &TransformerConfig, config: &EngineConfig) -> Result<DeviceMesh> {
        let plan = config.parallelism;
        let mesh = config.device_mesh()?;
        if model.is_moe() && plan.model_parallel() > 1 {
            return Err(Error::InvalidParallelism(format!(
                "MoE models use expert parallelism on the dp axis; tensor/pipeline \
                 parallelism is unsupported (got tp={}, pp={})",
                plan.tp, plan.pp
            )));
        }
        Ok(mesh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ZeroStage;

    fn tiny() -> TransformerConfig {
        TransformerConfig::gpt3_1_7b()
            .with_layers(4)
            .with_seq_len(256)
    }

    #[test]
    fn trace_covers_every_layer() {
        let tp = TracePlan::build(&tiny(), &EngineConfig::single_server()).unwrap();
        assert_eq!(tp.trace.layers, 4);
        for l in 0..4 {
            assert!(tp.trace.forward_id(l) <= tp.trace.backward_id(l));
            assert!(tp.trace.layer_param16_bytes(l) > 0);
        }
    }

    #[test]
    fn partition_matches_fleet() {
        let tp = TracePlan::build(&tiny(), &EngineConfig::single_server()).unwrap();
        assert_eq!(tp.n_gpus, EngineConfig::single_server().num_gpus());
        // The default plan is pure ZeRO-3 over every GPU.
        assert_eq!(tp.plan, ParallelismPlan::zero3(8));
        assert_eq!((tp.mesh.dp(), tp.mesh.tp(), tp.mesh.pp()), (8, 1, 1));
        // ZeRO shards divide the total evenly (up to div_ceil rounding).
        let shard = tp.zero.shard_bytes(1 << 20);
        assert_eq!(shard, (1u64 << 20).div_ceil(tp.n_gpus as u64));
    }

    #[test]
    fn recompute_flag_propagates() {
        let on =
            TracePlan::build(&tiny(), &EngineConfig::single_server().with_recompute(true)).unwrap();
        let off = TracePlan::build(
            &tiny(),
            &EngineConfig::single_server().with_recompute(false),
        )
        .unwrap();
        assert!(on.trace.recompute);
        assert!(!off.trace.recompute);
    }

    #[test]
    fn invalid_plans_fail_at_trace_time() {
        // Axis product ≠ GPU count.
        let bad = EngineConfig::single_server().with_parallelism(ParallelismPlan::zero3(4));
        assert!(matches!(
            TracePlan::build(&tiny(), &bad),
            Err(Error::InvalidParallelism(_))
        ));
        // MoE models reject model parallelism.
        let moe = TransformerConfig::t5_moe_1_2t().with_layers(4);
        let mp = EngineConfig::single_server().with_parallelism(ParallelismPlan {
            dp: 4,
            tp: 2,
            pp: 1,
            zero_stage: ZeroStage::Full,
        });
        let err = TracePlan::build(&moe, &mp).unwrap_err();
        assert!(err.to_string().contains("MoE"));
    }

    #[test]
    fn replicated_stages_do_not_shard() {
        let cfg =
            EngineConfig::single_server().with_parallelism(ParallelismPlan::megatron(4, 2, 1));
        let tp = TracePlan::build(&tiny(), &cfg).unwrap();
        // Stage-None keeps parameters whole: the partition is trivial.
        assert_eq!(tp.zero.shard_bytes(1 << 20), 1 << 20);
    }
}
