//! Stage 4 — Schedule: the Unified Scheduler (Algorithm 1) plus the dynamic
//! GPU cache sizing (Section 4.2).
//!
//! Algorithm 1 plans every page movement, all-gather and compute of one
//! iteration under the GPU budget: phase 1 evicts under memory pressure
//! through a wait-stack, phase 2 advances all-gathers to overlap with
//! earlier computation whenever the lifetime-accurate peak allows. The
//! schedule's residency statistics then size the optimizer-state cache:
//! spare GPU memory (budget − planned peak − safety margin) holds hot
//! FP32 pages so their updates run on the GPU and skip the PCIe round trip.

use crate::cache::{plan_cache, CachePlan};
use crate::config::EngineConfig;
use crate::error::Result;
use crate::replan::{Planner, ReplanDelta};
use crate::scheduler::{Schedule, UnifiedScheduler};
use crate::zero::ZeroPartition;

use super::memory::MemoryPlan;
use super::shard::ShardPlan;

/// The planned iteration: task list, cache sizing, GPU residency.
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    /// Algorithm 1's task list with trigger ids and statistics.
    pub schedule: Schedule,
    /// Section 4.2 cache: which optimizer bytes stay on the GPU.
    pub cache_plan: CachePlan,
    /// FP16 param+grad bytes the scheduler keeps GPU-resident.
    pub resident_param_bytes: u64,
}

impl SchedulePlan {
    /// Run Algorithm 1 over the shard plan and size the GPU cache.
    pub fn build(
        config: &EngineConfig,
        shard: &ShardPlan,
        mem: &MemoryPlan,
        zero: &ZeroPartition,
    ) -> Result<Self> {
        Self::build_with_planner(config, shard, mem, zero, &mut None)
    }

    /// [`SchedulePlan::build`] through a persistent incremental
    /// [`Planner`] session. When `planner` holds a session with the same
    /// scheduler configuration, the new shard input is planned as a
    /// [`ReplanDelta`] against the previous one — the segment-tree fast
    /// path that reuses untouched layers' decisions and task slots — and
    /// the session's [`crate::ReplanOutcome`] reports what carried over.
    /// Otherwise (first plan, or a configuration change) a fresh session is
    /// created and stored — the from-scratch plan that
    /// [`UnifiedScheduler::schedule`] also runs. Either way the resulting
    /// schedule is byte-identical to a from-scratch plan of `shard.input`,
    /// and a rejected (infeasible) input leaves the session on its previous
    /// plan.
    pub fn build_with_planner(
        config: &EngineConfig,
        shard: &ShardPlan,
        mem: &MemoryPlan,
        zero: &ZeroPartition,
        planner: &mut Option<Planner>,
    ) -> Result<Self> {
        let sched = UnifiedScheduler {
            phase2: config.phase2_advance,
            ..Default::default()
        };
        let schedule = match planner {
            Some(p) if *p.scheduler() == sched => {
                let delta = ReplanDelta::diff(p.input(), &shard.input);
                p.replan(&delta)?;
                p.schedule().clone()
            }
            _ => {
                let p = Planner::new(sched, shard.input.clone())?;
                let schedule = p.schedule().clone();
                *planner = Some(p);
                schedule
            }
        };

        // GPU residency decided by the scheduler (param shard pages) plus
        // whatever optimizer cache fits afterwards. The base is this rank's
        // model-parallel slice: the whole model for pure data parallelism.
        let resident_param_bytes = (schedule.stats.resident_fraction
            * zero.shard_bytes(shard.model_parallel_params * 4) as f64)
            as u64;
        let cache_plan = if config.gpu_cache {
            plan_cache(
                mem.gpu_budget,
                schedule.stats.peak_gpu_bytes,
                shard.rank_optim,
                config.page_size,
                config.page_size * 16, // safety margin: 16 pages
            )
        } else {
            plan_cache(
                mem.gpu_budget,
                mem.gpu_budget,
                shard.rank_optim,
                config.page_size,
                0,
            )
        };
        Ok(Self {
            schedule,
            cache_plan,
            resident_param_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::trace::TracePlan;
    use super::*;
    use angel_model::TransformerConfig;

    fn tiny() -> TransformerConfig {
        TransformerConfig::gpt3_1_7b()
            .with_layers(4)
            .with_seq_len(256)
    }

    fn pipeline(config: &EngineConfig) -> (TracePlan, ShardPlan, MemoryPlan, SchedulePlan) {
        let model = tiny();
        let traced = TracePlan::build(&model, config).unwrap();
        let shard = ShardPlan::build(&model, config, &traced);
        let mem = MemoryPlan::build(config, &shard).unwrap();
        let planned = SchedulePlan::build(config, &shard, &mem, &traced.zero).unwrap();
        (traced, shard, mem, planned)
    }

    #[test]
    fn small_model_is_fully_resident_and_cached() {
        let config = EngineConfig::single_server();
        let (_, shard, mem, planned) = pipeline(&config);
        assert!((planned.schedule.stats.resident_fraction - 1.0).abs() < 1e-9);
        assert!(planned.schedule.stats.peak_gpu_bytes <= mem.gpu_budget);
        // The whole FP16 shard counts as resident bytes.
        assert_eq!(
            planned.resident_param_bytes,
            ZeroPartition::new(mem.n_gpus).shard_bytes(shard.total_params * 4)
        );
        assert!(planned.cache_plan.cached_fraction > 0.99);
    }

    #[test]
    fn disabling_the_cache_leaves_optimizer_off_gpu() {
        let with = pipeline(&EngineConfig::single_server()).3;
        let without = pipeline(&EngineConfig::single_server().with_gpu_cache(false)).3;
        assert!(with.cache_plan.cache_bytes > 0);
        assert_eq!(without.cache_plan.cache_bytes, 0);
        // The schedule itself is cache-independent.
        assert_eq!(with.schedule.stats, without.schedule.stats);
    }

    #[test]
    fn planner_session_reuse_is_byte_identical_to_fresh_builds() {
        let model = tiny();
        let config = EngineConfig::single_server();
        let traced = TracePlan::build(&model, &config).unwrap();
        let shard = ShardPlan::build(&model, &config, &traced);
        let mem = MemoryPlan::build(&config, &shard).unwrap();
        let mut planner = None;
        let first =
            SchedulePlan::build_with_planner(&config, &shard, &mem, &traced.zero, &mut planner)
                .unwrap();
        assert_eq!(
            first.schedule.tasks,
            SchedulePlan::build(&config, &shard, &mem, &traced.zero)
                .unwrap()
                .schedule
                .tasks
        );

        // Second build with a tighter budget goes through the incremental
        // session and must still match a from-scratch plan of the new input.
        let mut tight = config.clone();
        tight.gpu_reserved *= 4;
        let traced2 = TracePlan::build(&model, &tight).unwrap();
        let shard2 = ShardPlan::build(&model, &tight, &traced2);
        let mem2 = MemoryPlan::build(&tight, &shard2).unwrap();
        let second =
            SchedulePlan::build_with_planner(&tight, &shard2, &mem2, &traced2.zero, &mut planner)
                .unwrap();
        let fresh = SchedulePlan::build(&tight, &shard2, &mem2, &traced2.zero).unwrap();
        assert_eq!(second.schedule.tasks, fresh.schedule.tasks);
        assert_eq!(second.schedule.stats, fresh.schedule.stats);
        let p = planner.as_ref().unwrap();
        assert_eq!(p.input(), &shard2.input);
        assert!(p.last_outcome().triggers_total > 0);

        // A scheduler-config change (phase-2 off) abandons the session and
        // rebuilds — the stored planner now carries the new configuration.
        let off = tight.clone().with_phase2_advance(false);
        let third =
            SchedulePlan::build_with_planner(&off, &shard2, &mem2, &traced2.zero, &mut planner)
                .unwrap();
        assert_eq!(third.schedule.stats.gathers_advanced, 0);
        assert!(!planner.as_ref().unwrap().scheduler().phase2);
    }

    #[test]
    fn phase2_advances_gathers() {
        let on = pipeline(&EngineConfig::single_server()).3;
        let off = pipeline(&EngineConfig::single_server().with_phase2_advance(false)).3;
        assert!(on.schedule.stats.gathers_advanced > 0);
        assert_eq!(off.schedule.stats.gathers_advanced, 0);
    }
}
