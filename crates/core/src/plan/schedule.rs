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
//!
//! Algorithm 1 has one implementation, [`UnifiedScheduler::schedule`], and
//! every build plans from scratch with it: an engine splice is a fresh plan
//! of its new input, never a diff against the previous schedule.

use crate::cache::{plan_cache, CachePlan};
use crate::config::EngineConfig;
use crate::error::Result;
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
        let sched = UnifiedScheduler {
            phase2: config.phase2_advance,
            ..Default::default()
        };
        let schedule = sched.schedule(&shard.input)?;

        // GPU residency decided by the scheduler (param shard pages) plus
        // whatever optimizer cache fits afterwards. The base is this rank's
        // model-parallel slice: the whole model for pure data parallelism.
        let resident_param_bytes = (schedule.stats.resident_fraction
            * zero.shard_bytes(shard.totals.model_parallel_params * 4) as f64)
            as u64;
        let cache_plan = Self::cache_plan(
            config,
            mem.gpu_budget,
            schedule.stats.peak_gpu_bytes,
            shard.totals.rank_optim,
        );
        Ok(Self {
            schedule,
            cache_plan,
            resident_param_bytes,
        })
    }

    /// Size the GPU cache of `rank_optim` optimizer bytes for a schedule
    /// whose planned peak is `planned_peak`: the spare GPU budget less a
    /// 16-page safety margin, in whole pages, or nothing when `gpu_cache`
    /// is off. The cache never grows with the peak, so `planned_peak = 0`
    /// bounds the cache of every schedule from above.
    pub fn cache_plan(
        config: &EngineConfig,
        gpu_budget: u64,
        planned_peak: u64,
        rank_optim: u64,
    ) -> CachePlan {
        if config.gpu_cache {
            plan_cache(
                gpu_budget,
                planned_peak,
                rank_optim,
                config.page_size,
                config.page_size * 16, // safety margin: 16 pages
            )
        } else {
            plan_cache(gpu_budget, gpu_budget, rank_optim, config.page_size, 0)
        }
    }

    /// [`SchedulePlan::build`], kept only because the benchmark harness
    /// (`perfbench/`) still calls it by this name with an empty slot. It
    /// clears `planner` and plans from scratch.
    pub fn build_with_planner(
        config: &EngineConfig,
        shard: &ShardPlan,
        mem: &MemoryPlan,
        zero: &ZeroPartition,
        planner: &mut Option<Schedule>,
    ) -> Result<Self> {
        *planner = None;
        Self::build(config, shard, mem, zero)
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
            ZeroPartition::new(mem.n_gpus).shard_bytes(shard.totals.total_params * 4)
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
    fn phase2_advances_gathers() {
        let on = pipeline(&EngineConfig::single_server()).3;
        let off = pipeline(&EngineConfig::single_server().with_phase2_advance(false)).3;
        assert!(on.schedule.stats.gathers_advanced > 0);
        assert_eq!(off.schedule.stats.gathers_advanced, 0);
    }
}
