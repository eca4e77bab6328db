//! Stage 3 — Place: hierarchical-memory budgets and placement (Section
//! 4.1/4.2 of the paper).
//!
//! [`MemoryPlan::build`] fixes the per-rank tier budgets: the GPU page-pool
//! budget, the host page pool left over after the lock-free mechanism's
//! pinned FP16 buffers, and the SSD share. [`MemoryPlan::place`] then
//! distributes the rank's model states across the tiers under the paper's
//! heuristic — forward/backward states on GPU, optimizer states behind the
//! GPU cache on CPU, FP32 states spilling to SSD when enabled — and
//! enforces the capacity invariant. [`MemoryPlan::materialize`] commits the
//! placement to a real [`PageAllocator`] so every page-accounting invariant
//! is enforced, not assumed. [`MemoryPlan::precheck`] evaluates the same
//! capacity invariant in closed form from the model and config alone, so
//! the engine rejects a plan that cannot fit before it traces or shards.
//!
//! Every capacity rejection goes through [`MemoryPlan::too_large`], which
//! names the tier that overflowed with its needed and available bytes, and
//! reports the same hierarchy-wide usable capacity (GPU + CPU pool + SSD,
//! all ranks) for context whichever tier tripped.

use crate::allocator::PageAllocator;
use crate::config::EngineConfig;
use crate::error::{CapacityTier, Error, Result};
use crate::tensor::DType;
use angel_hw::DeviceId;
use angel_model::{layer_inventory, TensorClass, TransformerConfig};
use serde::{Deserialize, Serialize};

use super::schedule::SchedulePlan;
use super::shard::{RankTotals, ShardPlan};
use super::trace::TracePlan;

/// Where this rank's model-state bytes ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// FP16 param+grad bytes resident on this rank's GPU (scheduler+cache).
    pub gpu_bytes: u64,
    /// Bytes in the CPU page pool (this rank's share).
    pub cpu_bytes: u64,
    /// Bytes on SSD (this rank's share).
    pub ssd_bytes: u64,
    /// This rank's total share of model states.
    pub rank_state_bytes: u64,
}

/// Per-rank budgets of the three memory tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryPlan {
    /// Data-parallel degree (number of ranks).
    pub n_gpus: usize,
    /// Ranks sharing one server's host memory and SSD.
    pub gpus_per_server: u64,
    /// Physical host memory per server.
    pub host_physical: u64,
    /// Pinned Algorithm 2 FP16 buffers per server (lock-free mode only).
    pub buffers_per_server: u64,
    /// This rank's share of the host page pool.
    pub rank_cpu_pool: u64,
    /// This rank's share of the SSD pool (0 when SSD is off).
    pub rank_ssd_pool: u64,
    /// This rank's GPU page-pool budget.
    pub gpu_budget: u64,
}

/// A [`Placement`] plus the tier split quantities materialization needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementPlan {
    pub placement: Placement,
    /// FP16 parameter/gradient bytes spilled to the CPU page pool.
    pub p16_cpu: u64,
    /// FP32 optimizer-state bytes in the CPU page pool.
    pub optim_cpu: u64,
    /// FP32 optimizer-state bytes on SSD.
    pub optim_ssd: u64,
}

impl MemoryPlan {
    /// Fix the tier budgets for one representative rank.
    pub fn build(config: &EngineConfig, shard: &ShardPlan) -> Result<Self> {
        Self::budgets(config, &shard.totals)
    }

    /// The tier budgets of a rank with `totals`, for [`MemoryPlan::build`]
    /// and [`MemoryPlan::precheck`] alike.
    ///
    /// Lock-free mode pins the Algorithm 2 FP16 buffers (p'₁₆ + g'₁₆,
    /// 4 bytes/param) as two flat host arrays outside the page pool; the
    /// pool then manages the remaining host memory. The buffers may use at
    /// most 60% of physical RAM (beyond that the host cannot also run the
    /// dataloader and the pool).
    fn budgets(config: &EngineConfig, totals: &RankTotals) -> Result<Self> {
        let gpus_per_server = config.cluster.server.num_gpus() as u64;
        let host_physical = config.cluster.server.cpu.capacity;
        let buffers_per_server = if config.lock_free {
            totals.rank_params * 4 * gpus_per_server
        } else {
            0
        };
        let pool_per_server = (host_physical.saturating_sub(buffers_per_server) as f64
            * config.host_policy.usable_fraction) as u64;
        let plan = Self {
            n_gpus: config.num_gpus(),
            gpus_per_server,
            host_physical,
            buffers_per_server,
            rank_cpu_pool: pool_per_server / gpus_per_server,
            rank_ssd_pool: config.usable_ssd_bytes() / gpus_per_server,
            gpu_budget: config.gpu_budget(),
        };
        let buffer_cap = (host_physical as f64 * 0.60) as u64;
        if buffers_per_server > buffer_cap {
            return Err(plan.too_large(
                totals.state_bytes,
                CapacityTier::PinnedBuffers,
                buffers_per_server,
                buffer_cap,
            ));
        }
        Ok(plan)
    }

    /// Reject, in O(1), a plan that the full pipeline would reject at
    /// [`MemoryPlan::place`], before anything is traced or sharded.
    ///
    /// Needs only `(model, config)`. It makes the checks of the pipeline
    /// in the pipeline's order: the parallelism plan
    /// ([`TracePlan::validate`]), the tier budgets with their pinned-buffer
    /// cap, then `place`'s CPU-pool condition with each schedule-dependent
    /// term replaced by a sound bound:
    ///
    /// * the GPU cache holds at most the cache of a zero-peak schedule
    ///   ([`SchedulePlan::cache_plan`] never grows with the peak), so the
    ///   optimizer bytes left for the SSD and the CPU are at least the rest;
    /// * at least 0 FP16 bytes spill to the CPU.
    ///
    /// The CPU-pool need only grows as the GPU holds less, so if the bound
    /// already overflows the pool, every schedule's placement overflows it
    /// too. That rejection is raised only when no step can fail first:
    /// [`step_need_bound`] bounds every step's working-set need from above,
    /// and when it fits the GPU budget Algorithm 1 cannot raise
    /// [`Error::WorkingSetTooLarge`], so the pipeline would reach `place`
    /// and fail there with the same tier. Otherwise the precheck passes and
    /// the pipeline decides. A rejection here reports the bound as its
    /// `needed_bytes`: a lower bound on what `place` would report.
    pub fn precheck(model: &TransformerConfig, config: &EngineConfig) -> Result<()> {
        TracePlan::validate(model, config)?;
        let totals = RankTotals::new(model, &config.parallelism);
        let mem = Self::budgets(config, &totals)?;
        let cache_bound =
            SchedulePlan::cache_plan(config, mem.gpu_budget, 0, totals.rank_optim).cache_bytes;
        match mem.spill(config, &totals, cache_bound, totals.rank_p16g16) {
            Err(e) if step_need_bound(model, config) <= mem.gpu_budget => Err(e),
            _ => Ok(()),
        }
    }

    /// Total usable bytes across the memory hierarchy, all ranks: the
    /// context capacity every [`Error::ModelTooLarge`] reports, whichever
    /// tier tripped.
    pub fn usable_capacity_bytes(&self) -> u64 {
        (self.gpu_budget + self.rank_cpu_pool + self.rank_ssd_pool) * self.n_gpus as u64
    }

    /// The capacity error for a model of `state_bytes` whose placement
    /// needed `needed_bytes` of `tier` where only `available_bytes` exist.
    pub fn too_large(
        &self,
        state_bytes: u64,
        tier: CapacityTier,
        needed_bytes: u64,
        available_bytes: u64,
    ) -> Error {
        Error::ModelTooLarge {
            state_bytes,
            usable_bytes: self.usable_capacity_bytes(),
            tier,
            needed_bytes,
            available_bytes,
        }
    }

    /// Distribute the rank's states across the tiers.
    ///
    /// Optimizer states: GPU cache first, then SSD (when enabled) else CPU;
    /// FP16 states: GPU-resident fraction, remainder CPU. In lock-free mode
    /// the CPU-side FP16 states live entirely in the pinned Algorithm 2
    /// buffers (already accounted by [`MemoryPlan::build`]), so the page
    /// pool carries none of them.
    pub fn place(
        &self,
        config: &EngineConfig,
        shard: &ShardPlan,
        planned: &SchedulePlan,
    ) -> Result<PlacementPlan> {
        self.spill(
            config,
            &shard.totals,
            planned.cache_plan.cache_bytes,
            planned.resident_param_bytes,
        )
    }

    /// The placement when the GPU holds `optim_on_gpu` optimizer bytes and
    /// `p16_on_gpu` FP16 bytes, and the CPU-pool capacity check on it: the
    /// one formula behind [`MemoryPlan::place`] (the schedule's actual
    /// terms) and [`MemoryPlan::precheck`] (their bounds). The CPU-pool
    /// need never grows with either GPU term.
    fn spill(
        &self,
        config: &EngineConfig,
        totals: &RankTotals,
        optim_on_gpu: u64,
        p16_on_gpu: u64,
    ) -> Result<PlacementPlan> {
        let optim_rest = totals.rank_optim - optim_on_gpu;
        let (optim_ssd, optim_cpu) = if config.use_ssd {
            (
                optim_rest.min(self.rank_ssd_pool),
                optim_rest.saturating_sub(self.rank_ssd_pool),
            )
        } else {
            (0, optim_rest)
        };
        let p16_cpu = if config.lock_free {
            0
        } else {
            totals.rank_p16g16.saturating_sub(p16_on_gpu)
        };
        let cpu_needed = optim_cpu + p16_cpu;
        if cpu_needed > self.rank_cpu_pool {
            return Err(self.too_large(
                totals.state_bytes,
                CapacityTier::CpuPool,
                cpu_needed,
                self.rank_cpu_pool,
            ));
        }
        Ok(PlacementPlan {
            placement: Placement {
                gpu_bytes: p16_on_gpu + optim_on_gpu,
                cpu_bytes: cpu_needed,
                ssd_bytes: optim_ssd,
                rank_state_bytes: totals.rank_state_bytes,
            },
            p16_cpu,
            optim_cpu,
            optim_ssd,
        })
    }

    /// Commit the placement to a real allocator.
    ///
    /// Virtual pages: bookkeeping only, so even terabyte placements are
    /// cheap, but every pool-capacity and two-tenant invariant is enforced
    /// for real. One tensor per layer per state class, on its planned tier;
    /// GPU residency changes dynamically per the schedule, so only the
    /// CPU/SSD-resident structures are allocated here.
    pub fn materialize(
        &self,
        config: &EngineConfig,
        n_layers: usize,
        placed: &PlacementPlan,
    ) -> Result<PageAllocator> {
        let mut allocator = PageAllocator::with_page_size(config.page_size, false);
        allocator.add_pool(DeviceId::gpu(0), self.gpu_budget)?;
        allocator.add_pool(DeviceId::CPU, self.rank_cpu_pool)?;
        if config.use_ssd {
            allocator.add_pool(DeviceId::SSD, self.rank_ssd_pool)?;
        }
        let layers = n_layers as u64;
        // div_ceil so the layer slices cover the placement in full (floor
        // division dropped up to `layers − 1` bytes); zero-byte state
        // classes allocate nothing (a 1-byte floor pinned a phantom page
        // per layer whenever no FP16 state spilled to the CPU).
        let per_layer_p16 = placed.p16_cpu.div_ceil(layers);
        let per_layer_optim_cpu = placed.optim_cpu.div_ceil(layers);
        let per_layer_optim_ssd = placed.optim_ssd.div_ceil(layers);
        for _layer in 0..n_layers {
            if per_layer_p16 > 0 {
                allocator.alloc_tensor(vec![per_layer_p16 as usize], DType::Byte, DeviceId::CPU)?;
            }
            if per_layer_optim_cpu > 0 {
                allocator.alloc_tensor(
                    vec![per_layer_optim_cpu as usize],
                    DType::Byte,
                    DeviceId::CPU,
                )?;
            }
            if per_layer_optim_ssd > 0 {
                allocator.alloc_tensor(
                    vec![per_layer_optim_ssd as usize],
                    DType::Byte,
                    DeviceId::SSD,
                )?;
            }
        }
        Ok(allocator)
    }
}

/// An upper bound on the GPU bytes any step of the schedule needs alone:
/// the largest layer's FP16 parameters, FP16 gradients and activations,
/// plus, without recomputation, the activations every other layer keeps
/// live. Every scheduler input ([`ShardPlan`]'s dense, mesh and MoE forms)
/// divides or drops some of these terms and none adds to them, so no step
/// needs more. [`angel_model::layer_inventory`] depends on the layer index
/// only through its parity (T5 decoders are the odd layers), so layers 0
/// and 1 are every kind of layer. Costs two layer inventories.
fn step_need_bound(model: &TransformerConfig, config: &EngineConfig) -> u64 {
    let (mut layer_need, mut activations) = (0u64, 0u64);
    for l in 0..model.layers.min(2) {
        let (mut p16, mut g16, mut act) = (0u64, 0u64, 0u64);
        for t in layer_inventory(model, l, config.batch_size) {
            match t.class {
                TensorClass::Param16 => p16 += t.bytes,
                TensorClass::Grad16 => g16 += t.bytes,
                TensorClass::Activation => act += t.bytes,
                _ => {}
            }
        }
        layer_need = layer_need.max(p16 + g16 + act);
        activations = activations.max(act);
    }
    let others_live = if config.recompute {
        0
    } else {
        (model.layers.saturating_sub(1) as u64).saturating_mul(activations)
    };
    layer_need.saturating_add(others_live)
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

    fn shard_for(model: &TransformerConfig, config: &EngineConfig) -> ShardPlan {
        ShardPlan::build(model, config, &TracePlan::build(model, config).unwrap())
    }

    #[test]
    fn budgets_partition_the_server() {
        let config = EngineConfig::single_server();
        let mem = MemoryPlan::build(&config, &shard_for(&tiny(), &config)).unwrap();
        assert_eq!(mem.buffers_per_server, 0);
        assert_eq!(mem.gpu_budget, config.gpu_budget());
        // The pool is the policy fraction of host memory, split per rank.
        let expected = (mem.host_physical as f64 * config.host_policy.usable_fraction) as u64
            / mem.gpus_per_server;
        assert_eq!(mem.rank_cpu_pool, expected);
        assert_eq!(mem.rank_ssd_pool, 0, "SSD off by default");
    }

    #[test]
    fn lock_free_buffers_shrink_the_pool() {
        let model = tiny();
        let sync_cfg = EngineConfig::single_server();
        let lf_cfg = EngineConfig::single_server().with_lock_free(true);
        let sync = MemoryPlan::build(&sync_cfg, &shard_for(&model, &sync_cfg)).unwrap();
        let lf = MemoryPlan::build(&lf_cfg, &shard_for(&model, &lf_cfg)).unwrap();
        assert!(lf.buffers_per_server > 0);
        assert!(lf.rank_cpu_pool < sync.rank_cpu_pool);
    }

    #[test]
    fn oversized_lock_free_buffers_report_hierarchy_capacity() {
        // A model whose pinned FP16 buffers alone exceed 60% of host RAM.
        let model = TransformerConfig::gpt3_28b().with_layers(3000);
        let config = EngineConfig::single_server().with_lock_free(true);
        let shard = shard_for(&model, &config);
        match MemoryPlan::build(&config, &shard) {
            Err(Error::ModelTooLarge {
                state_bytes,
                usable_bytes,
                tier,
                needed_bytes,
                available_bytes,
            }) => {
                assert_eq!(state_bytes, model.model_state_bytes());
                assert_eq!(tier, CapacityTier::PinnedBuffers);
                assert!(needed_bytes > available_bytes);
                // The unified helper reports the whole hierarchy, exactly as
                // the pool-overflow branch does — not bare host RAM.
                let gps = config.cluster.server.num_gpus() as u64;
                let host = config.cluster.server.cpu.capacity;
                let buffers = shard.totals.rank_params * 4 * gps;
                let pool = (host.saturating_sub(buffers) as f64
                    * config.host_policy.usable_fraction) as u64
                    / gps;
                let expected = (config.gpu_budget() + pool) * config.num_gpus() as u64;
                assert_eq!(usable_bytes, expected);
            }
            other => panic!("expected ModelTooLarge, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn cpu_pool_overflow_names_the_tier() {
        // Regression: this rank's CPU page pool overflows while the model's
        // states (3.52 TiB) sit far below the hierarchy's usable capacity
        // (11.78 TiB, mostly SSD). The error used to print only those two
        // totals, which contradict the rejection.
        let model = TransformerConfig::gpt3_175b().with_layers(98);
        let config = EngineConfig::single_server()
            .with_ssd(true)
            .with_batch_size(2);
        let err = crate::Engine::initialize(&model, &config)
            .err()
            .expect("the CPU pool cannot hold the spilled states");
        let Error::ModelTooLarge {
            state_bytes,
            usable_bytes,
            tier,
            needed_bytes,
            available_bytes,
        } = err
        else {
            panic!("expected ModelTooLarge, got {err:?}");
        };
        assert_eq!(tier, CapacityTier::CpuPool);
        assert!(state_bytes < usable_bytes);
        assert!(needed_bytes > available_bytes);
        let shard = shard_for(&model, &config);
        let mem = MemoryPlan::build(&config, &shard).unwrap();
        assert_eq!(available_bytes, mem.rank_cpu_pool);
        let msg = err.to_string();
        assert!(msg.contains("per-rank CPU page pool needs"), "{msg}");
    }

    /// The CPU-pool tier and bytes of a precheck rejection, or `None` when
    /// the precheck passes the plan on to the pipeline.
    fn precheck_rejection(model: &TransformerConfig, config: &EngineConfig) -> Option<(u64, u64)> {
        match MemoryPlan::precheck(model, config) {
            Ok(()) => None,
            Err(Error::ModelTooLarge {
                tier: CapacityTier::CpuPool,
                needed_bytes,
                available_bytes,
                ..
            }) => Some((needed_bytes, available_bytes)),
            Err(e) => panic!("unexpected precheck error: {e}"),
        }
    }

    #[test]
    fn precheck_rejects_every_service_mix_whale() {
        // GPT-3 28B geometry at every whale depth, alone on one server.
        let config = EngineConfig::servers(1);
        for layers in 300..=1000 {
            let model = TransformerConfig::gpt3_28b().with_layers(layers);
            let (needed, available) = precheck_rejection(&model, &config)
                .unwrap_or_else(|| panic!("{layers}-layer whale passed the precheck"));
            assert!(needed > available, "{layers} layers");
        }
    }

    #[test]
    fn precheck_rejects_every_deep_gpt175_on_one_server() {
        for layers in 200..=400 {
            for batch in [1, 2] {
                let model = TransformerConfig::gpt3_175b().with_layers(layers);
                let config = EngineConfig::servers(1).with_batch_size(batch);
                assert!(
                    precheck_rejection(&model, &config).is_some(),
                    "{layers} layers at batch {batch} passed the precheck"
                );
            }
        }
    }

    #[test]
    fn precheck_passes_a_model_that_overflows_only_after_scheduling() {
        // The 98-layer GPT-3 175B with SSD fits the pool under the bound's
        // GPU cache; only its schedule's placement overflows the pool, so
        // the rejection must come from `place`
        // (`cpu_pool_overflow_names_the_tier` checks that one).
        let model = TransformerConfig::gpt3_175b().with_layers(98);
        let config = EngineConfig::single_server()
            .with_ssd(true)
            .with_batch_size(2);
        assert_eq!(precheck_rejection(&model, &config), None);
    }

    #[test]
    fn precheck_defers_to_the_scheduler_when_a_step_may_not_fit() {
        // Overflows the CPU pool, but without recomputation its activations
        // may not fit a step either, and then Algorithm 1 fails first: the
        // precheck must leave the decision to the pipeline.
        let model = TransformerConfig::gpt3_28b().with_layers(1000);
        let config = EngineConfig::servers(1).with_recompute(false);
        assert_eq!(precheck_rejection(&model, &config), None);
        assert!(step_need_bound(&model, &config) > config.gpu_budget());
    }

    #[test]
    fn capacity_helper_sums_all_tiers_across_ranks() {
        let mem = MemoryPlan {
            n_gpus: 8,
            gpus_per_server: 8,
            host_physical: 0,
            buffers_per_server: 0,
            rank_cpu_pool: 100,
            rank_ssd_pool: 10,
            gpu_budget: 1000,
        };
        assert_eq!(mem.usable_capacity_bytes(), (1000 + 100 + 10) * 8);
        match mem.too_large(42, CapacityTier::CpuPool, 101, 100) {
            Error::ModelTooLarge {
                state_bytes,
                usable_bytes,
                ..
            } => {
                assert_eq!((state_bytes, usable_bytes), (42, 8880));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn materialize_skips_zero_byte_classes() {
        // p16_cpu = 0 (everything GPU-resident) must not pin any CPU pages:
        // the old 1-byte floor allocated one phantom page per layer.
        let config = EngineConfig::single_server();
        let mem = MemoryPlan::build(&config, &shard_for(&tiny(), &config)).unwrap();
        let placed = PlacementPlan {
            placement: Placement {
                gpu_bytes: 0,
                cpu_bytes: 0,
                ssd_bytes: 0,
                rank_state_bytes: 0,
            },
            p16_cpu: 0,
            optim_cpu: 0,
            optim_ssd: 0,
        };
        let alloc = mem.materialize(&config, 4, &placed).unwrap();
        assert_eq!(alloc.stats(DeviceId::CPU).used_pages, 0, "no phantom pages");
    }

    #[test]
    fn materialize_covers_the_full_placement() {
        // div_ceil: 4 layers × ceil(1001/4) = 1004 ≥ 1001 bytes — the floor
        // division would have materialized only 1000.
        let config = EngineConfig::single_server();
        let mem = MemoryPlan::build(&config, &shard_for(&tiny(), &config)).unwrap();
        let placed = PlacementPlan {
            placement: Placement {
                gpu_bytes: 0,
                cpu_bytes: 1001,
                ssd_bytes: 0,
                rank_state_bytes: 0,
            },
            p16_cpu: 1001,
            optim_cpu: 0,
            optim_ssd: 0,
        };
        let alloc = mem.materialize(&config, 4, &placed).unwrap();
        let covered: u64 = (0..4).map(|_| 251u64).sum();
        assert!(covered >= 1001);
        // Four tensors of 251 bytes each, all on the CPU pool.
        assert_eq!(alloc.stats(DeviceId::CPU).tenant_bytes, covered);
    }
}
