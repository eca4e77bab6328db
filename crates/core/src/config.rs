//! Engine configuration and the calibration constants tying the simulation
//! to the paper's hardware.

use angel_hw::{ClusterSpec, DeviceMesh, GIB};
use angel_sim::compute::{CpuUpdateModel, GpuComputeModel, GpuUpdateModel};
use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::page::PAGE_SIZE_DEFAULT;
use crate::plan::ParallelismPlan;

/// Host-memory calibration. The fractions below are *policy-derived*, not
/// per-experiment tuning knobs (see DESIGN.md §4):
///
/// * Angel-PTM pre-allocates its CPU page pool from pinned memory and
///   shares the host with the dataloader, NCCL bounce buffers, CUDA/driver
///   allocations and the OS; we budget 48% of physical RAM for the page
///   pool. This single constant, together with the byte placement rules,
///   reproduces the paper's Table 5 maxima (55B GPT / 58B T5 on one
///   server — including the T5 > GPT ordering) without per-experiment
///   tuning.
/// * The FP16 parameter/gradient buffers of the lock-free mechanism
///   (Algorithm 2) consume additional host bytes (4 per parameter),
///   accounted separately by the engine when lock-free mode is on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostMemoryPolicy {
    /// Fraction of host RAM usable by the page pool.
    pub usable_fraction: f64,
}

impl Default for HostMemoryPolicy {
    fn default() -> Self {
        Self {
            usable_fraction: 0.48,
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The hardware to (simulated-)run on.
    pub cluster: ClusterSpec,
    /// Page size for the allocator and the schedule (the paper's optimum is
    /// 4 MiB; the ablation harness varies this).
    pub page_size: u64,
    /// Per-GPU micro-batch size.
    pub batch_size: u64,
    /// How the cluster's GPUs factor into dp × tp × pp and which ZeRO stage
    /// the dp axis runs. Defaults to pure ZeRO-3 data parallelism over every
    /// GPU — the paper's configuration, and the degenerate mesh that keeps
    /// all pre-mesh results byte-identical.
    pub parallelism: ParallelismPlan,
    /// Micro-batches per iteration (the pipeline fill of a pp > 1 plan;
    /// 1 for pure data parallelism).
    pub micro_batches: u64,
    /// Activation recomputation (on by default, as in the paper).
    pub recompute: bool,
    /// Use the SSD tier for FP32 optimizer states (Section 6.5 only).
    pub use_ssd: bool,
    /// Enable the Lock-Free Updating Mechanism (Algorithm 2).
    pub lock_free: bool,
    /// Enable the dynamic GPU cache of optimizer states (Section 4.2).
    pub gpu_cache: bool,
    /// Enable phase 2 of Algorithm 1 (all-gather advancement). Off only in
    /// the scheduler ablation.
    pub phase2_advance: bool,
    /// GPU bytes reserved outside the model-state budget: CUDA context,
    /// NCCL buffers, allocator slack (observed ~2 GiB on A100 deployments).
    pub gpu_reserved: u64,
    /// Fractional per-step cost of page bookkeeping, event handling and
    /// schedule dispatch. The paper measures it directly: Angel-PTM "runs
    /// slightly slower than Megatron-LM (a 2.4% slowdown)" on a model that
    /// needs no memory movement at all, so the overhead is ~2.5% of compute.
    pub mm_overhead: f64,
    pub host_policy: HostMemoryPolicy,
    pub gpu_compute: GpuComputeModel,
    pub cpu_update: CpuUpdateModel,
    pub gpu_update: GpuUpdateModel,
}

impl EngineConfig {
    /// One Tencent A100 server (Table 3), the Section 6.2/6.3 "1×8" setting.
    pub fn single_server() -> Self {
        Self::for_cluster(ClusterSpec::single_a100())
    }

    /// `n` Tencent A100 servers.
    pub fn servers(n: usize) -> Self {
        Self::for_cluster(ClusterSpec::a100_tencent(n))
    }

    pub fn for_cluster(cluster: ClusterSpec) -> Self {
        let parallelism = ParallelismPlan::zero3(cluster.total_gpus());
        Self {
            cluster,
            page_size: PAGE_SIZE_DEFAULT,
            batch_size: 1,
            parallelism,
            micro_batches: 1,
            recompute: true,
            use_ssd: false,
            lock_free: false,
            gpu_cache: true,
            phase2_advance: true,
            gpu_reserved: 2 * GIB,
            mm_overhead: 0.025,
            host_policy: HostMemoryPolicy::default(),
            gpu_compute: GpuComputeModel::a100(),
            cpu_update: CpuUpdateModel::epyc_tencent(),
            gpu_update: GpuUpdateModel::default(),
        }
    }

    pub fn with_batch_size(mut self, b: u64) -> Self {
        assert!(b >= 1);
        self.batch_size = b;
        self
    }

    /// Set the dp × tp × pp factorization (validated against the cluster at
    /// [`EngineConfig::device_mesh`] / engine initialization).
    pub fn with_parallelism(mut self, plan: ParallelismPlan) -> Self {
        self.parallelism = plan;
        self
    }

    pub fn with_micro_batches(mut self, m: u64) -> Self {
        assert!(m >= 1);
        self.micro_batches = m;
        self
    }

    pub fn with_page_size(mut self, page_size: u64) -> Self {
        assert!(page_size > 0);
        self.page_size = page_size;
        self
    }

    pub fn with_ssd(mut self, on: bool) -> Self {
        self.use_ssd = on;
        self
    }

    pub fn with_lock_free(mut self, on: bool) -> Self {
        self.lock_free = on;
        self
    }

    pub fn with_gpu_cache(mut self, on: bool) -> Self {
        self.gpu_cache = on;
        self
    }

    pub fn with_phase2_advance(mut self, on: bool) -> Self {
        self.phase2_advance = on;
        self
    }

    pub fn with_recompute(mut self, on: bool) -> Self {
        self.recompute = on;
        self
    }

    pub fn with_gpu_reserved(mut self, bytes: u64) -> Self {
        self.gpu_reserved = bytes;
        self
    }

    /// Total GPUs in the cluster.
    pub fn num_gpus(&self) -> usize {
        self.cluster.total_gpus()
    }

    /// Lay the configured [`ParallelismPlan`] onto the cluster.
    pub fn device_mesh(&self) -> Result<DeviceMesh> {
        self.parallelism.validate(&self.cluster)
    }

    /// Global batch size: each of the `dp` model replicas consumes
    /// `batch_size` samples per micro-batch. With the default plan
    /// (dp = every GPU, one micro-batch) this is `batch_size × num_gpus`.
    pub fn global_batch(&self) -> u64 {
        self.batch_size * self.micro_batches * self.parallelism.dp as u64
    }

    /// Host bytes usable by the page pool, per server.
    pub fn usable_host_bytes(&self) -> u64 {
        (self.cluster.server.cpu.capacity as f64 * self.host_policy.usable_fraction) as u64
    }

    /// SSD bytes usable per server (0 when the SSD tier is off).
    pub fn usable_ssd_bytes(&self) -> u64 {
        if !self.use_ssd {
            return 0;
        }
        self.cluster
            .server
            .ssd
            .as_ref()
            .map(|d| d.capacity)
            .unwrap_or(0)
    }

    /// Per-GPU bytes available to model states and schedules.
    pub fn gpu_budget(&self) -> u64 {
        self.cluster
            .server
            .gpu(0)
            .capacity
            .saturating_sub(self.gpu_reserved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = EngineConfig::single_server();
        assert_eq!(c.page_size, 4 * 1024 * 1024);
        assert_eq!(c.num_gpus(), 8);
        assert!(c.recompute);
        assert!(!c.use_ssd);
        assert!(!c.lock_free);
        assert_eq!(c.usable_ssd_bytes(), 0);
    }

    #[test]
    fn budgets() {
        let c = EngineConfig::single_server();
        assert_eq!(c.gpu_budget(), 38 * GIB);
        let host = c.usable_host_bytes();
        assert!(host > 480 * GIB && host < 500 * GIB);
        let with_ssd = c.with_ssd(true);
        assert!(with_ssd.usable_ssd_bytes() > 10 * (1u64 << 40));
    }

    #[test]
    fn cluster_scaling() {
        let c = EngineConfig::servers(96).with_batch_size(4);
        assert_eq!(c.num_gpus(), 768);
        assert_eq!(c.global_batch(), 3072);
    }

    #[test]
    fn parallelism_plans_validate_onto_the_cluster() {
        let c = EngineConfig::servers(4).with_parallelism(ParallelismPlan::megatron(4, 2, 4));
        let mesh = c.device_mesh().unwrap();
        assert_eq!((mesh.dp(), mesh.pp(), mesh.tp()), (4, 4, 2));
        // A plan whose axis product misses the cluster is a typed error.
        assert!(EngineConfig::servers(4)
            .with_parallelism(ParallelismPlan::zero3(8))
            .device_mesh()
            .is_err());
        // Global batch counts dp replicas × micro-batches, not raw GPUs.
        let c = c.with_batch_size(2).with_micro_batches(8);
        assert_eq!(c.global_batch(), 64);
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::single_server()
            .with_batch_size(16)
            .with_page_size(1 << 20)
            .with_ssd(true)
            .with_lock_free(true)
            .with_gpu_cache(false)
            .with_recompute(false)
            .with_gpu_reserved(GIB);
        assert_eq!(c.batch_size, 16);
        assert_eq!(c.page_size, 1 << 20);
        assert!(c.use_ssd && c.lock_free && !c.gpu_cache && !c.recompute);
        assert_eq!(c.gpu_budget(), 39 * GIB);
    }
}
