//! Stage 5 — Lower: turn plans into `angel-sim` task graphs (Section 5's
//! Executor and Communicator, on simulated hardware).
//!
//! [`Lowering`] is the one place task graphs are built: it owns the
//! simulation's resource surface (GPU/CPU streams, PCIe H2D/D2H links, the
//! collective channel, the SSD channel, optionally a GPU memory domain) and
//! exposes the movement/compute/collective primitives every system lowers
//! through. The Engine lowers Algorithm 1 schedules ([`lower_schedule`]);
//! the baselines lower their own policies (DeepSpeed's static partition
//! with just-in-time gathers, Megatron's 1F1B pipeline) through the same
//! primitives — so all systems are measured on identical simulated hardware
//! and differ only in policy, never in plumbing.
//!
//! [`LoweringConfig`] carries the policy-visible hardware knobs: a PCIe
//! efficiency factor (1.0 for Angel-PTM's page-granular streaming;
//! DeepSpeed's tensor-granular transfers run degraded) and an optional GPU
//! memory domain for acquire/release accounting.

use crate::cache::CachePlan;
use crate::communicator::{CommGroup, CommKind, CommRecord, Communicator};
use crate::config::EngineConfig;
use crate::executor::{Executor, Stream};
use crate::scheduler::{Schedule, StepKind, TaskOp};
use crate::zero::ZeroPartition;
use angel_hw::{ClusterSpec, DeviceMesh};
use angel_model::TransformerConfig;
use angel_sim::collectives::Collective;
use angel_sim::{
    Access, ExecutionReport, MemDomainId, MemEffect, Ns, ResourceId, Resources, SimTask, Simulation,
};
use serde::{Deserialize, Serialize};

use crate::verify::{objects, PlanGraph, PlanReport};

use super::memory::Placement;

/// Hardware-surface parameters of one lowering.
#[derive(Debug, Clone)]
pub struct LoweringConfig {
    /// Cluster whose links/collective fabric the graph runs on.
    pub cluster: ClusterSpec,
    /// Ranks participating in dp collectives (duration model denominator).
    pub ranks: u64,
    /// The device mesh, when the caller runs a non-trivial parallelism
    /// plan: its tp/pp axes get their own communicator channels, priced by
    /// their own group layouts.
    pub mesh: Option<DeviceMesh>,
    /// PCIe efficiency relative to ideal streaming (1.0 = page-granular).
    pub pcie_efficiency: f64,
    /// Capacity of the GPU memory domain, when acquire/release accounting
    /// is wanted.
    pub gpu_mem_capacity: Option<u64>,
}

impl LoweringConfig {
    pub fn new(cluster: ClusterSpec, ranks: u64) -> Self {
        Self {
            cluster,
            ranks,
            mesh: None,
            pcie_efficiency: 1.0,
            gpu_mem_capacity: None,
        }
    }

    /// The Engine's surface: full-efficiency PCIe, GPU memory domain sized
    /// to the page-pool budget, collectives over the configured mesh (the
    /// whole fleet on the dp axis by default).
    pub fn for_engine(config: &EngineConfig) -> Self {
        let mut cfg = Self::new(config.cluster.clone(), config.num_gpus() as u64)
            .with_gpu_mem(config.gpu_budget());
        if let Ok(mesh) = config.device_mesh() {
            cfg = cfg.with_mesh(mesh);
        }
        cfg
    }

    pub fn with_mesh(mut self, mesh: DeviceMesh) -> Self {
        self.mesh = Some(mesh);
        self
    }

    pub fn with_pcie_efficiency(mut self, efficiency: f64) -> Self {
        self.pcie_efficiency = efficiency;
        self
    }

    pub fn with_gpu_mem(mut self, capacity: u64) -> Self {
        self.gpu_mem_capacity = Some(capacity);
        self
    }
}

/// The shared task-graph builder over one simulation's resource surface.
pub struct Lowering {
    sim: Simulation,
    executor: Executor,
    communicator: Communicator,
    gpu_mem: Option<MemDomainId>,
    h2d: ResourceId,
    d2h: ResourceId,
    ssd: ResourceId,
}

impl Lowering {
    /// Register the standard resource surface and open the simulation.
    pub fn new(cfg: &LoweringConfig) -> Self {
        let mut resources = Resources::new();
        let executor = Executor::new(&mut resources);
        let gpu_mem = cfg
            .gpu_mem_capacity
            .map(|c| resources.add_mem_domain("gpu-mem", c));
        let pcie = &cfg.cluster.server.pcie;
        let pcie_bw = (pcie.bandwidth as f64 * cfg.pcie_efficiency) as u64;
        let h2d = resources.add_link("pcie-h2d", pcie_bw, pcie.latency_ns);
        let d2h = resources.add_link("pcie-d2h", pcie_bw, pcie.latency_ns);
        let communicator = match &cfg.mesh {
            Some(mesh) => Communicator::for_mesh(&mut resources, mesh),
            None => Communicator::new(&mut resources, cfg.cluster.clone(), cfg.ranks),
        };
        let gpus_per_server = cfg.cluster.server.num_gpus() as u64;
        let ssd_link = &cfg.cluster.server.ssd_link;
        // SSD bandwidth is shared by the server's ranks.
        let ssd = resources.add_link(
            "ssd-channel",
            (ssd_link.bandwidth / gpus_per_server).max(1),
            ssd_link.latency_ns,
        );
        Self {
            sim: Simulation::new(resources),
            executor,
            communicator,
            gpu_mem,
            h2d,
            d2h,
            ssd,
        }
    }

    // ---- Movement primitives --------------------------------------------

    /// H2D transfer that also acquires GPU memory for the moved bytes
    /// (page move-in). Without a GPU memory domain this is a plain
    /// [`Lowering::move_in`].
    pub fn stage_in(&mut self, bytes: u64, label: impl Into<String>) -> usize {
        let mut task = SimTask::transfer(self.h2d, bytes).with_label(label);
        if let Some(domain) = self.gpu_mem {
            task = task.with_mem(MemEffect {
                domain,
                acquire: bytes,
                release: 0,
            });
        }
        self.sim.submit(task)
    }

    /// Host-to-device transfer on the H2D PCIe channel.
    pub fn move_in(
        &mut self,
        bytes: u64,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.sim.submit(
            SimTask::transfer(self.h2d, bytes)
                .with_deps(deps)
                .with_label(label),
        )
    }

    /// Device-to-host transfer on the D2H PCIe channel (offload).
    pub fn offload(
        &mut self,
        bytes: u64,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.sim.submit(
            SimTask::transfer(self.d2h, bytes)
                .with_deps(deps)
                .with_label(label),
        )
    }

    /// Read from the rank's SSD share.
    pub fn ssd_read(
        &mut self,
        bytes: u64,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.sim.submit(
            SimTask::transfer(self.ssd, bytes)
                .with_deps(deps)
                .with_label(label),
        )
    }

    /// Write to the rank's SSD share.
    pub fn ssd_write(
        &mut self,
        bytes: u64,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.sim.submit(
            SimTask::transfer(self.ssd, bytes)
                .with_deps(deps)
                .with_label(label),
        )
    }

    // ---- Collective primitives ------------------------------------------

    /// All-gather of `bytes` across the configured ranks.
    pub fn all_gather(
        &mut self,
        bytes: u64,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.communicator
            .submit_now(&mut self.sim, Collective::AllGather, bytes, deps, label)
    }

    /// Reduce-scatter of `bytes` across the configured ranks.
    pub fn reduce_scatter(
        &mut self,
        bytes: u64,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.communicator
            .submit_now(&mut self.sim, Collective::ReduceScatter, bytes, deps, label)
    }

    /// The dp-group gradient synchronization of a [`ParallelismPlan`]:
    /// reduce-scatter under ZeRO-3, all-reduce for replicated stages.
    pub fn grad_sync(
        &mut self,
        op: Collective,
        bytes: u64,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.communicator
            .submit_now(&mut self.sim, op, bytes, deps, label)
    }

    /// Per-layer activation all-reduce on the tensor-parallel group's own
    /// channel (free and on the dp channel when tp = 1).
    pub fn tp_all_reduce(
        &mut self,
        bytes: u64,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.communicator.submit_now_on(
            CommGroup::Tp,
            &mut self.sim,
            Collective::AllReduce,
            bytes,
            deps,
            label,
        )
    }

    /// The sending half of a pipeline stage boundary transfer on the pp
    /// group's channel: NVLink while the pp group sits inside one server,
    /// the NIC once stages span servers.
    pub fn pp_send(
        &mut self,
        bytes: u64,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.communicator
            .submit_p2p(&mut self.sim, CommKind::P2pSend, bytes, deps, label)
    }

    /// The receiving half of a pipeline stage boundary transfer (same
    /// channel and pricing as [`Lowering::pp_send`]).
    pub fn pp_recv(
        &mut self,
        bytes: u64,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.communicator
            .submit_p2p(&mut self.sim, CommKind::P2pRecv, bytes, deps, label)
    }

    /// A zero-duration marker on the dp channel — keeps the task-graph
    /// shape (and counts) of gather-style steps for plans whose parameters
    /// are already resident (ZeRO stages None/Optimizer gather nothing).
    pub fn comm_noop(
        &mut self,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.sim.submit(
            SimTask::duration(self.communicator.channel_id(), 0)
                .with_deps(deps)
                .with_label(label),
        )
    }

    /// A collective with an externally-modelled exposed duration (e.g. the
    /// partially-overlapped data-parallel all-reduce of a 1F1B pipeline).
    pub fn collective_exposed(
        &mut self,
        duration_ns: Ns,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.sim.submit(
            SimTask::duration(self.communicator.channel_id(), duration_ns)
                .with_deps(deps)
                .with_label(label),
        )
    }

    // ---- Compute primitives ---------------------------------------------

    /// A kernel on the GPU stream.
    pub fn compute_gpu(
        &mut self,
        duration_ns: Ns,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.executor
            .submit(&mut self.sim, Stream::Gpu, duration_ns, deps, label)
    }

    /// An optimizer update on the CPU stream.
    pub fn update_cpu(
        &mut self,
        duration_ns: Ns,
        deps: impl IntoIterator<Item = usize>,
        label: impl Into<String>,
    ) -> usize {
        self.executor
            .submit(&mut self.sim, Stream::Cpu, duration_ns, deps, label)
    }

    // ---- Resource ids (for utilization reporting) -----------------------

    pub fn gpu_id(&self) -> ResourceId {
        self.executor.stream_id(Stream::Gpu)
    }

    pub fn cpu_id(&self) -> ResourceId {
        self.executor.stream_id(Stream::Cpu)
    }

    pub fn h2d_id(&self) -> ResourceId {
        self.h2d
    }

    pub fn d2h_id(&self) -> ResourceId {
        self.d2h
    }

    pub fn comm_id(&self) -> ResourceId {
        self.communicator.channel_id()
    }

    /// The tp group's channel, when the plan has a non-trivial tp axis.
    pub fn tp_id(&self) -> Option<ResourceId> {
        self.communicator.group_channel(CommGroup::Tp)
    }

    /// The pp group's channel, when the plan has a non-trivial pp axis.
    pub fn pp_id(&self) -> Option<ResourceId> {
        self.communicator.group_channel(CommGroup::Pp)
    }

    pub fn ssd_id(&self) -> ResourceId {
        self.ssd
    }

    /// The simulation under construction (read-only).
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// Declare which logical objects a submitted task touches, for the
    /// static race/lifetime verifier (see [`crate::verify::plan`]).
    pub fn annotate(&mut self, task: usize, accesses: impl IntoIterator<Item = Access>) {
        self.sim.annotate(task, accesses);
    }

    /// Reserve room for `additional` more tasks; lowerings that know their
    /// graph size call this once instead of growing the task vector.
    pub fn reserve_tasks(&mut self, additional: usize) {
        self.sim.reserve_tasks(additional);
    }

    /// Run the static race/lifetime/peak-bound verifier over the graph
    /// built so far.
    pub fn verify(&self) -> PlanReport {
        PlanGraph::from_sim(&self.sim).verify()
    }

    /// Execute the graph.
    pub fn run(&self) -> ExecutionReport {
        self.sim.run()
    }

    /// Hand the finished graph to the caller.
    pub fn into_sim(self) -> Simulation {
        self.sim
    }

    /// The journal of every communication operation submitted so far.
    pub fn comm_log(&self) -> &[CommRecord] {
        self.communicator.comm_log()
    }

    /// Hand the finished graph plus the communication journal to the
    /// caller (the SPMD verifier consumes both).
    pub fn into_sim_and_log(mut self) -> (Simulation, Vec<CommRecord>) {
        let log = self.communicator.take_comm_log();
        (self.sim, log)
    }
}

/// Everything needed to lower one planned Engine iteration.
pub struct ScheduleLowering<'a> {
    pub model: &'a TransformerConfig,
    pub config: &'a EngineConfig,
    pub schedule: &'a Schedule,
    pub placement: Placement,
    pub cache_plan: CachePlan,
    pub zero: &'a ZeroPartition,
    /// Per-layer FP16 bytes crossing the collective fabric.
    pub layer_comm_bytes: &'a [u64],
}

/// A lowered iteration: the ready-to-run simulation plus the ids of the
/// resources whose utilization the stats report.
#[derive(Clone)]
pub struct LoweredIteration {
    pub sim: Simulation,
    pub gpu: ResourceId,
    pub h2d: ResourceId,
    pub d2h: ResourceId,
    pub comm: ResourceId,
    /// The Communicator's journal of every collective and p2p half, in
    /// submission order — the SPMD verifier's input (see
    /// [`crate::verify::spmd`]).
    pub comm_log: Vec<CommRecord>,
}

/// Which lowered hardware resource a cluster fault event strikes — the
/// stable vocabulary [`crate::engine::ClusterEvent`]s use, resolved against
/// each fresh lowering's [`ResourceId`]s by
/// [`LoweredIteration::fault_resource`] (ids are per-simulation, so events
/// cannot carry them directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultTarget {
    /// The GPU compute stream (kernel-level stall or device loss).
    Gpu,
    /// The host-to-device PCIe channel (staging path).
    H2d,
    /// The device-to-host PCIe channel (offload path).
    D2h,
    /// The collective-communication channel (NIC reset, fabric loss).
    Comm,
}

impl LoweredIteration {
    /// Resolve a [`FaultTarget`] to this lowering's resource id.
    pub fn fault_resource(&self, target: FaultTarget) -> ResourceId {
        match target {
            FaultTarget::Gpu => self.gpu,
            FaultTarget::H2d => self.h2d,
            FaultTarget::D2h => self.d2h,
            FaultTarget::Comm => self.comm,
        }
    }
}

/// Lower an Algorithm 1 [`Schedule`] plus its [`Placement`] onto the
/// simulated hardware: streams via the Executor, collectives via the
/// Communicator, transfers on the PCIe/SSD links.
pub fn lower_schedule(args: &ScheduleLowering<'_>) -> LoweredIteration {
    let config = args.config;
    let schedule = args.schedule;
    let plan = config.parallelism;
    let mut lo = Lowering::new(&LoweringConfig::for_engine(config));
    let gpus_per_server = config.cluster.server.num_gpus();

    let n_steps = schedule.num_steps;
    let flops = angel_model::flops::layer_flops(args.model, config.batch_size);
    // Tensor parallelism splits every kernel (and its weights) `tp` ways.
    let tp = plan.tp.max(1) as u64;
    // FP16 activation bytes of one micro-batch at a layer boundary.
    let boundary_bytes =
        config.batch_size * args.model.seq_len as u64 * args.model.d_model as u64 * 2;

    // Per-step bookkeeping while lowering: one pass over the task list
    // recovers each step's kind and (phase-2 advanced) gather trigger.
    let mut compute_task: Vec<Option<usize>> = vec![None; n_steps];
    let mut gather_trigger: Vec<usize> = (0..n_steps).collect();
    let mut step_kind: Vec<Option<StepKind>> = vec![None; n_steps];
    for t in &schedule.tasks {
        match t.op {
            TaskOp::AllGather { step, .. } => gather_trigger[step] = t.trigger_id,
            TaskOp::Compute(k) => step_kind[t.trigger_id] = Some(k),
            TaskOp::MoveToGpu(_) => {}
        }
    }

    // Whether synchronous optimizer updates appear as tasks in this graph
    // (decides who frees the gradient shard: the cpu_update, or the
    // grad_offload as last on-graph consumer). The schedule covers this
    // rank's pipeline stage: half its steps are backward passes.
    let n_layers = (n_steps as u64 / 2).max(1);
    let cpu_params = args.cache_plan.cpu_update_bytes / 12 / n_layers;
    let ssd_updates = config.use_ssd && args.placement.ssd_bytes > 0;
    let updates_on_graph = !config.lock_free && (ssd_updates || cpu_params > 0);

    // The graph size is known from the schedule — reserve it up front:
    // resident-page moves, per-step gather + compute (+ tp all-reduce), the
    // backward-half extras (grad sync, offload, up to 4 update-path tasks)
    // and the pp boundary pair.
    let n_moves = schedule
        .tasks
        .iter()
        .filter(|t| matches!(t.op, TaskOp::MoveToGpu(_)))
        .count();
    lo.reserve_tasks(n_moves + 3 * n_steps + n_steps.div_ceil(2) * 6 + 3);

    // 1. Initial page movements (trigger 0) on the H2D channel — an O(1)
    // slice of the trigger-indexed schedule.
    for t in schedule.at_trigger(0) {
        if let TaskOp::MoveToGpu(page) = t.op {
            let id = lo.stage_in(page.bytes, format!("move l{}p{}", page.layer, page.index));
            lo.annotate(id, [Access::write(objects::page(page.layer, page.index))]);
        }
    }

    // 2. Per-step gathers and computes in trigger order.
    for i in 0..n_steps {
        let Some(step) = step_kind[i] else {
            // Pass 1 above records a StepKind for every step index.
            unreachable!("step {i} lowered without a compute kind");
        };
        let layer = step.layer();
        // All-gather of the full layer parameters across ranks, launched
        // at its (phase-2 advanced) trigger: dependency on the compute
        // task of step `trigger − 1`.
        let trig = gather_trigger[i];
        let gdeps: Vec<usize> = if trig > 0 {
            compute_task[trig - 1].into_iter().collect()
        } else {
            Vec::new()
        };
        let gid = if plan.gathers_params() {
            lo.all_gather(
                args.layer_comm_bytes[layer],
                gdeps,
                format!("all_gather s{i}"),
            )
        } else {
            // Replicated stages gather nothing; a zero-duration marker
            // keeps the per-step graph shape (and the verifier's lifetime
            // story) identical across ZeRO stages.
            lo.comm_noop(gdeps, format!("stage_params s{i}"))
        };
        // Each gather materializes a fresh per-step working buffer (which
        // is what lets phase-2 advanced prefetch overlap safely) from the
        // persistent parameter shards.
        lo.annotate(
            gid,
            [
                Access::read(objects::layer_params(layer)),
                Access::alloc(objects::gathered(i)),
            ],
        );

        // Compute: forward or backward (+ recompute), over this rank's
        // 1/tp slice of the layer.
        let width = (args.model.d_model / plan.tp.max(1)) as f64;
        let dur = match step {
            StepKind::Forward(_) => config.gpu_compute.time_ns_sized(
                flops.forward / tp,
                config.batch_size as f64,
                width,
            ),
            StepKind::Backward(_) => config.gpu_compute.time_ns_sized(
                (flops.backward + if config.recompute { flops.recompute } else { 0 }) / tp,
                config.batch_size as f64,
                width,
            ),
        };
        // Page bookkeeping / event dispatch overhead rides the GPU stream
        // (the paper's measured ~2.4% management cost).
        let dur = dur + (dur as f64 * config.mm_overhead) as u64;
        let cid = lo.compute_gpu(dur, [gid], format!("compute s{i}"));
        // Compute is the gathered buffer's only (and last) consumer;
        // backward additionally materializes the layer's full gradients.
        let mut compute_accesses = vec![
            Access::read(objects::gathered(i)),
            Access::free(objects::gathered(i)),
        ];
        if let StepKind::Backward(l) = step {
            compute_accesses.push(Access::alloc(objects::layer_grads(l)));
        }
        lo.annotate(cid, compute_accesses);

        // Tensor parallelism synchronizes each step's partial activations
        // (two all-reduces per layer visit — attention and MLP) on the tp
        // group's own channel; downstream work chains behind it.
        let mut eid = cid;
        if plan.tp > 1 {
            eid = lo.tp_all_reduce(2 * boundary_bytes, [cid], format!("tp_all_reduce s{i}"));
        }
        compute_task[i] = Some(eid);

        // Pipeline boundary: after this stage's last forward, the boundary
        // activations travel to the next stage and the backward half waits
        // for the gradients to come back on the pp channel.
        if plan.pp > 1 && i + 1 == n_steps / 2 {
            let pp_bytes = boundary_bytes.div_ceil(tp);
            let send = lo.pp_send(pp_bytes, [eid], "pp_send");
            let recv = lo.pp_recv(pp_bytes, [send], "pp_recv");
            compute_task[i] = Some(recv);
        }

        // Backward extras: synchronize gradients across the dp group
        // (reduce-scatter under ZeRO-3, all-reduce when replicated) and
        // offload this rank's share.
        if let StepKind::Backward(l) = step {
            let sync_op = plan.grad_sync_op();
            let rs = lo.grad_sync(
                sync_op,
                args.layer_comm_bytes[l],
                [eid],
                match sync_op {
                    Collective::ReduceScatter => format!("reduce_scatter l{l}"),
                    _ => format!("grad_all_reduce l{l}"),
                },
            );
            // The reduce-scatter consumes the full gradients and leaves
            // this rank's reduced shard.
            lo.annotate(
                rs,
                [
                    Access::free(objects::layer_grads(l)),
                    Access::alloc(objects::grad_shard(l)),
                ],
            );
            let shard = args.zero.shard_bytes(args.layer_comm_bytes[l]);
            let off = lo.offload(shard, [rs], format!("grad_offload l{l}"));
            // When no optimizer update appears on this graph (lock-free
            // mode accounts for updates analytically), the offload is the
            // shard's last on-graph consumer.
            if updates_on_graph {
                lo.annotate(off, [Access::read(objects::grad_shard(l))]);
            } else {
                lo.annotate(
                    off,
                    [
                        Access::read(objects::grad_shard(l)),
                        Access::free(objects::grad_shard(l)),
                    ],
                );
            }

            // Synchronous optimizer updates join the iteration's critical
            // path; the lock-free mechanism decouples them (accounted
            // analytically by train_iteration).
            if !config.lock_free {
                let upd_dur = config
                    .cpu_update
                    .time_ns_sharded(cpu_params * 28, gpus_per_server);
                if ssd_updates {
                    let layer_ssd = args.placement.ssd_bytes / n_layers;
                    let rd = lo.ssd_read(layer_ssd, [off], format!("ssd_read l{l}"));
                    lo.annotate(rd, [Access::read(objects::layer_state(l))]);
                    let upd = lo.update_cpu(upd_dur, [rd], format!("cpu_update l{l}"));
                    lo.annotate(
                        upd,
                        [
                            Access::free(objects::grad_shard(l)),
                            Access::write(objects::layer_state(l)),
                        ],
                    );
                    let wr = lo.ssd_write(layer_ssd, [upd], format!("ssd_write l{l}"));
                    lo.annotate(wr, [Access::read(objects::layer_state(l))]);
                    // Updated FP16 parameters return to the GPU pages.
                    let up = lo.move_in(cpu_params * 2, [upd], format!("param_up l{l}"));
                    lo.annotate(up, [Access::write(objects::layer_params(l))]);
                } else if cpu_params > 0 {
                    let upd = lo.update_cpu(upd_dur, [off], format!("cpu_update l{l}"));
                    lo.annotate(
                        upd,
                        [
                            Access::free(objects::grad_shard(l)),
                            Access::write(objects::layer_state(l)),
                        ],
                    );
                    // Updated FP16 parameters return to the GPU pages;
                    // GPU-cached layers skip this PCIe round trip — the
                    // Section 4.2 cache's second saving.
                    let up = lo.move_in(cpu_params * 2, [upd], format!("param_up l{l}"));
                    lo.annotate(up, [Access::write(objects::layer_params(l))]);
                }
            }
        }
    }

    // GPU-cached optimizer updates run on the GPU stream after backward
    // (ordered behind every compute by stream submission order).
    if args.cache_plan.gpu_update_bytes > 0 && !config.lock_free {
        let traffic = args.cache_plan.gpu_update_bytes / 12 * 28;
        let id = lo.compute_gpu(config.gpu_update.time_ns(traffic), [], "gpu_cached_update");
        lo.annotate(id, [Access::write(objects::gpu_cached_states())]);
    }

    let (gpu, h2d, d2h, comm) = (lo.gpu_id(), lo.h2d_id(), lo.d2h_id(), lo.comm_id());
    let (sim, comm_log) = lo.into_sim_and_log();
    LoweredIteration {
        sim,
        gpu,
        h2d,
        d2h,
        comm,
        comm_log,
    }
}

/// Checkpoint cost parameters derived by *executing* the checkpoint task
/// graphs on the simulated hardware (instead of hand-entered bandwidth
/// arithmetic): the write side lowers per-layer ZeRO-sharded FP32 master
/// state (12 B/param) as `ssd_write` tasks on one rank's SSD share; the
/// restore side lowers the matching `ssd_read`s plus the H2D `move_in` of
/// the FP16 compute copies. Feed the result to
/// [`crate::recovery::RecoveryModel::from_lowering`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointLowering {
    /// Global restartable state: FP32 master + Adam moments, 12 B/param.
    pub state_bytes: u64,
    /// Bytes one rank writes (its ZeRO shard of every layer).
    pub rank_shard_bytes: u64,
    /// Seconds to write one checkpoint (makespan of the executed write
    /// graph — all ranks write their shards concurrently, so one rank's
    /// schedule is the fleet's).
    pub write_secs: f64,
    /// Seconds to read the checkpoint back and restage FP16 parameters to
    /// the GPU on restart.
    pub restore_secs: f64,
}

/// Per-layer FP32 master-state bytes (12 B/param: FP32 params + two Adam
/// moments), with the remainder (embeddings, head) folded into layer 0.
fn layer_state_bytes(model: &TransformerConfig) -> Vec<u64> {
    let layers = model.layers as u64;
    let per_layer = model.params_per_layer() * 12;
    let remainder = model.total_params() * 12 - per_layer * layers;
    (0..layers)
        .map(|l| per_layer + if l == 0 { remainder } else { 0 })
        .collect()
}

/// Build the checkpoint-*write* task graph for one rank: every layer's
/// ZeRO shard of FP32 master state, serialized on the rank's SSD share.
/// Exposed separately so callers can inject `angel_sim` faults (e.g. an
/// SSD outage) into the simulation before running it.
pub fn checkpoint_write_graph(model: &TransformerConfig, config: &EngineConfig) -> Lowering {
    let mut lo = Lowering::new(&LoweringConfig::for_engine(config));
    let ranks = config.num_gpus() as u64;
    lo.reserve_tasks(model.layers);
    for (l, bytes) in layer_state_bytes(model).iter().enumerate() {
        let id = lo.ssd_write(bytes.div_ceil(ranks), [], format!("ckpt_write l{l}"));
        lo.annotate(id, [Access::read(objects::layer_state(l))]);
    }
    lo
}

/// Build the checkpoint-*restore* task graph for one rank: per-layer SSD
/// reads of the FP32 shard, each followed by the H2D restage of the
/// layer's FP16 compute copy (2 B/param of the shard), pipelined so reads
/// overlap earlier restages.
pub fn checkpoint_restore_graph(model: &TransformerConfig, config: &EngineConfig) -> Lowering {
    let mut lo = Lowering::new(&LoweringConfig::for_engine(config));
    let ranks = config.num_gpus() as u64;
    lo.reserve_tasks(2 * model.layers);
    for (l, bytes) in layer_state_bytes(model).iter().enumerate() {
        let shard = bytes.div_ceil(ranks);
        let rd = lo.ssd_read(shard, [], format!("ckpt_read l{l}"));
        lo.annotate(rd, [Access::write(objects::layer_state(l))]);
        // FP16 copies are 2 of the 12 bytes-per-param of master state.
        let up = lo.move_in(shard / 6, [rd], format!("ckpt_restage l{l}"));
        lo.annotate(
            up,
            [
                Access::read(objects::layer_state(l)),
                Access::write(objects::layer_params(l)),
            ],
        );
    }
    lo
}

/// Derive checkpoint write/restore cost by executing both graphs.
pub fn lower_checkpoint(model: &TransformerConfig, config: &EngineConfig) -> CheckpointLowering {
    let ranks = config.num_gpus() as u64;
    let state_bytes = model.total_params() * 12;
    let rank_shard_bytes = layer_state_bytes(model)
        .iter()
        .map(|b| b.div_ceil(ranks))
        .sum();
    let write = checkpoint_write_graph(model, config).run();
    let restore = checkpoint_restore_graph(model, config).run();
    CheckpointLowering {
        state_bytes,
        rank_shard_bytes,
        write_secs: angel_sim::ns_to_s(write.makespan),
        restore_secs: angel_sim::ns_to_s(restore.makespan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lowering() -> Lowering {
        Lowering::new(&LoweringConfig::new(ClusterSpec::single_a100(), 8))
    }

    #[test]
    fn resource_surface_is_stable() {
        let lo = lowering();
        // The Engine's utilization reporting and every baseline depend on
        // this fixed surface: two executor streams, two PCIe links, one
        // collective channel, one SSD channel.
        let names: Vec<&str> = lo.sim.resources().names().collect();
        assert_eq!(
            names,
            [
                "executor:gpu-stream",
                "executor:cpu-stream",
                "pcie-h2d",
                "pcie-d2h",
                "communicator:dp-channel",
                "ssd-channel"
            ]
        );
    }

    #[test]
    fn mesh_surface_adds_per_group_channels() {
        let mesh = DeviceMesh::new(ClusterSpec::a100_tencent(4), 4, 4, 2).unwrap();
        let lo =
            Lowering::new(&LoweringConfig::new(ClusterSpec::a100_tencent(4), 32).with_mesh(mesh));
        let names: Vec<&str> = lo.sim.resources().names().collect();
        assert_eq!(
            names,
            [
                "executor:gpu-stream",
                "executor:cpu-stream",
                "pcie-h2d",
                "pcie-d2h",
                "communicator:dp-channel",
                "communicator:tp-channel",
                "communicator:pp-channel",
                "ssd-channel"
            ]
        );
        assert!(lo.tp_id().is_some() && lo.pp_id().is_some());
        // A degenerate mesh keeps the stable 6-resource surface.
        let flat = DeviceMesh::data_parallel(ClusterSpec::single_a100());
        let lo = Lowering::new(&LoweringConfig::new(ClusterSpec::single_a100(), 8).with_mesh(flat));
        assert_eq!(lo.sim.resources().names().count(), 6);
        assert!(lo.tp_id().is_none() && lo.pp_id().is_none());
    }

    #[test]
    fn tp_and_pp_primitives_price_through_their_groups() {
        use crate::communicator::GroupSpec;
        use angel_hw::MeshAxis;
        let cluster = ClusterSpec::a100_tencent(4);
        let mesh = DeviceMesh::new(cluster.clone(), 4, 4, 2).unwrap();
        let tp_spec = GroupSpec::from_mesh(&mesh, MeshAxis::Tp);
        let pp_spec = GroupSpec::from_mesh(&mesh, MeshAxis::Pp);
        let mut lo = Lowering::new(&LoweringConfig::new(cluster, 32).with_mesh(mesh));
        let t = lo.tp_all_reduce(64 << 20, [], "tp");
        let p = lo.pp_send(8 << 20, [t], "pp");
        let _ = p;
        assert_eq!(
            lo.run().makespan,
            tp_spec.collective_ns(Collective::AllReduce, 64 << 20) + pp_spec.p2p_ns(8 << 20)
        );
    }

    #[test]
    fn streams_serialize_and_chain_exactly() {
        // The 1F1B identity the Megatron lowering relies on: a chain of k
        // equal kernels plus one exposed collective has makespan
        // k·d + dp, exactly (integer addition in the DES).
        let mut lo = lowering();
        let mut prev: Option<usize> = None;
        for k in 0..7 {
            prev = Some(lo.compute_gpu(1000, prev, format!("micro {k}")));
        }
        lo.collective_exposed(123, prev, "dp");
        assert_eq!(lo.run().makespan, 7 * 1000 + 123);
    }

    #[test]
    fn pcie_efficiency_slows_transfers() {
        let time_at = |eff: f64| {
            let mut lo = Lowering::new(
                &LoweringConfig::new(ClusterSpec::single_a100(), 8).with_pcie_efficiency(eff),
            );
            lo.move_in(1 << 30, [], "in");
            lo.run().makespan
        };
        let full = time_at(1.0);
        let degraded = time_at(0.5);
        assert!(
            degraded > full * 3 / 2,
            "halved PCIe efficiency must slow a 1 GiB move: {full} vs {degraded}"
        );
    }

    #[test]
    fn collectives_price_through_the_cluster_model() {
        use angel_sim::collectives::hierarchical_collective_time_ns;
        let cluster = ClusterSpec::single_a100();
        let mut lo = Lowering::new(&LoweringConfig::new(cluster.clone(), 8));
        let g = lo.all_gather(64 << 20, [], "g");
        let r = lo.reduce_scatter(64 << 20, [g], "r");
        let _ = r;
        let expect_g =
            hierarchical_collective_time_ns(Collective::AllGather, 64 << 20, &cluster, 8);
        let expect_r =
            hierarchical_collective_time_ns(Collective::ReduceScatter, 64 << 20, &cluster, 8);
        assert_eq!(lo.run().makespan, expect_g + expect_r);
    }

    #[test]
    fn stage_in_accounts_gpu_memory() {
        let mut lo = Lowering::new(
            &LoweringConfig::new(ClusterSpec::single_a100(), 8).with_gpu_mem(1 << 30),
        );
        let a = lo.stage_in(4 << 20, "page a");
        let b = lo.stage_in(4 << 20, "page b");
        assert!(a < b);
        // Both moves run on the H2D link, which is busy while they stream.
        let report = lo.run();
        assert!(report.utilization(lo.h2d_id()) > 0.9);
    }

    #[test]
    fn checkpoint_cost_derives_from_executed_schedule() {
        let model = TransformerConfig::gpt3_175b();
        let config = EngineConfig::servers(96).with_batch_size(1);
        let ckpt = lower_checkpoint(&model, &config);
        assert_eq!(ckpt.state_bytes, model.total_params() * 12);
        // Shards cover the state (up to per-layer rounding).
        let ranks = config.num_gpus() as u64;
        assert!(ckpt.rank_shard_bytes >= ckpt.state_bytes / ranks);
        // The derived write time must match first-principles arithmetic:
        // shard bytes over the rank's SSD share, plus per-task latency.
        let ssd = &config.cluster.server.ssd_link;
        let share = ssd.bandwidth / config.cluster.server.num_gpus() as u64;
        let floor = ckpt.rank_shard_bytes as f64 / share as f64;
        assert!(
            ckpt.write_secs >= floor * 0.99,
            "{} < {floor}",
            ckpt.write_secs
        );
        assert!(
            ckpt.write_secs < floor * 1.2,
            "{} vs {floor}",
            ckpt.write_secs
        );
        // Restore adds the H2D restage but pipelines it against the reads.
        assert!(ckpt.restore_secs >= ckpt.write_secs * 0.99);
        assert!(ckpt.restore_secs < ckpt.write_secs * 1.5);
    }

    #[test]
    fn checkpoint_write_graph_degrades_under_ssd_outage() {
        use angel_sim::{FaultEvent, FaultKind};
        let model = TransformerConfig::gpt3_1_7b();
        let config = EngineConfig::single_server().with_batch_size(1);
        let lo = checkpoint_write_graph(&model, &config);
        let ssd = lo.ssd_id();
        let clean = lo.run().makespan;
        let mut sim = lo.into_sim();
        let outage = clean / 2;
        sim.inject_fault(FaultEvent {
            resource: ssd,
            at: clean / 4,
            kind: FaultKind::Outage { duration: outage },
        });
        let faulted = sim.run();
        assert!(faulted.failed_tasks.is_empty());
        assert_eq!(faulted.makespan, clean + outage);
    }

    #[test]
    fn ssd_channel_shares_server_bandwidth() {
        // One rank's SSD channel runs at link bandwidth ÷ gpus-per-server,
        // so an SSD read of B bytes takes ≈ gpus_per_server× the raw link
        // time.
        let cluster = ClusterSpec::single_a100();
        let raw_bw = cluster.server.ssd_link.bandwidth;
        let gps = cluster.server.num_gpus() as u64;
        let mut lo = Lowering::new(&LoweringConfig::new(cluster.clone(), 8));
        lo.ssd_read(raw_bw, [], "read one raw-bandwidth-second");
        let t = lo.run().makespan;
        let expect = cluster.server.ssd_link.latency_ns
            + angel_hw::link::bytes_over_bandwidth_ns(raw_bw, (raw_bw / gps).max(1));
        assert_eq!(t, expect);
    }
}
