//! The Engine — Angel-PTM's user-facing API (Figure 6 of the paper) wired to
//! the simulated A100 hardware.
//!
//! ```python
//! model = angelptm.initialize(model, optimizer, config)
//! for batch in batches:
//!     loss = model(batch); model.backward(loss); model.step()
//! ```
//!
//! [`Engine::initialize`] composes the staged planning pipeline in
//! [`crate::plan`] — Trace → Shard → Place → Schedule → Lower — behind a
//! closed-form capacity check; every splice runs the same pipeline:
//!
//! 0. [`MemoryPlan::precheck`]: reject, in O(1), a model whose states
//!    cannot fit the CPU page pool under any schedule, before tracing;
//! 1. [`TracePlan`]: run the [`crate::Tracer`] over one symbolic iteration;
//! 2. [`ShardPlan`]: ZeRO/expert-parallel byte accounting → scheduler input;
//! 3. [`MemoryPlan`]: tier budgets, the Section 4.1/4.2 placement heuristic
//!    (forward/backward on GPU, optimizer updates on CPU, FP32 states
//!    spilling to SSD when enabled), and materialization in a real
//!    [`crate::PageAllocator`] so every page-accounting invariant is
//!    enforced, not assumed;
//! 4. [`SchedulePlan`]: the Unified Scheduler (Algorithm 1) plans page
//!    movements, all-gathers and computes, and the dynamic GPU cache is
//!    sized from the schedule's lifetime-accurate peak;
//! 5. [`crate::plan::lower_schedule`]: the schedule is lowered onto the
//!    `angel-sim` discrete-event hardware. Training is iterative (§4.2), so
//!    the engine lowers once per schedule: the [`LoweredIteration`] is built
//!    at the end of [`Engine::initialize`] and rebuilt only when a splice
//!    ([`Engine::run_online`], [`Engine::splice_resize`]) replaces the
//!    schedule. Debug builds verify it there, once. Every iteration, the
//!    SPMD certificate, the merged trace and service admission read that one
//!    graph, so the graph that is verified is the graph that runs. Faults
//!    are never written into it: an iteration with injected faults passes
//!    them to that graph's run.
//!
//! [`Engine::train_iteration`] runs the lowered iteration and reports the
//! quantities the paper's evaluation tables measure: iteration time →
//! samples/s, per-resource utilization, peak GPU memory, residency,
//! staleness under the lock-free mechanism.

use crate::allocator::PageAllocator;
use crate::cache::CachePlan;
use crate::communicator::CommGroup;
use crate::config::EngineConfig;
use crate::error::{Error, Result};
use crate::obs::{ObsThread, Recorder};
use crate::plan::{
    lower_schedule, FaultTarget, LoweredIteration, MemoryPlan, ScheduleLowering, SchedulePlan,
    ShardPlan, TracePlan,
};
use crate::scheduler::Schedule;
use crate::tracer::Trace;
use angel_hw::DeviceId;
use angel_model::TransformerConfig;
use angel_sim::{FaultEvent, FaultKind};
use serde::{Deserialize, Serialize};

pub use crate::plan::memory::Placement;

/// Per-iteration statistics — the measurement vocabulary of Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterStats {
    /// End-to-end iteration time.
    pub iter_time_ns: u64,
    /// Global throughput: global batch ÷ iteration time.
    pub samples_per_sec: f64,
    /// GPU compute-stream utilization (1 − the paper's idle fraction).
    pub gpu_utilization: f64,
    /// PCIe (H2D+D2H average) utilization.
    pub pcie_utilization: f64,
    /// Collective-communication channel utilization.
    pub comm_utilization: f64,
    /// Average number of busy resources (overlap quality).
    pub overlap_ratio: f64,
    /// Planned peak GPU bytes (scheduler, lifetime-accurate).
    pub peak_gpu_bytes: u64,
    /// Fraction of the parameter shard resident on GPU.
    pub resident_fraction: f64,
    /// Time of one full optimizer update cycle (CPU/SSD path).
    pub update_cycle_ns: u64,
    /// Update staleness in iterations (lock-free mode; 0.0 when synchronous).
    pub staleness_iters: f64,
    /// Lowered tasks that did not complete (0 on fault-free runs; > 0 when
    /// an injected [`ClusterEvent`] killed in-flight work).
    pub tasks_failed: u64,
}

/// Multi-iteration aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    pub iters: usize,
    pub total_time_ns: u64,
    pub samples_per_sec: f64,
    pub per_iter: IterStats,
}

/// A mid-run cluster change the online-replanning loop reacts to. Events
/// are anchored to an iteration index: faults fire *inside* iteration
/// `at_iter` (injected into that iteration's simulation), and the engine
/// replans and splices at the `at_iter → at_iter + 1` boundary — no task of
/// the abandoned tail ever executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterEvent {
    /// A transient resource outage during iteration `at_iter`. The topology
    /// is unchanged, but the engine treats the fault as a degraded-headroom
    /// signal: the splice replans with a tightened GPU budget (capacity
    /// delta) so subsequent iterations keep slack for re-executed work.
    Outage {
        at_iter: usize,
        target: FaultTarget,
        /// Simulation time within the iteration at which the fault fires.
        at_ns: u64,
        duration_ns: u64,
    },
    /// Permanent loss of `servers` servers detected during iteration
    /// `at_iter` (sim-side: the collective channel dies at `at_ns`). The
    /// splice replans onto the surviving fleet.
    ServerLoss {
        at_iter: usize,
        servers: usize,
        at_ns: u64,
    },
    /// Elastic resize to `servers` total servers, effective at the
    /// `at_iter → at_iter + 1` boundary (no in-iteration fault).
    Resize { at_iter: usize, servers: usize },
}

impl ClusterEvent {
    /// The iteration this event is anchored to.
    pub fn at_iter(&self) -> usize {
        match *self {
            ClusterEvent::Outage { at_iter, .. }
            | ClusterEvent::ServerLoss { at_iter, .. }
            | ClusterEvent::Resize { at_iter, .. } => at_iter,
        }
    }
}

/// One plan splice performed by [`Engine::run_online`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpliceReport {
    /// The splice happened at the `at_iter → at_iter + 1` boundary.
    pub at_iter: usize,
    /// Cluster size (servers) after the splice.
    pub servers: usize,
    /// Wall-clock nanoseconds of the full replan: the capacity precheck,
    /// then trace → shard → memory → schedule → place → materialize.
    pub replan_ns: u64,
    /// What the replan reused: a splice plans from scratch, so every layer
    /// is touched and none is reused.
    pub outcome: SpliceOutcome,
    /// Whether the spliced lowering was verified (plan graph + SPMD) when
    /// the splice built it — true in every debug build, false in release
    /// builds.
    pub verified: bool,
}

/// What a splice's plan reused. Every splice plans from scratch, so this
/// is always [`SpliceOutcome::from_scratch`]; benchmark harnesses still
/// read its fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpliceOutcome {
    /// Layers the new plan covers (this rank's pipeline stage).
    pub layers_touched: usize,
    /// Layers whose previous plan carried over: always 0.
    pub layers_reused: usize,
    /// Whether the previous task buffer was patched in place: always false.
    pub patched_in_place: bool,
}

impl SpliceOutcome {
    /// A from-scratch plan of `layers_touched` layers: nothing reused.
    pub fn from_scratch(layers_touched: usize) -> Self {
        Self {
            layers_touched,
            layers_reused: 0,
            patched_in_place: false,
        }
    }
}

/// Result of an online-replanning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineReport {
    pub iters: usize,
    /// Per-iteration stats: iterations before a splice ran the old plan
    /// (possibly degraded by injected faults), iterations after it run the
    /// replanned one.
    pub per_iter: Vec<IterStats>,
    /// One entry per replan, in boundary order.
    pub splices: Vec<SpliceReport>,
    /// Sum of the per-iteration times.
    pub total_time_ns: u64,
    /// Samples completed ÷ total time (each iteration's global batch is
    /// counted under the config it actually ran with; iterations with
    /// failed tasks contribute time but no samples).
    pub samples_per_sec: f64,
}

/// Millisecond-decade histogram bucket edges for `engine.iter_time_ns`:
/// 1 ms … 100 s of simulated time. Integer constants, so every bucket
/// boundary is exact and lossless on all targets — float-literal edges
/// (`1e6 as u64`-style) are exact only while the edge happens to be
/// representable, and the cast hides it when one stops being.
const ITER_TIME_BUCKETS_NS: [u64; 6] = [
    1_000_000,       // 1 ms
    10_000_000,      // 10 ms
    100_000_000,     // 100 ms
    1_000_000_000,   // 1 s
    10_000_000_000,  // 10 s
    100_000_000_000, // 100 s
];

/// Checked parts-per-million conversion for ratio gauges (clippy
/// `cast_possible_truncation` audit): NaN and negative inputs clamp to 0,
/// overlarge inputs saturate at `u64::MAX`, and the final cast is in-range
/// by construction instead of relying on `as`-cast saturation semantics.
pub(crate) fn ppm_u64(ratio: f64) -> u64 {
    let scaled = ratio * 1e6;
    if scaled.is_nan() || scaled <= 0.0 {
        return 0;
    }
    if scaled >= u64::MAX as f64 {
        return u64::MAX;
    }
    scaled as u64
}

/// Saturating `u128 → u64` narrowing for wall-clock nanosecond readings
/// (`Instant::elapsed().as_nanos()` is `u128`; 2⁶⁴ ns ≈ 584 years, so
/// saturation is unreachable in practice but stated rather than assumed).
pub(crate) fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// The initialized training engine for one model on one cluster.
pub struct Engine {
    model: TransformerConfig,
    config: EngineConfig,
    trace: Trace,
    schedule: Schedule,
    placement: Placement,
    cache_plan: CachePlan,
    /// Real page-accounting of the representative rank's three tiers.
    allocator: PageAllocator,
    /// Observability handle; disabled (free) unless attached via
    /// [`Engine::set_recorder`] / [`Engine::with_recorder`].
    recorder: Recorder,
    /// The healthy-fleet GPU reservation from the config this engine was
    /// initialized with. Outage splices *tighten* `config.gpu_reserved`
    /// (degraded headroom accumulates across outages); an elastic
    /// [`ClusterEvent::Resize`] recovery restores this baseline, so
    /// degradation is never permanent across recoveries.
    baseline_gpu_reserved: u64,
    /// The current schedule lowered onto the simulated hardware — built by
    /// [`Engine::lower`] when the schedule is planned and never mutated, so
    /// every run and every check of this schedule reads the same graph.
    lowered: LoweredIteration,
}

impl Engine {
    /// Initialize training: the capacity precheck, then Trace → Shard →
    /// Place → Schedule, then materialize the placement and lower the
    /// schedule.
    pub fn initialize(model: &TransformerConfig, config: &EngineConfig) -> Result<Self> {
        Self::plan(model, config, "engine iteration lowering").map(|(engine, _)| engine)
    }

    /// The planning pipeline behind [`Engine::initialize`] and every
    /// splice. [`MemoryPlan::precheck`] first rejects, in O(1), a model
    /// that cannot fit; then trace → shard → memory → schedule → place →
    /// materialize, and the schedule is lowered (`what` names the lowering
    /// in debug-verify failures). Returns the engine, with a disabled
    /// recorder and `config.gpu_reserved` as its baseline reservation, and
    /// the wall-clock nanoseconds of the precheck through materialize.
    fn plan(model: &TransformerConfig, config: &EngineConfig, what: &str) -> Result<(Self, u64)> {
        let t0 = std::time::Instant::now();
        MemoryPlan::precheck(model, config)?;
        let traced = TracePlan::build(model, config)?;
        let shard = ShardPlan::build(model, config, &traced);
        let mem = MemoryPlan::build(config, &shard)?;
        let planned = SchedulePlan::build(config, &shard, &mem, &traced.zero)?;
        let placed = mem.place(config, &shard, &planned)?;
        let allocator = mem.materialize(config, model.layers, &placed)?;
        let plan_ns = saturating_ns(t0.elapsed().as_nanos()).max(1);
        let lowered = Self::lower(
            &ScheduleLowering {
                model,
                config,
                schedule: &planned.schedule,
                placement: placed.placement,
                cache_plan: planned.cache_plan,
                zero: &traced.zero,
                layer_comm_bytes: &shard.layer_comm_bytes,
            },
            what,
        );
        let engine = Self {
            model: model.clone(),
            config: config.clone(),
            trace: traced.trace,
            schedule: planned.schedule,
            placement: placed.placement,
            cache_plan: planned.cache_plan,
            allocator,
            recorder: Recorder::disabled(),
            baseline_gpu_reserved: config.gpu_reserved,
            lowered,
        };
        Ok((engine, plan_ns))
    }

    /// Attach an observability recorder to the engine *and* its page
    /// allocator: iteration counters/histograms, per-resource busy and
    /// per-domain peak-memory gauges, and timeline events all flow into it.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.allocator.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Builder-style [`Engine::set_recorder`].
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.set_recorder(recorder);
        self
    }

    /// The engine's recorder (disabled unless one was attached).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The configuration currently in force — updated by splices
    /// ([`Engine::run_online`]) when the cluster resizes or degrades.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The healthy-fleet GPU reservation this engine was initialized with.
    /// `config().gpu_reserved` drifts above it while outage-degraded and
    /// returns to it on elastic recovery.
    pub fn baseline_gpu_reserved(&self) -> u64 {
        self.baseline_gpu_reserved
    }

    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    pub fn placement(&self) -> Placement {
        self.placement
    }

    pub fn cache_plan(&self) -> CachePlan {
        self.cache_plan
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    pub fn allocator(&self) -> &PageAllocator {
        &self.allocator
    }

    /// Mutable allocator access — for arming compaction
    /// ([`PageAllocator::set_compaction_threshold_ppm`]) or trimming reuse
    /// pools under external memory pressure.
    pub fn allocator_mut(&mut self) -> &mut PageAllocator {
        &mut self.allocator
    }

    /// One optimizer update cycle over this rank's CPU/SSD states — SSD
    /// read, CPU update, SSD write — with the CPU/SSD bandwidth shared by
    /// the server's ranks.
    pub fn update_cycle_ns(&self) -> u64 {
        let gpus_per_server = self.config.cluster.server.num_gpus();
        // Traffic = 28 bytes/param over the non-GPU-cached parameters.
        let cpu_params = self.cache_plan.cpu_update_bytes / 12;
        let cpu_traffic = cpu_params * 28;
        let cpu_time = self
            .config
            .cpu_update
            .time_ns_sharded(cpu_traffic, gpus_per_server);
        let ssd_time = if self.config.use_ssd {
            let link = &self.config.cluster.server.ssd_link;
            // Read + write the SSD-resident FP32 states, bandwidth shared
            // across the server's ranks.
            let bytes = 2 * self.placement.ssd_bytes;
            link.transfer_ns(bytes * gpus_per_server as u64)
        } else {
            0
        };
        cpu_time + ssd_time
    }

    /// This engine's schedule lowered onto the simulated hardware — the
    /// graph the verifiers check and `train_iteration` executes. It is
    /// rebuilt only when a splice replaces the schedule.
    pub fn lowered(&self) -> &LoweredIteration {
        &self.lowered
    }

    /// An owned copy of [`Engine::lowered`], for callers that keep the
    /// graph across a `&mut self` call such as [`Engine::train_iteration`].
    pub fn lower_iteration(&self) -> LoweredIteration {
        self.lowered().clone()
    }

    /// Cross-rank SPMD certification of this engine's lowered iteration:
    /// project the Communicator's journal onto every rank of the configured
    /// device mesh and run the collective-matching / deadlock verifier
    /// ([`crate::verify::spmd`]) — exhaustively on small fleets, symmetry-
    /// reduced at cluster scale. Errors when the parallelism plan does not
    /// factor the fleet (same contract as [`EngineConfig::device_mesh`]).
    pub fn verify_spmd(&self) -> Result<crate::verify::SpmdReport> {
        let mesh = self.config.device_mesh()?;
        Ok(crate::verify::spmd::certify(&self.lowered.comm_log, &mesh))
    }

    /// Lower a freshly planned schedule: the one lowering the engine keeps
    /// until the next splice. Debug builds verify it here, once, at any
    /// size: no unordered conflicting accesses, well-formed object
    /// lifetimes, a provable peak-memory bound that a run of the graph
    /// respects, and — projected onto every mesh rank — deadlock-free,
    /// matched collectives (symmetry-reduced, so this stays cheap even for
    /// cluster-sized meshes). Fault-free runs of one graph are
    /// deterministic, so verifying each iteration again would check nothing
    /// new.
    fn lower(args: &ScheduleLowering<'_>, what: &str) -> LoweredIteration {
        let lowered = lower_schedule(args);
        if cfg!(debug_assertions) {
            let verdict = crate::verify::PlanGraph::from_sim(&lowered.sim).verify();
            verdict.assert_clean(what);
            verdict.assert_covers(&lowered.sim.run(), what);
            if let Ok(mesh) = args.config.device_mesh() {
                crate::verify::spmd::certify(&lowered.comm_log, &mesh)
                    .assert_certified(&format!("{what} (spmd)"));
            }
        }
        lowered
    }

    /// Execute one training iteration on the simulated hardware.
    pub fn train_iteration(&mut self) -> IterStats {
        self.step(&[])
    }

    /// Run one iteration of the stored lowering with `faults` firing during
    /// it, then let the allocator compact.
    fn step(&mut self, faults: &[FaultEvent]) -> IterStats {
        let stats = self.run_lowered(faults);
        self.allocator.maybe_compact(DeviceId::CPU);
        stats
    }

    /// Execute the stored lowering once, with `faults`, and report its stats.
    fn run_lowered(&self, faults: &[FaultEvent]) -> IterStats {
        let wall_start = self.recorder.now_ns();
        let lowered = &self.lowered;
        let report = lowered.sim.run_with_faults(faults);
        // The lowered graph covers one pipeline slot (one micro-batch through
        // this rank's stage). A 1F1B pipeline drains `micro_batches + pp − 1`
        // such slots per iteration; the degenerate plan (1 micro-batch, no
        // pipeline) keeps the slot makespan as the iteration time unchanged.
        let slots = self.config.micro_batches + self.config.parallelism.pp as u64 - 1;
        let iter = (report.makespan * slots).max(1);
        let update_cycle = self.update_cycle_ns();
        // Lock-free: GPU iterations proceed at pipeline speed; updates cycle
        // in the background. Staleness = update cycle ÷ iteration time.
        let staleness = if self.config.lock_free {
            update_cycle as f64 / iter as f64
        } else {
            0.0
        };

        let stats = IterStats {
            iter_time_ns: iter,
            samples_per_sec: self.config.global_batch() as f64 / (iter as f64 / 1e9),
            gpu_utilization: report.utilization(lowered.gpu),
            pcie_utilization: (report.utilization(lowered.h2d) + report.utilization(lowered.d2h))
                / 2.0,
            comm_utilization: report.utilization(lowered.comm),
            overlap_ratio: report.overlap_ratio(),
            peak_gpu_bytes: self.schedule.stats.peak_gpu_bytes,
            resident_fraction: self.schedule.stats.resident_fraction,
            update_cycle_ns: update_cycle,
            staleness_iters: staleness,
            tasks_failed: report.failed_tasks.len() as u64,
        };
        if self.recorder.is_enabled() {
            self.record_iteration(lowered, &report, &stats, wall_start);
            // Allocator health per iteration: the CPU pool holds the bulk
            // of the model states, so its fragmentation is the one worth a
            // timeline track (and the compaction trigger, when armed).
            let frag_ppm = ppm_u64(self.allocator.stats(DeviceId::CPU).internal_frag());
            self.recorder
                .counter_sample(ObsThread::Allocator, "alloc.cpu_frag_ppm", frag_ppm);
        }
        stats
    }

    /// Publish one iteration's metrics into the attached recorder.
    ///
    /// Every value here is derived from the *simulated* execution (or from
    /// the deterministic plan), never from the wall clock — so two identical
    /// engines produce byte-identical [`crate::MetricsSnapshot`]s. Wall-clock
    /// time appears only in the event ring (the `engine` timeline track).
    fn record_iteration(
        &self,
        lowered: &LoweredIteration,
        report: &angel_sim::ExecutionReport,
        stats: &IterStats,
        wall_start: u64,
    ) {
        let rec = &self.recorder;
        let ppm = ppm_u64;
        rec.counter("engine.iterations").inc();
        rec.histogram("engine.iter_time_ns", &ITER_TIME_BUCKETS_NS)
            .observe(stats.iter_time_ns);
        rec.gauge("engine.peak_gpu_bytes").set(stats.peak_gpu_bytes);
        rec.gauge("engine.update_cycle_ns")
            .set(stats.update_cycle_ns);
        rec.gauge("engine.gpu_utilization_ppm")
            .set(ppm(stats.gpu_utilization));
        rec.gauge("engine.overlap_ratio_ppm")
            .set(ppm(stats.overlap_ratio));
        rec.gauge("engine.staleness_ppm")
            .set(ppm(stats.staleness_iters));

        // Simulated-executor metrics: per-resource busy time and per-domain
        // memory peaks, exactly as the `ExecutionReport` accounts them.
        let executed = lowered.sim.num_tasks() - report.failed_tasks.len();
        rec.counter("sim.tasks_executed").add(executed as u64);
        rec.counter("sim.tasks_failed")
            .add(report.failed_tasks.len() as u64);
        rec.gauge("sim.makespan_ns").set(report.makespan);
        for (id, name) in lowered.sim.resources().iter() {
            rec.gauge(&format!("sim.busy_ns.{name}"))
                .set(report.busy[id.0]);
            // Per-group communicator channels additionally surface as
            // counter tracks in the merged timeline, so a mesh run shows
            // its dp/tp/pp traffic side by side.
            for group in [CommGroup::Dp, CommGroup::Tp, CommGroup::Pp] {
                if name == group.channel_name() {
                    rec.counter_sample(ObsThread::Engine, group.channel_name(), report.busy[id.0]);
                }
            }
        }
        for (dom, name) in lowered.sim.resources().mem_domains() {
            rec.gauge(&format!("sim.peak_bytes.{name}"))
                .set(report.peak_mem[dom.0]);
        }

        // Timeline: one span per iteration on the engine track (wall clock),
        // plus the simulated makespan as a counter sample.
        rec.span(ObsThread::Engine, "train_iteration", -1, wall_start);
        rec.counter_sample(ObsThread::Engine, "engine.sim_makespan_ns", report.makespan);
    }

    /// Export one iteration as the *merged* Perfetto timeline (Chrome
    /// trace-event JSON): one process for the simulated hardware —
    /// computes, movements, collectives and updates on per-resource tracks,
    /// plus per-domain resident-bytes counters — and one for the runtime
    /// threads recorded in this engine's [`Recorder`] event ring (lock-free
    /// updater threads, allocator and engine spans), side by side in a
    /// single JSON. With a disabled recorder the runtime process is empty.
    pub fn export_merged_trace(&self) -> String {
        let report = self.lowered.sim.run();
        crate::obs::merged_perfetto(&self.lowered.sim, &report, &self.recorder.events())
    }

    /// Run `iters` iterations (deterministic steady state).
    pub fn run(&mut self, iters: usize) -> RunReport {
        assert!(iters >= 1);
        let per_iter = self.train_iteration();
        RunReport {
            iters,
            total_time_ns: per_iter.iter_time_ns * iters as u64,
            samples_per_sec: per_iter.samples_per_sec,
            per_iter,
        }
    }

    /// Run `iters` iterations under a stream of [`ClusterEvent`]s — the
    /// online-replanning loop. Each event's faults are injected into the
    /// simulation of iteration `at_iter`; at the `at_iter → at_iter + 1`
    /// boundary the engine replans the remaining iterations from scratch
    /// against the changed topology and splices the new lowered schedule
    /// in. The abandoned tail of the old plan never executes: every
    /// post-splice iteration runs the new schedule's lowering,
    /// byte-identical to a fresh engine initialized at the new
    /// configuration. Debug builds verify each spliced lowering
    /// once, when it is built (plan graph + symmetry-reduced SPMD
    /// certification). A faulted iteration runs the stored lowering with
    /// its faults passed to the run; the stored graph never holds them.
    ///
    /// Zero iterations is an empty report (no iterations, no splices,
    /// time 0). Errors when a replan is infeasible (e.g. the surviving
    /// fleet cannot hold the model, or the model-parallel block does not
    /// divide it) — the engine is left on its last good plan.
    pub fn run_online(&mut self, iters: usize, events: &[ClusterEvent]) -> Result<OnlineReport> {
        let mut per_iter = Vec::with_capacity(iters);
        let mut splices = Vec::new();
        let mut total_ns = 0u64;
        let mut samples = 0f64;
        for k in 0..iters {
            // Faults are an argument of this iteration's run: the stored
            // lowering never holds one.
            let mut faults = Vec::new();
            for ev in events.iter().filter(|e| e.at_iter() == k) {
                let fault = match *ev {
                    ClusterEvent::Outage {
                        target,
                        at_ns,
                        duration_ns,
                        ..
                    } => FaultEvent {
                        resource: self.lowered.fault_resource(target),
                        at: at_ns,
                        kind: FaultKind::Outage {
                            duration: duration_ns,
                        },
                    },
                    ClusterEvent::ServerLoss { at_ns, .. } => FaultEvent {
                        resource: self.lowered.comm,
                        at: at_ns,
                        kind: FaultKind::Permanent,
                    },
                    ClusterEvent::Resize { .. } => continue, // boundary-only
                };
                faults.push(fault);
            }
            let mut stats = self.step(&faults);
            total_ns += stats.iter_time_ns;
            if stats.tasks_failed == 0 {
                samples += self.config.global_batch() as f64;
            } else {
                // A permanent fault strands the iteration: whatever the sim
                // completed before dying produced no usable batch, so the
                // iteration contributes time but no samples.
                stats.samples_per_sec = 0.0;
            }
            per_iter.push(stats);

            // Splice at the boundary: replan against the new topology so
            // iterations k+1.. run the new schedule. Total fleet loss is
            // checked even after the final iteration — a dead cluster must
            // never be reported as a completed run.
            for ev in events.iter().filter(|e| e.at_iter() == k) {
                if let ClusterEvent::ServerLoss { servers, .. } = *ev {
                    let had = self.config.cluster.num_servers;
                    if servers >= had {
                        return Err(Error::ClusterExhausted {
                            had_servers: had,
                            lost_servers: servers,
                        });
                    }
                }
                if k + 1 >= iters {
                    continue; // no further iteration to replan for
                }
                let splice = match *ev {
                    // Degraded headroom: tighten the budget by 1/16 of
                    // the current GPU budget (accumulates across
                    // outages); the splice replans under it.
                    ClusterEvent::Outage { .. } => {
                        let tightened = self.config.gpu_reserved + self.config.gpu_budget() / 16;
                        self.resplice(k, self.config.cluster.num_servers, tightened)?
                    }
                    ClusterEvent::ServerLoss { servers, .. } => {
                        let survivors = self.config.cluster.num_servers - servers;
                        self.resplice(k, survivors, self.config.gpu_reserved)?
                    }
                    // An elastic resize is a *recovery*: the replacement
                    // fleet is healthy, so the outage-tightened reservation
                    // (if any) is restored to the initialization baseline
                    // rather than carried over forever.
                    ClusterEvent::Resize { servers, .. } => {
                        self.resplice(k, servers, self.baseline_gpu_reserved)?
                    }
                };
                splices.push(splice);
            }
        }
        Ok(OnlineReport {
            iters,
            per_iter,
            splices,
            total_time_ns: total_ns,
            samples_per_sec: samples / (total_ns.max(1) as f64 / 1e9),
        })
    }

    /// Elastically grow or shrink this engine onto `servers` servers at an
    /// iteration boundary — the resumable-session primitive the multi-job
    /// training service (`angel-service`) builds on. The engine *is* the
    /// session: a scheduler may park it (simply stop calling
    /// [`Engine::train_iteration`]), later resize it onto whatever slice of
    /// the cluster is free, and resume stepping. The resize plans from
    /// scratch, so the spliced plan is byte-identical to a fresh engine
    /// initialized at the new size.
    ///
    /// The resized fleet is healthy capacity, so any outage-tightened GPU
    /// reservation is restored to the initialization baseline (same recovery
    /// semantics as [`ClusterEvent::Resize`]). `at_iter` only labels the
    /// returned [`SpliceReport`] (the caller's iteration clock). On error
    /// (e.g. the model cannot fit the new slice, or the model-parallel
    /// block does not divide it) the engine keeps its current plan and
    /// remains runnable at its current size.
    pub fn splice_resize(&mut self, at_iter: usize, servers: usize) -> Result<SpliceReport> {
        self.resplice(at_iter, servers, self.baseline_gpu_reserved)
    }

    /// Replan the engine from scratch onto `servers` servers with
    /// `gpu_reserved` bytes held back, and splice the new plan in. On error
    /// the engine keeps its previous plan.
    fn resplice(
        &mut self,
        at_iter: usize,
        servers: usize,
        gpu_reserved: u64,
    ) -> Result<SpliceReport> {
        if servers == 0 {
            return Err(Error::InvalidParallelism(
                "cannot replan onto 0 servers".to_string(),
            ));
        }
        let wall_start = self.recorder.now_ns();
        let mut config = self.config.clone();
        config.cluster = config.cluster.resized(servers);
        config.gpu_reserved = gpu_reserved;
        config.parallelism = config.parallelism.refit(config.cluster.total_gpus())?;
        let (mut spliced, replan_ns) =
            Self::plan(&self.model, &config, "spliced iteration lowering")?;
        let outcome =
            SpliceOutcome::from_scratch(config.parallelism.stage_layers(self.model.layers));

        // Commit the spliced plan.
        spliced.baseline_gpu_reserved = self.baseline_gpu_reserved;
        spliced.set_recorder(self.recorder.clone());
        *self = spliced;

        let rec = &self.recorder;
        rec.counter("plan.replans").inc();
        rec.counter("plan.replan_ns").add(replan_ns);
        rec.span(ObsThread::Engine, "replan", -1, wall_start);
        rec.counter_sample(ObsThread::Engine, "plan.replan_ns", replan_ns);
        Ok(SpliceReport {
            at_iter,
            servers,
            replan_ns,
            outcome,
            verified: cfg!(debug_assertions),
        })
    }

    /// The largest layer count of `base` that [`Engine::initialize`] accepts
    /// under `config` — the Section 6.2 capacity experiment ("we increase
    /// the number of transformer blocks and fix other model settings").
    pub fn max_layers(base: &TransformerConfig, config: &EngineConfig) -> usize {
        let fits = |layers: usize| {
            layers >= 1 && Engine::initialize(&base.clone().with_layers(layers), config).is_ok()
        };
        if !fits(1) {
            return 0;
        }
        let mut lo = 1usize; // known good
        let mut hi = 2usize;
        while fits(hi) {
            lo = hi;
            hi *= 2;
            if hi > 4096 {
                return lo;
            }
        }
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    fn tiny_model() -> TransformerConfig {
        TransformerConfig::gpt3_1_7b()
            .with_layers(4)
            .with_seq_len(256)
    }

    #[test]
    fn initialize_small_model() {
        let e = Engine::initialize(&tiny_model(), &EngineConfig::single_server()).unwrap();
        assert!(e.schedule().stats.peak_gpu_bytes <= EngineConfig::single_server().gpu_budget());
        // Small model: everything resident, full cache.
        assert!((e.schedule().stats.resident_fraction - 1.0).abs() < 1e-9);
        assert!(e.cache_plan().cached_fraction > 0.99);
    }

    #[test]
    fn iteration_produces_sane_stats() {
        let mut e = Engine::initialize(
            &tiny_model(),
            &EngineConfig::single_server().with_batch_size(8),
        )
        .unwrap();
        let s = e.train_iteration();
        assert!(s.iter_time_ns > 0);
        assert!(s.samples_per_sec > 0.0);
        assert!(s.gpu_utilization > 0.0 && s.gpu_utilization <= 1.0);
        assert!(s.overlap_ratio >= s.gpu_utilization);
        assert_eq!(s.staleness_iters, 0.0);
    }

    #[test]
    fn larger_batch_raises_throughput() {
        let m = tiny_model();
        let s1 = Engine::initialize(&m, &EngineConfig::single_server().with_batch_size(1))
            .unwrap()
            .train_iteration();
        let s8 = Engine::initialize(&m, &EngineConfig::single_server().with_batch_size(8))
            .unwrap()
            .train_iteration();
        assert!(s8.samples_per_sec > s1.samples_per_sec);
    }

    #[test]
    fn oversized_model_rejected() {
        // ~3000 layers of GPT-28B geometry ≈ 2.4T params ≈ 39 TB of states:
        // too much for one server without SSD.
        let big = TransformerConfig::gpt3_28b().with_layers(3000);
        match Engine::initialize(&big, &EngineConfig::single_server()) {
            Err(Error::ModelTooLarge { .. }) | Err(Error::OutOfPages { .. }) => {}
            other => panic!("expected capacity failure, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn ssd_extends_capacity() {
        let base = TransformerConfig::gpt3_28b();
        let without = Engine::max_layers(&base, &EngineConfig::single_server());
        let with = Engine::max_layers(&base, &EngineConfig::single_server().with_ssd(true));
        assert!(
            with > without,
            "SSD must extend capacity: {with} vs {without}"
        );
    }

    #[test]
    fn lock_free_reports_staleness() {
        let mut e = Engine::initialize(
            &tiny_model(),
            &EngineConfig::single_server()
                .with_ssd(true)
                .with_lock_free(true),
        )
        .unwrap();
        let s = e.train_iteration();
        assert!(s.update_cycle_ns > 0);
        assert!(s.staleness_iters >= 0.0);
    }

    #[test]
    fn run_aggregates() {
        let mut e = Engine::initialize(&tiny_model(), &EngineConfig::single_server()).unwrap();
        let r = e.run(10);
        assert_eq!(r.iters, 10);
        assert_eq!(r.total_time_ns, r.per_iter.iter_time_ns * 10);
    }

    #[test]
    fn run_online_without_events_matches_run() {
        let mut e = Engine::initialize(&tiny_model(), &EngineConfig::single_server()).unwrap();
        let baseline = e.train_iteration();
        let r = e.run_online(3, &[]).unwrap();
        assert_eq!(r.iters, 3);
        assert!(r.splices.is_empty());
        for s in &r.per_iter {
            assert_eq!(*s, baseline);
        }
        assert_eq!(r.total_time_ns, baseline.iter_time_ns * 3);
    }

    #[test]
    fn run_online_zero_iterations_is_empty() {
        // Regression: zero iterations used to trip an assert instead of
        // returning the empty report.
        let mut e = Engine::initialize(&tiny_model(), &EngineConfig::single_server()).unwrap();
        let r = e
            .run_online(
                0,
                &[ClusterEvent::Resize {
                    at_iter: 0,
                    servers: 2,
                }],
            )
            .unwrap();
        assert_eq!(r.iters, 0);
        assert!(r.per_iter.is_empty());
        assert!(r.splices.is_empty());
        assert_eq!(r.total_time_ns, 0);
        assert_eq!(r.samples_per_sec, 0.0);
        assert_eq!(e.config().cluster.num_servers, 1);
    }

    #[test]
    fn outage_defers_tasks_and_splices_a_tighter_budget() {
        let mut e = Engine::initialize(&tiny_model(), &EngineConfig::single_server()).unwrap();
        let reserved_before = e.config().gpu_reserved;
        let r = e
            .run_online(
                2,
                &[ClusterEvent::Outage {
                    at_iter: 0,
                    target: FaultTarget::Comm,
                    at_ns: 0,
                    duration_ns: 2_000_000,
                }],
            )
            .unwrap();
        // An outage defers work rather than killing it: the degraded
        // iteration is slower but complete.
        assert_eq!(r.per_iter[0].tasks_failed, 0);
        assert!(r.per_iter[0].iter_time_ns > r.per_iter[1].iter_time_ns);
        // The splice replanned under a tightened budget.
        assert_eq!(r.splices.len(), 1);
        assert_eq!(r.splices[0].at_iter, 0);
        assert!(e.config().gpu_reserved > reserved_before);
        if cfg!(debug_assertions) {
            assert!(r.splices[0].verified);
        }
    }

    #[test]
    fn server_loss_fails_tasks_then_replans_onto_survivors() {
        let mut e = Engine::initialize(&tiny_model(), &EngineConfig::servers(2)).unwrap();
        let r = e
            .run_online(
                2,
                &[ClusterEvent::ServerLoss {
                    at_iter: 0,
                    servers: 1,
                    at_ns: 0,
                }],
            )
            .unwrap();
        // A permanent comm fault strands the collective chain.
        assert!(r.per_iter[0].tasks_failed > 0);
        // The splice reshaped the mesh onto the surviving server and the
        // next iteration runs clean.
        assert_eq!(e.config().cluster.num_servers, 1);
        assert_eq!(e.config().parallelism.dp, 8);
        assert_eq!(r.per_iter[1].tasks_failed, 0);
        assert_eq!(r.splices.len(), 1);
        assert_eq!(r.splices[0].servers, 1);
    }

    #[test]
    fn resize_recovery_restores_baseline_reservation() {
        // Regression: an outage used to *commit* the tightened budget into
        // `config.gpu_reserved`, so a subsequent Resize recovery re-read the
        // tightened value and the degradation became permanent. The
        // sequence outage → resize → outage must see the resize restore the
        // baseline, and goodput return to the pre-outage level.
        let mut e = Engine::initialize(&tiny_model(), &EngineConfig::single_server()).unwrap();
        let baseline = e.baseline_gpu_reserved();
        assert_eq!(e.config().gpu_reserved, baseline);
        let healthy = e.train_iteration();
        let outage = |at_iter| ClusterEvent::Outage {
            at_iter,
            target: FaultTarget::Comm,
            at_ns: 0,
            duration_ns: 2_000_000,
        };
        let r = e
            .run_online(
                6,
                &[
                    outage(0),
                    ClusterEvent::Resize {
                        at_iter: 2,
                        servers: 1,
                    },
                    outage(4),
                ],
            )
            .unwrap();
        assert_eq!(r.splices.len(), 3);
        assert_eq!(
            [
                r.splices[0].at_iter,
                r.splices[1].at_iter,
                r.splices[2].at_iter
            ],
            [0, 2, 4]
        );
        // Iteration 3 runs the plan spliced by the Resize recovery: the
        // reservation is back at the baseline and goodput returns exactly
        // to the pre-outage level.
        assert_eq!(
            r.per_iter[3], healthy,
            "post-recovery iteration must match the pre-outage engine"
        );
        // The second outage then tightens *from the baseline*, not from the
        // already-degraded value: after the full sequence the reservation
        // equals exactly one outage's worth of degradation.
        let budget_at_baseline = EngineConfig::single_server()
            .with_gpu_reserved(baseline)
            .gpu_budget();
        assert_eq!(
            e.config().gpu_reserved,
            baseline + budget_at_baseline / 16,
            "resize must restore the baseline before the next outage tightens"
        );
    }

    #[test]
    fn total_server_loss_is_a_typed_error() {
        // Regression: `saturating_sub(servers).max(1)` used to resplice a
        // fully-destroyed fleet onto 1 phantom server. Losing every server
        // must surface as ClusterExhausted, not a silent 1-server replan.
        let mut e = Engine::initialize(&tiny_model(), &EngineConfig::servers(2)).unwrap();
        let err = e
            .run_online(
                3,
                &[ClusterEvent::ServerLoss {
                    at_iter: 0,
                    servers: 2,
                    at_ns: 0,
                }],
            )
            .unwrap_err();
        assert_eq!(
            err,
            Error::ClusterExhausted {
                had_servers: 2,
                lost_servers: 2,
            }
        );
        // The engine keeps its last good plan (still 2 servers configured).
        assert_eq!(e.config().cluster.num_servers, 2);
        // Over-loss (more servers reported lost than exist) is exhaustion
        // too, and it is detected even on the final iteration, where no
        // replanning boundary follows.
        let mut e = Engine::initialize(&tiny_model(), &EngineConfig::servers(2)).unwrap();
        let err = e
            .run_online(
                1,
                &[ClusterEvent::ServerLoss {
                    at_iter: 0,
                    servers: 5,
                    at_ns: 0,
                }],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            Error::ClusterExhausted {
                lost_servers: 5,
                ..
            }
        ));
    }

    #[test]
    fn splice_resize_grows_and_shrinks_a_session() {
        // The service's elasticity primitive: resize to a bigger slice,
        // then back; the spliced engine matches a fresh one at each size.
        let mut e = Engine::initialize(&tiny_model(), &EngineConfig::single_server()).unwrap();
        let s1 = e.train_iteration();
        let grown = e.splice_resize(0, 2).unwrap();
        assert_eq!(grown.servers, 2);
        // A splice is a fresh plan: nothing reused.
        assert_eq!(
            grown.outcome,
            SpliceOutcome::from_scratch(grown.outcome.layers_touched)
        );
        assert!(grown.outcome.layers_touched > 0);
        let s2 = e.train_iteration();
        let fresh2 = Engine::initialize(&tiny_model(), &EngineConfig::servers(2))
            .unwrap()
            .train_iteration();
        assert_eq!(s2, fresh2, "spliced session must match a fresh engine");
        assert_eq!(e.config().global_batch(), 16); // dp refit onto 16 GPUs
        let shrunk = e.splice_resize(1, 1).unwrap();
        assert_eq!(shrunk.servers, 1);
        assert_eq!(e.train_iteration(), s1);
        // An infeasible resize leaves the session runnable at its size.
        assert!(e.splice_resize(2, 0).is_err());
        assert_eq!(e.config().cluster.num_servers, 1);
        assert_eq!(e.train_iteration(), s1);
    }

    #[test]
    fn ppm_conversion_is_checked() {
        assert_eq!(ppm_u64(0.5), 500_000);
        assert_eq!(ppm_u64(1.0), 1_000_000);
        assert_eq!(ppm_u64(0.0), 0);
        assert_eq!(ppm_u64(-3.0), 0);
        assert_eq!(ppm_u64(f64::NAN), 0);
        assert_eq!(ppm_u64(f64::INFINITY), u64::MAX);
        assert_eq!(ppm_u64(1e300), u64::MAX);
        assert_eq!(saturating_ns(42), 42);
        assert_eq!(saturating_ns(u128::MAX), u64::MAX);
        // Bucket edges are exact powers of ten in integer arithmetic.
        for w in ITER_TIME_BUCKETS_NS.windows(2) {
            assert_eq!(w[1], w[0] * 10);
        }
        assert_eq!(ITER_TIME_BUCKETS_NS[0], 1_000_000);
    }

    #[test]
    fn max_layers_monotone_in_memory() {
        let base = TransformerConfig::gpt3_28b();
        let small_cfg = EngineConfig::single_server();
        let mut big_host = EngineConfig::single_server();
        big_host.host_policy.usable_fraction = 0.95;
        let a = Engine::max_layers(&base, &small_cfg);
        let b = Engine::max_layers(&base, &big_host);
        assert!(b >= a);
        assert!(a > 0);
    }
}
