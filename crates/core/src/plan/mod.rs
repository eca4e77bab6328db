//! The staged planning pipeline behind [`crate::Engine::initialize`].
//!
//! Initialization is a composition of five individually-testable stages,
//! each producing a plain data product consumed by the next:
//!
//! ```text
//!   Trace ──▶ Shard ──▶ Place ──▶ Schedule ──▶ Lower
//!   (§5)      (§3.2)    (§4.1/4.2) (Alg. 1)     (§5)
//! ```
//!
//! * [`TracePlan`] — one symbolic iteration over the model yields every
//!   tensor's access pattern and lifetime (paper Section 5, the Tracer),
//!   plus the ZeRO partition geometry.
//! * [`ShardPlan`] — ZeRO and expert-parallel byte accounting: per-layer
//!   shard pages, working sets and collective volumes, assembled into the
//!   [`crate::scheduler::SchedulerInput`] (Section 3.2; Section 6.4 for
//!   MoE expert parallelism).
//! * [`MemoryPlan`] — the hierarchical-memory budgets of Section 4.1/4.2:
//!   host pool vs. pinned lock-free buffers, SSD share, GPU budget — and
//!   the capacity invariants that reject oversized models. Its closed-form
//!   [`MemoryPlan::precheck`] runs ahead of every stage, so a model that
//!   cannot fit is rejected before it is traced.
//! * [`SchedulePlan`] — the Unified Scheduler (Algorithm 1) run over the
//!   shard plan, plus the dynamic GPU cache sizing (Section 4.2).
//! * [`Lowering`] — turns a schedule and a placement into an `angel-sim`
//!   task graph (Section 5's Executor/Communicator streams). The same
//!   surface lowers the baselines (DeepSpeed's static partition,
//!   Megatron's 1F1B pipeline), so every system is measured on identical
//!   simulated hardware through identical primitives.

pub mod lower;
pub mod memory;
pub mod parallel;
pub mod schedule;
pub mod shard;
pub mod trace;

pub use lower::{
    checkpoint_restore_graph, checkpoint_write_graph, lower_checkpoint, lower_schedule,
    CheckpointLowering, FaultTarget, LoweredIteration, Lowering, LoweringConfig, ScheduleLowering,
};
pub use memory::{MemoryPlan, Placement, PlacementPlan};
pub use parallel::{ParallelismPlan, ZeroStage};
pub use schedule::SchedulePlan;
pub use shard::{RankTotals, ShardPlan};
pub use trace::TracePlan;
