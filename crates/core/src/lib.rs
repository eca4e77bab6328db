//! # Angel-PTM core — the paper's contribution, implemented for real
//!
//! This crate implements the central designs of *Angel-PTM: A Scalable and
//! Economical Large-scale Pre-training System in Tencent* (VLDB 2023):
//!
//! * the **Page abstraction** ([`page`], Figure 3 of the paper): the minimum
//!   unit of memory operations across hierarchical storage — allocation,
//!   release, movement and remote communication — with at most two tensors
//!   per page and a default page size of 4 MiB (the smallest transfer that
//!   saturates PCIe);
//! * **page-level tensor management** ([`tensor`], Figure 4) and the
//!   pre-allocated, pooled **page allocator** ([`allocator`]) that eliminates
//!   the fragmentation of per-tensor and chunk-based schemes;
//! * the **Tracer** ([`tracer`], Section 5): replays one symbolic training
//!   iteration to obtain every tensor's access pattern and life-time
//!   (`tensor_id`, `first_id`, `end_id`, `cpu_time`, `gpu_time`);
//! * the **Unified Scheduler** ([`scheduler`], Algorithm 1): fine-grained
//!   life-time based scheduling that prioritises `move_to_gpu` page tasks,
//!   evicts under memory pressure through a wait-stack, and advances
//!   all-gathers to overlap with earlier computation whenever peak memory
//!   allows;
//! * **ZeRO-style parameter sharding** ([`zero`], Section 3.2) with
//!   parallelised PCIe movement across GPUs (Section 5, "Efficient Movement
//!   on Distributed Servers");
//! * the **dynamic GPU cache** ([`cache`], Section 4.2): spare GPU memory
//!   holds hot optimizer-state pages and their updates run on the GPU;
//! * the **Lock-Free Updating Mechanism** ([`lockfree`], Algorithm 2): real
//!   threads — a CPU updating thread, a CPU buffering thread and the
//!   training loop — decoupled through FP16 parameter/gradient buffers so
//!   SSD-bound optimizer updates never block GPU computation;
//! * the **planning pipeline** ([`plan`]): five explicit stages shared by
//!   the Engine and every baseline —
//!
//!   ```text
//!   Trace ──▶ Shard ──▶ Place ──▶ Schedule ──▶ Lower
//!   (§5      (§3.2     (§4.1/4.2  (Alg. 1 +    (§5 Executor/
//!    Tracer)  ZeRO+EP)  heuristic)  §4.2 cache)  Communicator)
//!   ```
//!
//! * the **Engine** ([`engine`]): the user-facing API in the spirit of the
//!   paper's Figure 6 (`initialize` → `forward/backward/step`), a thin
//!   composition of those pipeline stages that runs the lowered iteration
//!   on the `angel-sim` discrete-event hardware model and reports iteration
//!   times, utilization and memory peaks.
//!
//! Hardware (GPUs, PCIe, NVLink, NICs, SSD) is simulated with the calibrated
//! Table 3 parameters — see DESIGN.md for the substitution argument — but
//! all memory-management and scheduling logic here is the real algorithm
//! operating on real data structures, and the lock-free mechanism moves real
//! bytes between real threads.
//!
//! ## Quickstart
//!
//! ```
//! use angel_core::{Engine, EngineConfig};
//! use angel_model::TransformerConfig;
//!
//! // A small GPT on one simulated A100 server.
//! let model = TransformerConfig::gpt3_1_7b();
//! let config = EngineConfig::single_server().with_batch_size(8);
//! let mut engine = Engine::initialize(&model, &config).expect("model fits");
//! let stats = engine.train_iteration();
//! assert!(stats.samples_per_sec > 0.0);
//! ```

// Unit tests keep panicking assertions; library code is covered by the
// workspace-wide unwrap/expect ban (clippy.toml disallowed-methods).
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod allocator;
pub mod cache;
pub mod communicator;
pub mod config;
pub mod engine;
pub mod error;
pub mod executor;
pub mod fault;
pub mod lockfree;
pub mod obs;
pub mod page;
pub mod plan;
pub mod recovery;
#[cfg(test)]
#[path = "replan_tests.rs"]
mod replan;
pub mod scheduler;
pub mod seqtree;
pub mod sync;
pub mod tensor;
pub mod tracer;
pub mod verify;
pub mod zero;

pub use allocator::{CompactionReport, PageAllocator, PoolStats};
pub use communicator::{CommGroup, CommKind, CommRecord, Communicator, GroupSpec};
pub use config::EngineConfig;
pub use engine::{
    ClusterEvent, Engine, IterStats, OnlineReport, RunReport, SpliceOutcome, SpliceReport,
};
pub use error::{CapacityTier, Error, Result, StoreError, StoreErrorKind, StoreOp, TrainerError};
pub use executor::{Executor, Stream};
pub use fault::{FaultCounters, FaultPlan, FaultyStore};
pub use obs::{MetricsSnapshot, ObsEvent, ObsThread, Recorder};
pub use page::{Page, PageId, PAGE_SIZE_DEFAULT};
pub use plan::{
    lower_schedule, FaultTarget, Lowering, LoweringConfig, MemoryPlan, ParallelismPlan, Placement,
    SchedulePlan, ShardPlan, TracePlan, ZeroStage,
};
pub use scheduler::{ScheduleTask, TaskOp, UnifiedScheduler};
pub use tensor::{Tensor, TensorId};
pub use tracer::{TensorTrace, Tracer};
pub use verify::{PlanGraph, PlanReport, SpmdReport, SpmdTrace};
