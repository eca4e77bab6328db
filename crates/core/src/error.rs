//! Error types for the Angel-PTM core.

use angel_hw::DeviceId;
use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Which [`crate::lockfree::StateStore`] operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    Fetch,
    Offload,
}

impl fmt::Display for StoreOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreOp::Fetch => write!(f, "fetch"),
            StoreOp::Offload => write!(f, "offload"),
        }
    }
}

/// How a [`crate::lockfree::StateStore`] operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreErrorKind {
    /// Transient I/O fault (EIO, timeout, checksum mismatch): a retry of the
    /// same operation may succeed.
    Transient,
    /// Permanent fault: the layer's backing storage is gone (dead device,
    /// invariant violation) and no retry will succeed.
    Permanent,
}

/// A failed state-store operation on the lock-free update path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    pub layer: usize,
    pub op: StoreOp,
    pub kind: StoreErrorKind,
    /// Human-readable cause (e.g. which injector fired).
    pub detail: &'static str,
}

impl StoreError {
    pub fn transient(layer: usize, op: StoreOp, detail: &'static str) -> Self {
        Self {
            layer,
            op,
            kind: StoreErrorKind::Transient,
            detail,
        }
    }

    pub fn permanent(layer: usize, op: StoreOp, detail: &'static str) -> Self {
        Self {
            layer,
            op,
            kind: StoreErrorKind::Permanent,
            detail,
        }
    }

    pub fn is_transient(&self) -> bool {
        self.kind == StoreErrorKind::Transient
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            StoreErrorKind::Transient => "transient",
            StoreErrorKind::Permanent => "permanent",
        };
        write!(
            f,
            "{kind} store error during {} of layer {}: {}",
            self.op, self.layer, self.detail
        )
    }
}

impl std::error::Error for StoreError {}

/// Terminal failures of the lock-free trainer itself (as opposed to
/// per-layer store faults, which the trainer degrades around).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainerError {
    /// A store operation failed permanently while extracting final state.
    Store(StoreError),
    /// A worker thread panicked; its state (and the store it owned) is lost.
    WorkerPanicked { thread: &'static str },
}

impl fmt::Display for TrainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainerError::Store(e) => write!(f, "{e}"),
            TrainerError::WorkerPanicked { thread } => {
                write!(f, "lock-free worker thread '{thread}' panicked")
            }
        }
    }
}

impl std::error::Error for TrainerError {}

impl From<StoreError> for TrainerError {
    fn from(e: StoreError) -> Self {
        TrainerError::Store(e)
    }
}

/// The per-rank or per-server memory budget a placement overflowed — the
/// tier a [`Error::ModelTooLarge`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapacityTier {
    /// One server's pinned lock-free FP16 buffers (Algorithm 2), capped at
    /// 60% of its host memory.
    PinnedBuffers,
    /// One rank's share of the host page pool.
    CpuPool,
}

impl fmt::Display for CapacityTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapacityTier::PinnedBuffers => write!(f, "per-server pinned lock-free buffers"),
            CapacityTier::CpuPool => write!(f, "per-rank CPU page pool"),
        }
    }
}

/// Everything that can go wrong in memory management and scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A device's page pool is exhausted.
    OutOfPages {
        device: DeviceId,
        requested_pages: usize,
        free_pages: usize,
    },
    /// The model cannot be placed on the configured hardware: its states
    /// overflow `tier`, which needed `needed_bytes` but holds only
    /// `available_bytes`. `usable_bytes` is the whole hierarchy's usable
    /// capacity (GPU + CPU pool + SSD, all ranks) for context; a model can
    /// overflow one tier while far below it. When the closed-form capacity
    /// precheck ([`crate::MemoryPlan::precheck`]) rejects the model before
    /// any schedule exists, `needed_bytes` is a lower bound: the CPU-pool
    /// need with the GPU holding as much as any schedule could let it.
    ModelTooLarge {
        state_bytes: u64,
        usable_bytes: u64,
        tier: CapacityTier,
        needed_bytes: u64,
        available_bytes: u64,
    },
    /// The per-layer working set exceeds a single GPU's memory, so no
    /// schedule exists (even fully serialized).
    WorkingSetTooLarge { layer_bytes: u64, gpu_bytes: u64 },
    /// A tensor id was used before allocation or after release.
    UnknownTensor(usize),
    /// An operation was applied to a tensor on the wrong device.
    WrongDevice {
        expected: Option<DeviceId>,
        actual: Option<DeviceId>,
    },
    /// Page-level invariant violation (caller bug surfaced as error in
    /// release builds where debug_asserts are off).
    PageInvariant(&'static str),
    /// [`crate::Communicator::task_id`] was asked for a collective that was
    /// never flushed to the channel — a plan bug (a consumer wired to an
    /// unsubmitted gather) that should surface as a plan error, not abort
    /// the simulation.
    UnflushedCollective { handle: usize },
    /// A [`crate::ParallelismPlan`] cannot be laid onto the configured
    /// cluster (axis product ≠ GPU count, TP spilling out of the NVLink
    /// domain, invalid ZeRO stage, ...).
    InvalidParallelism(String),
    /// `add_pool` was asked to re-register a pool that still holds live
    /// tensors. Silently replacing it would zero `used_pages`/`tenant_bytes`
    /// under the residents and corrupt every stat and gauge afterwards.
    PoolInUse { device: DeviceId, used_pages: usize },
    /// A [`crate::scheduler::SchedulerInput`] is malformed: an empty model,
    /// a step naming a missing layer, or a layer with no compute step.
    /// [`crate::UnifiedScheduler::schedule`] rejects it before planning.
    BadSchedulerInput(&'static str),
    /// A [`crate::ClusterEvent::ServerLoss`] destroyed the entire fleet:
    /// no server survives to replan onto. Earlier versions silently
    /// respliced onto one phantom server; total loss is terminal and must
    /// surface to the caller (the engine keeps its last good plan, but no
    /// further iteration can run for real).
    ClusterExhausted {
        /// Servers the fleet held before the fatal event.
        had_servers: usize,
        /// Servers the event removed (≥ `had_servers`).
        lost_servers: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::OutOfPages {
                device,
                requested_pages,
                free_pages,
            } => write!(
                f,
                "out of pages on {device}: requested {requested_pages}, {free_pages} free"
            ),
            Error::ModelTooLarge {
                state_bytes,
                usable_bytes,
                tier,
                needed_bytes,
                available_bytes,
            } => write!(
                f,
                "model states ({}) do not fit: the {tier} needs {} but holds {} \
                 (whole hierarchy: {} usable)",
                angel_hw::fmt_bytes(*state_bytes),
                angel_hw::fmt_bytes(*needed_bytes),
                angel_hw::fmt_bytes(*available_bytes),
                angel_hw::fmt_bytes(*usable_bytes)
            ),
            Error::WorkingSetTooLarge {
                layer_bytes,
                gpu_bytes,
            } => write!(
                f,
                "per-layer working set ({}) exceeds GPU memory ({})",
                angel_hw::fmt_bytes(*layer_bytes),
                angel_hw::fmt_bytes(*gpu_bytes)
            ),
            Error::UnknownTensor(id) => write!(f, "unknown tensor id {id}"),
            Error::WrongDevice { expected, actual } => {
                write!(f, "wrong device: expected {expected:?}, found {actual:?}")
            }
            Error::PageInvariant(msg) => write!(f, "page invariant violated: {msg}"),
            Error::UnflushedCollective { handle } => write!(
                f,
                "collective handle {handle} was never flushed to the channel"
            ),
            Error::InvalidParallelism(msg) => write!(f, "invalid parallelism plan: {msg}"),
            Error::PoolInUse { device, used_pages } => write!(
                f,
                "pool on {device} still holds {used_pages} used page(s); release its tensors before re-registering"
            ),
            Error::BadSchedulerInput(msg) => write!(f, "bad scheduler input: {msg}"),
            Error::ClusterExhausted {
                had_servers,
                lost_servers,
            } => write!(
                f,
                "cluster exhausted: lost {lost_servers} of {had_servers} server(s), none survive to replan onto"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Error::OutOfPages {
            device: DeviceId::gpu(0),
            requested_pages: 10,
            free_pages: 2,
        };
        assert!(e.to_string().contains("GPU0"));
        let e = Error::ModelTooLarge {
            state_bytes: 1 << 40,
            usable_bytes: 1 << 30,
            tier: CapacityTier::CpuPool,
            needed_bytes: 3 << 30,
            available_bytes: 2 << 30,
        };
        assert!(e.to_string().contains("1.00 TiB"));
        assert!(e
            .to_string()
            .contains("per-rank CPU page pool needs 3.00 GiB but holds 2.00 GiB"));
        let e = Error::UnknownTensor(7);
        assert!(e.to_string().contains('7'));
        let e = Error::UnflushedCollective { handle: 3 };
        assert!(e.to_string().contains("handle 3"));
        let e = Error::InvalidParallelism("dp × tp mismatch".into());
        assert!(e.to_string().contains("dp × tp mismatch"));
        let e = Error::PoolInUse {
            device: DeviceId::CPU,
            used_pages: 4,
        };
        assert!(e.to_string().contains("CPU"));
        assert!(e.to_string().contains("4 used page"));
        let e = Error::ClusterExhausted {
            had_servers: 2,
            lost_servers: 3,
        };
        assert!(e.to_string().contains("lost 3 of 2"));
        assert!(e.to_string().contains("none survive"));
    }

    #[test]
    fn store_error_display_and_kind() {
        let e = StoreError::transient(3, StoreOp::Fetch, "injected EIO");
        assert!(e.is_transient());
        assert!(e.to_string().contains("transient"));
        assert!(e.to_string().contains("fetch"));
        assert!(e.to_string().contains("layer 3"));
        let p = StoreError::permanent(1, StoreOp::Offload, "device gone");
        assert!(!p.is_transient());
        let t: TrainerError = p.into();
        assert!(t.to_string().contains("offload"));
        let w = TrainerError::WorkerPanicked { thread: "updating" };
        assert!(w.to_string().contains("updating"));
    }
}
