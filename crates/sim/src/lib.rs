//! Discrete-event execution substrate for the Angel-PTM reproduction.
//!
//! Angel-PTM's Unified Scheduler emits *schedules*: ordered lists of tasks —
//! page movements, all-gathers, layer computations, optimizer updates — each
//! bound to a hardware resource (a CUDA stream, a PCIe channel, the NIC, the
//! SSD). On the real system those schedules execute on A100 servers; here
//! they execute on a discrete-event simulator with the same interface:
//! per-resource FIFO streams (CUDA-stream semantics), task dependencies, and
//! calibrated durations derived from the Table 3 bandwidths and a FLOPs
//! model.
//!
//! The simulator reports exactly the quantities the paper's evaluation
//! measures: end-to-end iteration time (→ samples/s), per-resource busy time
//! (→ GPU utilization, the Section 4.3 "80% idle" observation), overlap
//! ratios, and peak memory per device.
//!
//! * [`engine`] — event queue, FIFO resources, the schedule executor;
//! * [`compute`] — time models for GPU compute and CPU optimizer updates;
//! * [`collectives`] — analytic cost models for ring all-gather /
//!   reduce-scatter / all-reduce and MoE all-to-all.

// Unit tests keep panicking assertions; library code is covered by the
// workspace-wide unwrap/expect ban (clippy.toml disallowed-methods).
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod collectives;
pub mod compute;
pub mod engine;
pub mod trace;

pub use engine::{
    Access, AccessMode, ExecutionReport, FaultEvent, FaultKind, MemDomainId, MemEffect, ObjectId,
    ResourceId, Resources, SimTask, Simulation, Work,
};
pub use trace::{counter_events, resource_tid, trace_events};

/// Nanoseconds — the simulator's clock unit.
pub type Ns = u64;

/// Convert nanoseconds to seconds for reports.
pub fn ns_to_s(ns: Ns) -> f64 {
    ns as f64 / 1e9
}
