//! End-to-end and per-layer benchmark of the planner, engine and service.
//!
//! Three workloads drive the public API: `plan-sweep` (certified-plan
//! requests), `train-online` (one long-lived engine under cluster events)
//! and `service-mix` (open-loop submissions into the control plane). An
//! untraced run prints the end-to-end metrics; a traced run times the calls
//! into each layer from this crate and prints the per-layer metrics. See
//! `README.md` in this directory.

pub mod heap;
pub mod metrics;
pub mod plan_sweep;
pub mod service_mix;
pub mod tracer;
pub mod train_online;
pub mod util;

use std::time::Instant;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

pub const WORKLOADS: &[&str] = &["plan-sweep", "train-online", "service-mix"];

/// How long a run measures and whether it traces.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Units (cycles, iterations, episodes) always run, whatever the time.
    pub min_units: usize,
    /// Units never exceeded (tests pin a run to an exact size).
    pub max_units: usize,
}

impl Opts {
    pub fn timed(seed: u64, seconds: f64, traced: bool) -> Self {
        Self {
            seed,
            seconds,
            traced,
            min_units: 0,
            max_units: usize::MAX,
        }
    }

    /// Exactly `units` units, untimed.
    pub fn fixed(seed: u64, units: usize, traced: bool) -> Self {
        Self {
            seed,
            seconds: 0.0,
            traced,
            min_units: units,
            max_units: units,
        }
    }

    /// Whether to start another unit after `done` units.
    pub fn more(&self, done: usize, since: Instant) -> bool {
        done < self.max_units
            && (done < self.min_units || since.elapsed().as_secs_f64() < self.seconds)
    }
}

pub fn run(workload: &str, opts: &Opts) -> Option<metrics::Outcome> {
    match workload {
        "plan-sweep" => Some(plan_sweep::run(&Opts {
            min_units: opts.min_units.max(plan_sweep::MIN_CYCLES),
            ..opts.clone()
        })),
        "train-online" => Some(train_online::run(&Opts {
            min_units: opts.min_units.max(train_online::MIN_ITERS),
            ..opts.clone()
        })),
        "service-mix" => Some(service_mix::run(&Opts {
            min_units: opts.min_units.max(service_mix::MIN_EPISODES),
            ..opts.clone()
        })),
        _ => None,
    }
}
