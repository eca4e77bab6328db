//! Splice-soundness of the online replanning loop.
#![allow(clippy::disallowed_methods)] // test harness: failing loudly is the job
//!
//! The guarantee under test: when [`Engine::run_online`] splices a new plan
//! in at an iteration boundary, every iteration after the boundary is
//! **byte-identical** to what a fresh engine initialized at the new
//! configuration would run — no task from the abandoned tail of the old
//! plan executes, no stale trigger slot survives. A splice is a fresh plan
//! of the new input, and `UnifiedScheduler::schedule` is proven
//! byte-identical to the per-page oracle (see the scheduler's
//! `optimized_schedule_matches_oracle` proptest), so splice soundness
//! reduces to plan equality, which these tests check on the schedules and
//! the deterministic per-iteration statistics.

use angel_core::{ClusterEvent, Engine, EngineConfig, FaultTarget, IterStats};
use angel_model::TransformerConfig;

fn tiny() -> TransformerConfig {
    TransformerConfig::gpt3_1_7b()
        .with_layers(4)
        .with_seq_len(256)
}

/// All IterStats fields derive from the same u64 simulation outputs, so
/// spliced-vs-fresh equality is exact, not approximate.
fn assert_identical_iter(a: &IterStats, b: &IterStats) {
    assert_eq!(a, b, "spliced iteration differs from fresh engine");
}

#[test]
fn resize_splice_matches_a_fresh_engine_at_the_new_size() {
    let mut spliced = Engine::initialize(&tiny(), &EngineConfig::servers(2)).unwrap();
    let report = spliced
        .run_online(
            3,
            &[ClusterEvent::Resize {
                at_iter: 0,
                servers: 1,
            }],
        )
        .unwrap();
    assert_eq!(report.splices.len(), 1);
    assert_eq!(report.splices[0].at_iter, 0);
    assert_eq!(report.splices[0].servers, 1);

    let mut fresh = Engine::initialize(&tiny(), &EngineConfig::servers(1)).unwrap();
    let fresh_iter = fresh.train_iteration();
    // Every post-splice iteration equals the fresh single-server iteration.
    assert_identical_iter(&report.per_iter[1], &fresh_iter);
    assert_identical_iter(&report.per_iter[2], &fresh_iter);
    // And the spliced plan itself is the fresh plan: identical task lists
    // and trigger layout — nothing of the two-server tail remains.
    assert_eq!(spliced.schedule().tasks, fresh.schedule().tasks);
    assert_eq!(
        spliced.schedule().trigger_offsets,
        fresh.schedule().trigger_offsets
    );
    assert_eq!(spliced.schedule().stats, fresh.schedule().stats);
    assert_eq!(spliced.config().parallelism, fresh.config().parallelism);
}

#[test]
fn server_loss_splice_runs_clean_after_the_boundary() {
    let mut spliced = Engine::initialize(&tiny(), &EngineConfig::servers(2)).unwrap();
    let report = spliced
        .run_online(
            2,
            &[ClusterEvent::ServerLoss {
                at_iter: 0,
                servers: 1,
                at_ns: 0,
            }],
        )
        .unwrap();
    // The loss iteration strands the collective chain…
    assert!(report.per_iter[0].tasks_failed > 0);
    // …but after the splice the degraded fleet runs the fresh single-server
    // plan, byte-identical to an engine that never saw two servers.
    let fresh_iter = Engine::initialize(&tiny(), &EngineConfig::servers(1))
        .unwrap()
        .train_iteration();
    assert_eq!(report.per_iter[1].tasks_failed, 0);
    assert_identical_iter(&report.per_iter[1], &fresh_iter);
    // Debug builds re-verified the spliced lowering (plan graph + SPMD).
    if cfg!(debug_assertions) {
        assert!(report.splices[0].verified);
    }
}

#[test]
fn outage_splice_replans_under_a_tightened_budget_and_stays_sound() {
    let mut spliced = Engine::initialize(&tiny(), &EngineConfig::single_server()).unwrap();
    let reserved = spliced.config().gpu_reserved;
    let report = spliced
        .run_online(
            3,
            &[ClusterEvent::Outage {
                at_iter: 0,
                target: FaultTarget::H2d,
                at_ns: 0,
                duration_ns: 1_000_000,
            }],
        )
        .unwrap();
    assert_eq!(report.splices.len(), 1);
    let tightened = spliced.config().gpu_reserved;
    assert!(tightened > reserved);
    // The post-splice iterations match a fresh engine at the tightened
    // budget exactly.
    let mut cfg = EngineConfig::single_server();
    cfg.gpu_reserved = tightened;
    let fresh_iter = Engine::initialize(&tiny(), &cfg).unwrap().train_iteration();
    assert_identical_iter(&report.per_iter[1], &fresh_iter);
    assert_identical_iter(&report.per_iter[2], &fresh_iter);
}
