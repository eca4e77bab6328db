//! SPMD verification integration: real engine lowerings project onto their
//! device meshes and certify; each planted mutation class (reordered
//! collective, dropped group member, crossed dp/pp bytes, hoisted pp-recv
//! deadlock) is caught; and a property sweep over random cluster shapes
//! and plan factorizations shows no false positives — every plan
//! `lower_schedule` produces certifies, and its simulation completes.

use angel_core::plan::{ParallelismPlan, ZeroStage};
use angel_core::verify::spmd::{EventSite, SpmdTrace};
use angel_core::{CommKind, CommRecord, Engine, EngineConfig};
use angel_hw::DeviceMesh;
use angel_integration::small_gpt;

/// An engine on one server with a dp=2 × pp=2 × tp=2 mesh — small enough
/// to project every rank, rich enough to exercise all three channels.
fn meshed_engine() -> (Engine, DeviceMesh) {
    let model = small_gpt().with_layers(8);
    let plan = ParallelismPlan {
        dp: 2,
        tp: 2,
        pp: 2,
        zero_stage: ZeroStage::Full,
    };
    let config = EngineConfig::single_server()
        .with_batch_size(2)
        .with_parallelism(plan);
    let mesh = config.device_mesh().expect("plan factors one server");
    let engine = Engine::initialize(&model, &config).expect("mesh plan initializes");
    (engine, mesh)
}

fn journal(engine: &Engine) -> Vec<CommRecord> {
    engine.lower_iteration().comm_log
}

/// Index of the first event on `rank`'s program matching `pred`.
fn find(trace: &SpmdTrace, rank: usize, pred: impl Fn(&EventSite, CommKind) -> bool) -> usize {
    trace
        .program(rank)
        .iter()
        .position(|e| pred(&e.site, e.kind))
        .expect("event present in projected program")
}

#[test]
fn engine_lowering_certifies_full_and_reduced() {
    let (engine, mesh) = meshed_engine();
    let log = journal(&engine);
    let full = SpmdTrace::project_full(&log, &mesh).verify();
    full.assert_certified("meshed engine (full)");
    assert_eq!(full.ranks_checked, 8);
    let reduced = SpmdTrace::project_reduced(&log, &mesh).verify();
    reduced.assert_certified("meshed engine (reduced)");
    assert_eq!(reduced.ranks_checked, mesh.pp());
    assert!(reduced.reduced);
    // The engine's own surface agrees.
    let report = engine.verify_spmd().expect("mesh exists");
    assert!(report.is_certified());
}

/// Mutation class 1 — reordered collective: one rank issues its two
/// dp-channel collectives of a step pair in swapped order. Its dp group
/// sequence diverges from every peer's and matching reports the site.
#[test]
fn reordered_dp_collective_is_caught() {
    let (engine, mesh) = meshed_engine();
    let mut trace = SpmdTrace::project_full(&journal(&engine), &mesh);
    let is_dp = |s: &EventSite| {
        matches!(
            s,
            EventSite::Group {
                group: angel_core::CommGroup::Dp,
                ..
            }
        )
    };
    let first = find(&trace, 3, |s, _| is_dp(s));
    // The backward half's dp traffic (reduce-scatter) differs from the
    // forward gathers, so swapping across the halves must be visible.
    let last = trace.program(3).len()
        - 1
        - trace
            .program(3)
            .iter()
            .rev()
            .position(|e| is_dp(&e.site))
            .expect("dp event");
    assert_ne!(first, last);
    trace.swap_events(3, first, last);
    let report = trace.verify();
    assert!(!report.is_certified());
    assert!(
        report.mismatches.iter().any(|m| m.site.starts_with("dp")),
        "expected a dp sequence mismatch:\n{}",
        report.describe()
    );
}

/// Mutation class 2 — dropped group member: one rank skips a tp
/// all-reduce its NVLink peer still blocks on.
#[test]
fn dropped_tp_member_is_caught() {
    let (engine, mesh) = meshed_engine();
    let mut trace = SpmdTrace::project_full(&journal(&engine), &mesh);
    let i = find(&trace, 5, |s, _| {
        matches!(
            s,
            EventSite::Group {
                group: angel_core::CommGroup::Tp,
                ..
            }
        )
    });
    trace.remove_event(5, i);
    let report = trace.verify();
    assert!(!report.is_certified());
    assert!(
        report.mismatches.iter().any(|m| m.site.starts_with("tp")),
        "expected a tp count mismatch:\n{}",
        report.describe()
    );
}

/// Mutation class 3 — crossed bytes: a dp gather on one rank priced with
/// the pp boundary payload. Caught as a byte mismatch at the exact site.
#[test]
fn crossed_dp_pp_bytes_are_caught() {
    let (engine, mesh) = meshed_engine();
    let log = journal(&engine);
    let pp_bytes = log
        .iter()
        .find(|r| r.kind == CommKind::P2pSend)
        .expect("pp boundary present")
        .bytes;
    let mut trace = SpmdTrace::project_full(&log, &mesh);
    let i = find(&trace, 6, |s, _| {
        matches!(
            s,
            EventSite::Group {
                group: angel_core::CommGroup::Dp,
                ..
            }
        )
    });
    assert_ne!(trace.program(6)[i].bytes, pp_bytes);
    trace.set_bytes(6, i, pp_bytes);
    let report = trace.verify();
    assert!(!report.is_certified());
    assert!(
        report
            .mismatches
            .iter()
            .any(|m| m.reason.contains(&pp_bytes.to_string())),
        "mismatch must cite the crossed byte count:\n{}",
        report.describe()
    );
}

/// Mutation class 4 — pp/tp interleaving deadlock: stage 0's gradient
/// recv hoisted above the tp all-reduce (and its own activation send).
/// Rank 0 then waits on stage 1's final send while stage 1's first recv
/// waits on rank 0's send — a genuine cross-rank wait-for cycle, which
/// the wait-for graph reports (with the tp peer stalled behind it).
#[test]
fn hoisted_pp_recv_deadlock_cycle_is_caught() {
    let (engine, mesh) = meshed_engine();
    let mut trace = SpmdTrace::project_full(&journal(&engine), &mesh);
    let send = find(&trace, 0, |s, _| matches!(s, EventSite::Send { .. }));
    let recv = find(&trace, 0, |s, _| matches!(s, EventSite::Recv { .. }));
    assert_eq!(recv, send + 1, "boundary handshake is contiguous");
    // The event before the send is the last forward tp all-reduce.
    assert!(matches!(
        trace.program(0)[send - 1].site,
        EventSite::Group {
            group: angel_core::CommGroup::Tp,
            ..
        }
    ));
    trace.swap_events(0, send - 1, recv);
    let report = trace.verify();
    let deadlock = report.deadlock.as_ref().expect("deadlock expected");
    assert!(
        !deadlock.cycle.is_empty(),
        "a true wait-for cycle, not an orphan stall:\n{}",
        report.describe()
    );
    let cycle_ranks: Vec<usize> = deadlock.cycle.iter().map(|w| w.rank).collect();
    assert!(cycle_ranks.contains(&0), "{cycle_ranks:?}");
    let downstream = mesh.pp_neighbors(0).1.expect("stage 0 has a successor");
    assert!(cycle_ranks.contains(&downstream), "{cycle_ranks:?}");
    // The tp peer is collateral damage: stalled, but not part of the cycle.
    assert!(deadlock.stalled.iter().any(|w| w.rank == 1));
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Valid (servers, dp, pp, tp, zero) configurations: tp within the
    /// NVLink domain, pp dividing what remains, dp taking the rest.
    fn plans() -> impl Strategy<Value = (usize, ParallelismPlan)> {
        (1usize..5, 0usize..3, 0usize..3, 0u8..3).prop_map(|(servers, tp_pow, pp_pow, zero)| {
            let gpus = servers * 8;
            let tp = 1 << tp_pow; // 1, 2, 4 — always divides a server's 8
            let pp = (1 << pp_pow).min(gpus / tp);
            let dp = gpus / (tp * pp);
            let zero_stage = match zero {
                0 => ZeroStage::None,
                1 => ZeroStage::Optimizer,
                _ => ZeroStage::Full,
            };
            (
                servers,
                ParallelismPlan {
                    dp,
                    tp,
                    pp,
                    zero_stage,
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// No false positives: every plan `lower_schedule` produces over a
        /// random cluster shape certifies — exhaustively on the full rank
        /// set and under symmetry reduction — and its single-rank
        /// simulation completes (certified plans never deadlock in the
        /// simulator).
        #[test]
        fn lowered_plans_always_certify((servers, plan) in plans()) {
            let model = small_gpt().with_layers(2 * plan.pp.max(4));
            let config = EngineConfig::servers(servers)
                .with_batch_size(1)
                .with_parallelism(plan);
            let mesh = config.device_mesh().expect("constructed to factor");
            let engine = Engine::initialize(&model, &config)
                .expect("small model fits every shape");
            let lowered = engine.lowered();
            let full = SpmdTrace::project_full(&lowered.comm_log, &mesh).verify();
            prop_assert!(full.is_certified(), "full:\n{}", full.describe());
            let reduced = SpmdTrace::project_reduced(&lowered.comm_log, &mesh).verify();
            prop_assert!(reduced.is_certified(), "reduced:\n{}", reduced.describe());
            prop_assert_eq!(reduced.ranks_checked, mesh.pp());
            // Certified ⇒ the simulated execution drains every task.
            let report = lowered.sim.run();
            prop_assert!(report.failed_tasks.is_empty());
            prop_assert!(report.makespan > 0);
        }
    }
}
