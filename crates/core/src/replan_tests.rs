//! Replanning after a cluster change, checked against the oracle.
//!
//! A splice (outage, permanent layer failure, elastic resize) replans by
//! planning the changed input from scratch with
//! [`UnifiedScheduler::schedule`]; no planner state survives between plans.
//! These tests drive every kind of input change a splice produces — one
//! layer reshaped, the budget shrunk or grown, every shard resized, the
//! layer count changed, recompute steps added, the base load changed —
//! through one reused scheduler, and check each plan byte-identical
//! (tasks, offsets, stats) to `scheduler::oracle::schedule` on the same
//! input, or rejected with the oracle's error.

use crate::error::Error;
use crate::scheduler::{oracle, LayerPlan, Schedule, SchedulerInput, StepKind, UnifiedScheduler};

/// Plans `input` with both planners and asserts byte-identical results.
fn assert_matches(sched: &UnifiedScheduler, input: &SchedulerInput) -> Schedule {
    let full = match oracle::schedule(sched, input) {
        Ok(s) => s,
        Err(e) => panic!("oracle rejected the input: {e}"),
    };
    let plan = match sched.schedule(input) {
        Ok(s) => s,
        Err(e) => panic!("planner rejected an oracle-accepted input: {e}"),
    };
    assert_eq!(plan.tasks, full.tasks);
    assert_eq!(plan.stats, full.stats);
    assert_eq!(plan.trigger_offsets, full.trigger_offsets);
    assert_eq!(plan.num_steps, full.num_steps);
    plan
}

mod tests {
    use super::*;

    /// A jagged toy model: per-layer page lists of different shapes so the
    /// planner sees non-uniform runs.
    fn jagged(budget: u64) -> SchedulerInput {
        let shapes: &[&[u64]] = &[&[10, 10, 10], &[25], &[5, 5, 5, 5], &[0, 12, 8]];
        let layers = shapes
            .iter()
            .enumerate()
            .map(|(l, pages)| LayerPlan {
                layer: l,
                shard_pages: pages.to_vec(),
                full_param_bytes: pages.iter().sum::<u64>() * 2,
                working_set: 7,
            })
            .collect();
        SchedulerInput {
            layers,
            steps: SchedulerInput::default_steps(shapes.len()),
            gpu_budget: budget,
            page_size: 16,
            step_base_load: Vec::new(),
        }
    }

    #[test]
    fn fresh_session_matches_full_planner() {
        // One scheduler reused across budgets plans each as if fresh.
        let sched = UnifiedScheduler::default();
        for budget in [90, 120, 200, 1000] {
            let plan = assert_matches(&sched, &jagged(budget));
            let fresh = UnifiedScheduler::default()
                .schedule(&jagged(budget))
                .unwrap();
            assert_eq!(plan, fresh);
        }
    }

    #[test]
    fn single_layer_delta_matches_full_replan() {
        let sched = UnifiedScheduler::default();
        let mut input = jagged(120);
        assert_matches(&sched, &input);
        let lp = &mut input.layers[2];
        lp.working_set = 40;
        lp.shard_pages = vec![9, 9, 9, 9, 9];
        lp.full_param_bytes = 45;
        assert_matches(&sched, &input);
    }

    #[test]
    fn outage_capacity_delta_matches_full_replan() {
        let sched = UnifiedScheduler::default();
        let mut input = jagged(200);
        assert_matches(&sched, &input);
        // Degraded headroom: shrink, then elastic recovery: grow back.
        input.gpu_budget = 95;
        assert_matches(&sched, &input);
        input.gpu_budget = 400;
        let plan = assert_matches(&sched, &input);
        assert!(!plan.trigger_offsets.is_empty());
    }

    #[test]
    fn resize_delta_reshaping_every_shard_matches_full_replan() {
        let sched = UnifiedScheduler::default();
        let mut input = jagged(150);
        assert_matches(&sched, &input);
        // dp 2x: every shard halves (pages shrink), like an elastic grow.
        for l in &mut input.layers {
            for b in &mut l.shard_pages {
                *b /= 2;
            }
        }
        assert_matches(&sched, &input);
    }

    #[test]
    fn layer_count_change_requires_steps_and_works_with_them() {
        let sched = UnifiedScheduler::default();
        let mut input = jagged(150);
        assert_matches(&sched, &input);
        // Dropping a layer without rewriting the steps leaves steps that
        // reference it: the planner rejects the malformed input.
        input.layers.truncate(3);
        let err = sched.schedule(&input).unwrap_err();
        assert!(matches!(err, Error::BadSchedulerInput(_)));
        // The previous input still plans identically: nothing was kept.
        assert_matches(&sched, &jagged(150));
        input.steps = SchedulerInput::default_steps(3);
        assert_matches(&sched, &input);
    }

    #[test]
    fn step_list_delta_matches_full_replan() {
        let sched = UnifiedScheduler::default();
        let mut input = jagged(150);
        assert_matches(&sched, &input);
        // A degraded iteration: layer 1 recomputed twice in the backward.
        input.steps.push(StepKind::Backward(1));
        input.steps.insert(2, StepKind::Forward(1));
        assert_matches(&sched, &input);
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Abstract input changes, resolved against the *current* input at
    /// apply time (indices mod the live layer count, steps covering every
    /// layer).
    #[derive(Debug, Clone)]
    enum Mutation {
        /// Touch one layer: new pages / full / working set (a permanent
        /// layer failure is the empty-pages case).
        Layer {
            raw: usize,
            pages: Vec<u64>,
            full: u64,
            ws: u64,
        },
        /// Capacity change (an outage shrinks, an elastic grow raises).
        Budget(u64),
        /// Step list change: default steps plus extra inserted recomputes.
        Steps { extra: Vec<(usize, usize, bool)> },
        /// Base-load change (None clears it).
        Base(Option<u64>),
        /// Pure working-set increase on one layer.
        WsBump { raw: usize, d: u64 },
        /// Elastic resize: wholesale layer replacement, possibly changing
        /// the layer count.
        Resize(Vec<(Vec<u64>, u64, u64)>),
    }

    fn mutation_strategy() -> impl Strategy<Value = Mutation> {
        prop_oneof![
            (
                any::<usize>(),
                proptest::collection::vec(0u64..40, 0..6),
                0u64..120,
                0u64..60,
            )
                .prop_map(|(raw, pages, full, ws)| Mutation::Layer {
                    raw,
                    pages,
                    full,
                    ws
                }),
            (1u64..400).prop_map(Mutation::Budget),
            proptest::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 0..4)
                .prop_map(|extra| Mutation::Steps { extra }),
            (any::<bool>(), 1u64..20).prop_map(|(some, k)| Mutation::Base(some.then_some(k))),
            (any::<usize>(), 0u64..50).prop_map(|(raw, d)| Mutation::WsBump { raw, d }),
            proptest::collection::vec(
                (
                    proptest::collection::vec(0u64..40, 0..6),
                    0u64..120,
                    0u64..60
                ),
                1..6,
            )
            .prop_map(Mutation::Resize),
        ]
    }

    /// The input after `m`, as a splice would hand it to the planner.
    fn apply(m: &Mutation, cur: &SchedulerInput) -> SchedulerInput {
        let mut next = cur.clone();
        let n = cur.layers.len();
        match m {
            Mutation::Layer {
                raw,
                pages,
                full,
                ws,
            } => {
                let idx = raw % n;
                next.layers[idx] = LayerPlan {
                    layer: idx,
                    shard_pages: pages.clone(),
                    full_param_bytes: *full,
                    working_set: *ws,
                };
            }
            Mutation::Budget(b) => next.gpu_budget = *b,
            Mutation::Steps { extra } => {
                let mut steps = SchedulerInput::default_steps(n);
                for (pos, l, fwd) in extra {
                    let s = if *fwd {
                        StepKind::Forward(l % n)
                    } else {
                        StepKind::Backward(l % n)
                    };
                    steps.insert(pos % (steps.len() + 1), s);
                }
                next.steps = steps;
            }
            Mutation::WsBump { raw, d } => next.layers[raw % n].working_set += d,
            Mutation::Base(seed) => {
                next.step_base_load = match seed {
                    Some(k) => (0..cur.steps.len() as u64).map(|j| (j * k) % 31).collect(),
                    None => Vec::new(),
                }
            }
            Mutation::Resize(shapes) => {
                next.layers = shapes
                    .iter()
                    .enumerate()
                    .map(|(l, (pages, full, ws))| LayerPlan {
                        layer: l,
                        shard_pages: pages.clone(),
                        full_param_bytes: *full,
                        working_set: *ws,
                    })
                    .collect();
                next.steps = SchedulerInput::default_steps(shapes.len());
            }
        }
        next
    }

    fn base_input_strategy() -> impl Strategy<Value = (SchedulerInput, UnifiedScheduler)> {
        (
            proptest::collection::vec(
                (
                    proptest::collection::vec(0u64..40, 0..6),
                    0u64..120,
                    0u64..60,
                ),
                1..7,
            ),
            1u64..400,
            any::<bool>(),
            0usize..8,
            any::<bool>(),
        )
            .prop_map(|(layers, budget, with_base, horizon, phase2)| {
                let n = layers.len();
                let layers: Vec<LayerPlan> = layers
                    .into_iter()
                    .enumerate()
                    .map(|(l, (pages, full, ws))| LayerPlan {
                        layer: l,
                        shard_pages: pages,
                        full_param_bytes: full,
                        working_set: ws,
                    })
                    .collect();
                let steps = SchedulerInput::default_steps(n);
                let step_base_load = if with_base {
                    (0..steps.len()).map(|j| (j as u64 * 7) % 23).collect()
                } else {
                    Vec::new()
                };
                (
                    SchedulerInput {
                        layers,
                        steps,
                        gpu_budget: budget,
                        page_size: 16,
                        step_base_load,
                    },
                    UnifiedScheduler {
                        phase2,
                        prefetch_horizon: horizon,
                    },
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random change sequences (outage / permanent / resize): one
        /// reused scheduler replans each changed input, and every plan is
        /// byte-identical to the oracle's plan of that input. A rejected
        /// change is rejected with the oracle's error and is dropped, as a
        /// splice keeps its previous plan; the next change applies to the
        /// last accepted input.
        #[test]
        fn incremental_replan_matches_from_scratch(
            (mut input, sched) in base_input_strategy(),
            muts in proptest::collection::vec(mutation_strategy(), 1..6)
        ) {
            if let Err(e) = sched.schedule(&input) {
                // Infeasible seed: the oracle must agree.
                prop_assert_eq!(Err(e), oracle::schedule(&sched, &input));
                return Ok(());
            }
            for m in &muts {
                let cand = apply(m, &input);
                match (sched.schedule(&cand), oracle::schedule(&sched, &cand)) {
                    (Ok(plan), Ok(full)) => {
                        prop_assert_eq!(&plan.tasks, &full.tasks);
                        prop_assert_eq!(plan.stats, full.stats);
                        prop_assert_eq!(&plan.trigger_offsets, &full.trigger_offsets);
                        prop_assert_eq!(plan.num_steps, full.num_steps);
                        input = cand;
                    }
                    (Err(e), Err(oe)) => {
                        prop_assert!(matches!(e, Error::WorkingSetTooLarge { .. }));
                        prop_assert_eq!(e, oe);
                    }
                    (plan, full) => prop_assert!(
                        false,
                        "feasibility diverges: planner {:?} vs oracle {:?}",
                        plan.is_ok(),
                        full.is_ok()
                    ),
                }
            }
        }
    }
}
