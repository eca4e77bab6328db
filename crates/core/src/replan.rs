//! Algorithm 1's one implementation, from scratch and incrementally.
//!
//! A full plan at GPT-3-1T scale is dominated by the O(tasks) emission of
//! the ~10⁵-task trigger-sorted list. The *decisions* — which page runs
//! evict, where they re-add, how far each all-gather advances — cost only
//! O(steps · log steps), because the segment-tree timeline
//! ([`TimelineState`]) makes every decision a range query and the decisions
//! are kept in **run form**: one `[lo, hi)` page range per same-layer batch,
//! found by binary search on cached per-layer page-prefix sums instead of a
//! per-page stack walk.
//!
//! [`Planner::new`] runs both phases and the emission once; that *is*
//! [`UnifiedScheduler::schedule`], which consumes a fresh session through
//! [`Planner::into_schedule`]. A live session keeps its decision state, so
//! a [`ReplanDelta`] — layers touched, steps removed/added, capacity
//! changed — replans by:
//!
//! 1. reverting the segment-tree timeline to its pre-decision baseline with
//!    one memcpy ([`crate::seqtree::RangeAddMax::restore_from`]) and
//!    patching only the touched layers' byte deltas as O(log steps) range
//!    adds ([`TimelineState::reset_reverting`]);
//! 2. re-running the decision phases over runs (binary searches on cached
//!    per-layer page-prefix sums replace the per-page stack loops);
//! 3. diffing the new decisions against the previous ones to find the
//!    *dirty triggers*, and re-emitting only those slots of the
//!    trigger-sorted task list — untouched layers' evict/re-add/prefetch
//!    decisions and their task slots are preserved verbatim (`memcpy` of
//!    clean regions, or pure in-place patching when the offsets are
//!    unchanged).
//!
//! The independent reference is the original per-page planner,
//! `scheduler::oracle::schedule` (test and `verify-extras` builds only):
//! every incremental result is proven byte-identical (tasks, offsets,
//! stats) to it on the mutated input by the unit tests and a proptest over
//! random mutation sequences below, and the scheduler proptest does the same
//! for fresh sessions. DESIGN.md §14 gives the delta model and the
//! splice-soundness argument built on this identity.

use crate::error::{Error, Result};
use crate::scheduler::{
    LayerPatch, LayerPlan, PlannedPage, Schedule, ScheduleStats, ScheduleTask, SchedulerInput,
    StepKind, TaskOp, TimelineState, UnifiedScheduler,
};
use serde::{Deserialize, Serialize};

/// A mutation of the scheduler input between plans. Empty fields mean
/// "unchanged"; [`ReplanDelta::diff`] computes the minimal delta between two
/// inputs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplanDelta {
    /// Replaced layer plans at existing indices (each index at most once).
    pub layers: Vec<(usize, LayerPlan)>,
    /// Wholesale layer-list replacement (elastic resize reshaping every
    /// shard). Mutually exclusive with `layers`; a layer-*count* change
    /// additionally requires `steps`.
    pub replace_layers: Option<Vec<LayerPlan>>,
    /// New GPU byte budget (degraded headroom / elastic capacity change).
    pub gpu_budget: Option<u64>,
    /// Replacement compute-step list (steps removed/added).
    pub steps: Option<Vec<StepKind>>,
    /// Replacement per-step base load.
    pub step_base_load: Option<Vec<u64>>,
    /// New page size (carried through to consumers; no scheduling effect).
    pub page_size: Option<u64>,
}

impl ReplanDelta {
    /// A single-layer replacement.
    pub fn layer(idx: usize, plan: LayerPlan) -> Self {
        Self {
            layers: vec![(idx, plan)],
            ..Self::default()
        }
    }

    /// A capacity-only change (outage headroom, elastic budget).
    pub fn capacity(gpu_budget: u64) -> Self {
        Self {
            gpu_budget: Some(gpu_budget),
            ..Self::default()
        }
    }

    /// The minimal delta turning `old` into `new`.
    pub fn diff(old: &SchedulerInput, new: &SchedulerInput) -> Self {
        let mut d = Self::default();
        if old.gpu_budget != new.gpu_budget {
            d.gpu_budget = Some(new.gpu_budget);
        }
        if old.page_size != new.page_size {
            d.page_size = Some(new.page_size);
        }
        if old.steps != new.steps {
            d.steps = Some(new.steps.clone());
        }
        if old.step_base_load != new.step_base_load {
            d.step_base_load = Some(new.step_base_load.clone());
        }
        if old.layers.len() != new.layers.len() {
            d.replace_layers = Some(new.layers.clone());
            if d.steps.is_none() {
                d.steps = Some(new.steps.clone());
            }
        } else {
            for (i, (a, b)) in old.layers.iter().zip(&new.layers).enumerate() {
                if a.layer != b.layer
                    || a.full_param_bytes != b.full_param_bytes
                    || a.working_set != b.working_set
                    || a.shard_pages != b.shard_pages
                {
                    d.layers.push((i, b.clone()));
                }
            }
        }
        d
    }

    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

/// What an incremental replan reused versus recomputed — the observability
/// payload behind the `plan.layers_reused` counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplanOutcome {
    /// Layers whose `LayerPlan` the delta replaced.
    pub layers_touched: usize,
    /// Layers whose decisions *and* task slots carried over verbatim.
    pub layers_reused: usize,
    /// Trigger slots that were re-emitted.
    pub triggers_patched: usize,
    /// Total trigger slots in the schedule.
    pub triggers_total: usize,
    /// Whether the task buffer was patched in place (offsets unchanged)
    /// rather than rebuilt with clean-region memcpys.
    pub patched_in_place: bool,
}

/// A contiguous run of pages `[lo, hi)` of one layer — the unit the decision
/// phases batch over (a maximal same-layer run of Algorithm 1's stacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    layer: usize,
    lo: usize,
    hi: usize,
}

/// A committed re-add: pages `[lo, hi)` of `layer` re-enter at `trigger`.
/// Events are stored in commit order (triggers nondecreasing, pages
/// ascending within an event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReaddEvent {
    layer: usize,
    lo: usize,
    hi: usize,
    trigger: usize,
}

/// The Algorithm 1 planner: a persistent [`UnifiedScheduler`] session that
/// keeps its input, timeline, decision runs and emitted schedule alive
/// across [`Planner::replan`] calls, so each delta pays only for what it
/// touches. `Planner::new` is the from-scratch plan
/// ([`UnifiedScheduler::schedule`] delegates to it); every subsequent state
/// is byte-identical to a from-scratch plan of the current input.
pub struct Planner {
    sched: UnifiedScheduler,
    input: SchedulerInput,
    timeline: TimelineState,
    /// `page_prefix[l][i]` = bytes of layer `l`'s first `i` pages — the
    /// cache that turns per-page stack loops into binary searches. Rebuilt
    /// only for layers whose page list changed.
    page_prefix: Vec<Vec<u64>>,
    // Current decisions.
    moves: Vec<Run>,
    readds: Vec<ReaddEvent>,
    gather: Vec<usize>,
    gathers_advanced: usize,
    // Previous decisions (diff source).
    prev_moves: Vec<Run>,
    prev_readds: Vec<ReaddEvent>,
    prev_gather: Vec<usize>,
    // The live schedule, byte-identical to a full plan of `input`.
    schedule: Schedule,
    // Scratch buffers reused across replans.
    wait: Vec<Run>,
    scratch_tasks: Vec<ScheduleTask>,
    tmp_tasks: Vec<ScheduleTask>,
    trig_off: Vec<usize>,
    trig_cur: Vec<usize>,
    trig_steps: Vec<usize>,
    new_off: Vec<usize>,
    dirty: Vec<bool>,
    changed_layers: Vec<bool>,
    last_outcome: ReplanOutcome,
    // Decision-margin evidence recorded by the last full `plan_decisions`
    // pass, consumed by the slack fast path (see `try_slack_fast_path`).
    /// Per step: how many extra bytes the step can absorb before its phase-1
    /// eviction check flips. `0` where an eviction committed; `u64::MAX`
    /// where the step is unconstrained.
    slack: Vec<u64>,
    /// Phase-2 spans `(lo, hi, margin)`: each fired gather advance and the
    /// minimum margin by which its stop point held over `[lo, hi]`.
    p2_spans: Vec<(usize, usize, u64)>,
    /// Re-add commits `(layer, trigger, last_use)`: the capacity query
    /// behind each committed re-add read the range `[trigger, last_use]`
    /// minus the layer's own steps, so a byte change to any step in there
    /// could have changed the committed batch.
    poisoned: Vec<(usize, usize, usize)>,
}

impl Planner {
    /// Plan `input` from scratch and open an incremental session.
    pub fn new(sched: UnifiedScheduler, input: SchedulerInput) -> Result<Self> {
        validate_input(&input)?;
        let timeline = TimelineState::new(&input);
        let mut planner = Self {
            sched,
            timeline,
            page_prefix: input.layers.iter().map(prefix_of).collect(),
            input,
            moves: Vec::new(),
            readds: Vec::new(),
            gather: Vec::new(),
            gathers_advanced: 0,
            prev_moves: Vec::new(),
            prev_readds: Vec::new(),
            prev_gather: Vec::new(),
            schedule: Schedule {
                tasks: Vec::new(),
                stats: ScheduleStats {
                    pages_resident: 0,
                    pages_cpu_bound: 0,
                    peak_gpu_bytes: 0,
                    resident_fraction: 0.0,
                    gathers_advanced: 0,
                },
                num_steps: 0,
                trigger_offsets: Vec::new(),
            },
            wait: Vec::new(),
            scratch_tasks: Vec::new(),
            tmp_tasks: Vec::new(),
            trig_off: Vec::new(),
            trig_cur: Vec::new(),
            trig_steps: Vec::new(),
            new_off: Vec::new(),
            dirty: Vec::new(),
            changed_layers: Vec::new(),
            last_outcome: ReplanOutcome::default(),
            slack: Vec::new(),
            p2_spans: Vec::new(),
            poisoned: Vec::new(),
        };
        planner.plan_decisions();
        planner.emit(false);
        planner.last_outcome = ReplanOutcome {
            layers_touched: planner.input.layers.len(),
            layers_reused: 0,
            triggers_patched: planner.input.steps.len(),
            triggers_total: planner.input.steps.len(),
            patched_in_place: false,
        };
        Ok(planner)
    }

    /// The current schedule — byte-identical to a from-scratch plan of
    /// [`Self::input`].
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// End the session and keep its schedule, without a copy.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }

    /// The current (post-delta) scheduler input.
    pub fn input(&self) -> &SchedulerInput {
        &self.input
    }

    /// The scheduler configuration this session plans with.
    pub fn scheduler(&self) -> &UnifiedScheduler {
        &self.sched
    }

    /// What the most recent plan/replan reused.
    pub fn last_outcome(&self) -> ReplanOutcome {
        self.last_outcome
    }

    /// Apply `delta` and replan incrementally. On `Err` the planner is
    /// untouched (validation and feasibility run before any mutation) and
    /// the previous schedule stays live.
    pub fn replan(&mut self, delta: &ReplanDelta) -> Result<ReplanOutcome> {
        // ---- Validate against the prospective input; mutate nothing. ----
        let n_old = self.input.layers.len();
        let n_new = delta.replace_layers.as_ref().map_or(n_old, Vec::len);
        if let Some(rl) = &delta.replace_layers {
            if !delta.layers.is_empty() {
                return Err(Error::BadReplanDelta(
                    "replace_layers and per-index layers are mutually exclusive",
                ));
            }
            if rl.is_empty() {
                return Err(Error::BadReplanDelta("replace_layers with empty model"));
            }
            if rl.len() != n_old && delta.steps.is_none() {
                return Err(Error::BadReplanDelta(
                    "layer-count change requires a replacement step list",
                ));
            }
        }
        let mut replaced_at: Vec<Option<usize>> = vec![None; n_old];
        for (k, (idx, _)) in delta.layers.iter().enumerate() {
            if *idx >= n_old {
                return Err(Error::BadReplanDelta("layer index out of range"));
            }
            if replaced_at[*idx].is_some() {
                return Err(Error::BadReplanDelta("duplicate layer index"));
            }
            replaced_at[*idx] = Some(k);
        }
        let steps: &[StepKind] = delta.steps.as_deref().unwrap_or(&self.input.steps);
        let base: &[u64] = delta
            .step_base_load
            .as_deref()
            .unwrap_or(&self.input.step_base_load);
        let budget = delta.gpu_budget.unwrap_or(self.input.gpu_budget);
        let mut covered = vec![false; n_new];
        let look = |l: usize| -> &LayerPlan {
            if let Some(rl) = &delta.replace_layers {
                &rl[l]
            } else if let Some(k) = replaced_at[l] {
                &delta.layers[k].1
            } else {
                &self.input.layers[l]
            }
        };
        for (j, s) in steps.iter().enumerate() {
            let l = s.layer();
            if l >= n_new {
                return Err(Error::BadReplanDelta("step references a missing layer"));
            }
            covered[l] = true;
            let lp = look(l);
            let need = lp.full_param_bytes + lp.working_set + base.get(j).copied().unwrap_or(0);
            if need > budget {
                return Err(Error::WorkingSetTooLarge {
                    layer_bytes: need,
                    gpu_bytes: budget,
                });
            }
        }
        if covered.iter().any(|&c| !c) {
            return Err(Error::BadReplanDelta("a layer has no compute step"));
        }

        // ---- Slack fast path. ----
        // A working-set-only increase that fits inside every recorded
        // decision margin provably flips no greedy choice, so the whole
        // decision replay — and the emission behind it — can be skipped:
        // the replan is a handful of O(log steps) point patches.
        if delta.steps.is_none()
            && delta.step_base_load.is_none()
            && delta.replace_layers.is_none()
            && delta.gpu_budget.is_none()
            && delta.page_size.is_none()
            && !delta.layers.is_empty()
        {
            if let Some(outcome) = self.try_slack_fast_path(&delta.layers) {
                self.last_outcome = outcome;
                return Ok(outcome);
            }
        }

        // ---- Apply the delta. ----
        let full_reset = delta.steps.is_some()
            || delta.step_base_load.is_some()
            || delta.replace_layers.is_some();
        // (layer, old totals, new totals) patches for the revert path.
        let mut patches: Vec<LayerPatch> = Vec::new();
        let mut layers_touched = 0usize;
        self.changed_layers.clear();
        self.changed_layers.resize(n_new, false);
        if let Some(rl) = &delta.replace_layers {
            self.input.layers.clone_from(rl);
            self.page_prefix.clear();
            self.page_prefix
                .extend(self.input.layers.iter().map(prefix_of));
            layers_touched = n_new;
            for c in &mut self.changed_layers {
                *c = true;
            }
        } else {
            for (idx, lp) in &delta.layers {
                let old = &self.input.layers[*idx];
                let old_tot = (
                    self.page_prefix[*idx].last().copied().unwrap_or(0),
                    old.full_param_bytes,
                    old.working_set,
                );
                let pages_changed = old.shard_pages != lp.shard_pages;
                self.input.layers[*idx] = lp.clone();
                if pages_changed {
                    self.page_prefix[*idx] = prefix_of(lp);
                }
                let new_tot = (
                    self.page_prefix[*idx].last().copied().unwrap_or(0),
                    lp.full_param_bytes,
                    lp.working_set,
                );
                patches.push((*idx, old_tot, new_tot));
                self.changed_layers[*idx] = pages_changed;
                layers_touched += 1;
            }
        }
        if let Some(s) = &delta.steps {
            self.input.steps.clone_from(s);
        }
        if let Some(b) = &delta.step_base_load {
            self.input.step_base_load.clone_from(b);
        }
        if let Some(b) = delta.gpu_budget {
            self.input.gpu_budget = b;
        }
        if let Some(p) = delta.page_size {
            self.input.page_size = p;
        }

        // ---- Re-arm the timeline and redo the decision phases. ----
        std::mem::swap(&mut self.moves, &mut self.prev_moves);
        std::mem::swap(&mut self.readds, &mut self.prev_readds);
        std::mem::swap(&mut self.gather, &mut self.prev_gather);
        if full_reset {
            self.timeline.reset(&self.input, true);
        } else {
            self.timeline.reset_reverting(&self.input, &patches);
        }
        self.plan_decisions();

        // ---- Diff decisions → dirty triggers → patch the emission. ----
        let n_steps = self.input.steps.len();
        let diffable = !full_reset;
        if diffable {
            // `changed_layers` marks layers whose *emitted pages* changed;
            // widen it with decision changes during the dirty walk, then
            // derive `layers_reused` (untouched + unchanged decisions).
            self.compute_dirty();
        }
        let (patched, in_place) = self.emit(diffable);
        let mut reused = 0usize;
        if diffable {
            for (l, &changed) in self.changed_layers.iter().enumerate() {
                let touched = if delta.replace_layers.is_some() {
                    true
                } else {
                    replaced_at[l].is_some()
                };
                if !changed && !touched {
                    reused += 1;
                }
            }
        }
        let outcome = ReplanOutcome {
            layers_touched,
            layers_reused: reused,
            triggers_patched: patched,
            triggers_total: n_steps,
            patched_in_place: in_place,
        };
        self.last_outcome = outcome;
        Ok(outcome)
    }

    /// The delta fast path: commit a pure working-set *increase* without
    /// re-running any decision phase, or return `None` for the slow path.
    ///
    /// Soundness (DESIGN.md §14): with steps, base load, budget, page size,
    /// shard pages and full bytes all unchanged, the only timeline values
    /// that differ from the previous plan's are the touched layers' own
    /// compute steps, each higher by its layer's increase `d` — every
    /// decision mutation is a value-independent range-add, so the shift
    /// persists through an identical decision replay by induction. The
    /// replay *is* identical when every value the greedy pass branches on
    /// keeps its branch:
    ///
    /// - phase-1 fit checks read only their own step; `d ≤ slack[s]` keeps
    ///   the break (and a step whose eviction loop emptied the stack while
    ///   over budget stays over budget — increases preserve it for free);
    /// - committed re-adds chose their batch from a capacity query over
    ///   `[trigger, last_use]` minus the re-added layer's own steps — a
    ///   touched step inside such a range (`poisoned`) rejects the fast
    ///   path, while *failed* queries are increase-monotone: a shrunken
    ///   capacity still fails;
    /// - a fired phase-2 advance stopped at the last step above its
    ///   threshold; `d ≤ margin` for every touched step inside the advanced
    ///   span keeps that stop point, and non-fired advances stay non-fired
    ///   because increases only move the blocking step later.
    ///
    /// Decisions, task buffer, trigger layout and diff baselines are then
    /// reused verbatim; only the live/baseline trees, the consumed margins
    /// and the timeline-derived peak statistic are patched.
    fn try_slack_fast_path(&mut self, layers: &[(usize, LayerPlan)]) -> Option<ReplanOutcome> {
        // Certify every touched step before mutating anything.
        for (idx, lp) in layers {
            let old = &self.input.layers[*idx];
            if lp.layer != old.layer
                || lp.full_param_bytes != old.full_param_bytes
                || lp.shard_pages != old.shard_pages
            {
                return None;
            }
            // Decreases take the slow path: margins only certify increases.
            let d = lp.working_set.checked_sub(old.working_set)?;
            if d == 0 {
                continue;
            }
            for &s in self.timeline.steps_of(*idx) {
                if d > self.slack[s] {
                    return None;
                }
                if self
                    .p2_spans
                    .iter()
                    .any(|&(lo, hi, margin)| lo <= s && s <= hi && d > margin)
                {
                    return None;
                }
                if self
                    .poisoned
                    .iter()
                    .any(|&(l, t, lu)| t <= s && s <= lu && !self.timeline.is_own_step(l, s))
                {
                    return None;
                }
            }
        }
        // Commit: point-patch the trees, consume the margins, refresh the
        // one statistic that reads timeline values.
        for (idx, lp) in layers {
            let d = lp.working_set - self.input.layers[*idx].working_set;
            if d > 0 {
                for &s in self.timeline.steps_of(*idx) {
                    self.slack[s] = self.slack[s].saturating_sub(d);
                    for (lo, hi, margin) in &mut self.p2_spans {
                        if *lo <= s && s <= *hi {
                            // Saturating: a span holding several touched
                            // steps shrinks once per step, which can
                            // overshoot the true (per-step) margin loss.
                            *margin = margin.saturating_sub(d);
                        }
                    }
                }
                self.timeline.nudge_own_steps(*idx, d);
            }
            self.input.layers[*idx] = lp.clone();
        }
        self.schedule.stats.peak_gpu_bytes = self.timeline.peak();
        Some(ReplanOutcome {
            layers_touched: layers.len(),
            layers_reused: self.input.layers.len() - layers.len(),
            triggers_patched: 0,
            triggers_total: self.input.steps.len(),
            patched_in_place: true,
        })
    }

    /// Phase 1 + phase 2 over runs: Algorithm 1's greedy stack decisions,
    /// with each maximal same-layer batch found by a binary search on the
    /// page-prefix sums instead of a per-page walk.
    fn plan_decisions(&mut self) {
        let Self {
            input,
            timeline,
            page_prefix,
            moves,
            readds,
            gather,
            gathers_advanced,
            sched,
            wait,
            slack,
            p2_spans,
            poisoned,
            ..
        } = self;
        let input = &*input;
        let n_steps = input.steps.len();
        // Fresh margin evidence for the slack fast path: every decision this
        // pass makes records how far it was from flipping.
        slack.clear();
        slack.resize(n_steps, u64::MAX);
        p2_spans.clear();
        poisoned.clear();
        moves.clear();
        for (li, layer) in input.layers.iter().enumerate() {
            if !layer.shard_pages.is_empty() {
                moves.push(Run {
                    layer: li,
                    lo: 0,
                    hi: layer.shard_pages.len(),
                });
            }
        }
        readds.clear();
        wait.clear();
        // `i` indexes the timeline, the wait stacks and `slack` alike.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n_steps {
            // Eviction: pop the minimal top batch that brings step `i` under
            // budget (whole run when net-zero at `i` or insufficient).
            let mut evicted_here = false;
            loop {
                let current = timeline.step_total(i);
                if current <= input.gpu_budget {
                    // The margin before this fit check flips. A committed
                    // eviction's batch size also read step `i`, so any
                    // increase there changes the cut: no slack.
                    slack[i] = if evicted_here {
                        0
                    } else {
                        input.gpu_budget - current
                    };
                    break;
                }
                let Some(&top) = moves.last() else {
                    if evicted_here {
                        slack[i] = 0;
                    }
                    break;
                };
                evicted_here = true;
                let l = top.layer;
                let p = &page_prefix[l];
                let len = top.hi - top.lo;
                let net_zero = i > timeline.last_use(l) || timeline.is_own_step(l, i);
                let need = current - input.gpu_budget;
                let total = p[top.hi] - p[top.lo];
                let k = if net_zero || total < need {
                    len
                } else {
                    // Minimal k with suffix-sum(k) >= need (monotone).
                    let (mut lo_k, mut hi_k) = (1usize, len);
                    while lo_k < hi_k {
                        let mid = lo_k + (hi_k - lo_k) / 2;
                        if p[top.hi] - p[top.hi - mid] >= need {
                            hi_k = mid;
                        } else {
                            lo_k = mid + 1;
                        }
                    }
                    lo_k
                };
                let cut = top.hi - k;
                let batch = p[top.hi] - p[cut];
                timeline.evict(l, batch);
                if k == len {
                    moves.pop();
                } else if let Some(tr) = moves.last_mut() {
                    tr.hi = cut;
                }
                // Evicted pages [cut, top.hi) reach the wait stack with the
                // lowest index on top; merge when adjacent to the previous
                // eviction of the same layer (no re-add in between).
                match wait.last_mut() {
                    Some(w) if w.layer == l && w.lo == top.hi => w.lo = cut,
                    _ => wait.push(Run {
                        layer: l,
                        lo: cut,
                        hi: top.hi,
                    }),
                }
            }
            // Re-add backfill: drain the maximal prefix of the same-layer
            // top group that fits the batched capacity.
            'readd: while let Some(&top) = wait.last() {
                let l = top.layer;
                let t = i + 1;
                let Some(cap) = timeline.readd_capacity(input, l, t) else {
                    break;
                };
                let mut gstart = wait.len();
                while gstart > 0 && wait[gstart - 1].layer == l {
                    gstart -= 1;
                }
                let p = &page_prefix[l];
                let mut batch = 0u64;
                let mut drained_runs = 0usize;
                let mut partial = 0usize;
                let mut group_done = true;
                for r in wait[gstart..].iter().rev() {
                    let left = cap - batch;
                    let rlen = r.hi - r.lo;
                    // Maximal m with prefix-sum(m) <= left (monotone).
                    let (mut lo_m, mut hi_m) = (0usize, rlen);
                    while lo_m < hi_m {
                        let mid = lo_m + (hi_m - lo_m).div_ceil(2);
                        if p[r.lo + mid] - p[r.lo] <= left {
                            lo_m = mid;
                        } else {
                            hi_m = mid - 1;
                        }
                    }
                    let m = lo_m;
                    batch += p[r.lo + m] - p[r.lo];
                    if m > 0 {
                        readds.push(ReaddEvent {
                            layer: l,
                            lo: r.lo,
                            hi: r.lo + m,
                            trigger: t,
                        });
                    }
                    if m < rlen {
                        partial = m;
                        group_done = false;
                        break;
                    }
                    drained_runs += 1;
                }
                if drained_runs == 0 && partial == 0 {
                    break; // head of the group does not fit
                }
                timeline.readd(l, batch, t);
                // The committed batch came from a capacity query over
                // `[t, last_use(l)]` minus `l`'s own steps: increases inside
                // that range invalidate the batch choice.
                poisoned.push((l, t, timeline.last_use(l)));
                wait.truncate(wait.len() - drained_runs);
                if !group_done {
                    if partial > 0 {
                        if let Some(w) = wait.last_mut() {
                            w.lo += partial;
                        }
                    }
                    break 'readd;
                }
            }
        }
        *gathers_advanced = 0;
        if sched.phase2 {
            for i in 0..n_steps {
                if timeline.advance_gather(input, i, sched.prefetch_horizon, p2_spans) {
                    *gathers_advanced += 1;
                }
            }
        }
        gather.clear();
        gather.extend_from_slice(timeline.gather_triggers());
    }

    /// Mark the triggers whose task slots differ from the previous plan and
    /// widen `changed_layers` with every layer whose decisions moved.
    fn compute_dirty(&mut self) {
        let n_steps = self.input.steps.len();
        self.dirty.clear();
        self.dirty.resize(n_steps, false);
        // Moves (all at trigger 0): merge-walk by layer.
        {
            let (mut a, mut b) = (0usize, 0usize);
            while a < self.prev_moves.len() || b < self.moves.len() {
                match (self.prev_moves.get(a), self.moves.get(b)) {
                    (Some(x), Some(y)) if x.layer == y.layer => {
                        if x != y || self.changed_layers[y.layer] {
                            self.dirty[0] = true;
                            self.changed_layers[y.layer] = true;
                        }
                        a += 1;
                        b += 1;
                    }
                    (Some(x), Some(y)) => {
                        self.dirty[0] = true;
                        let l = if x.layer < y.layer {
                            a += 1;
                            x.layer
                        } else {
                            b += 1;
                            y.layer
                        };
                        self.changed_layers[l] = true;
                    }
                    (Some(x), None) => {
                        self.dirty[0] = true;
                        self.changed_layers[x.layer] = true;
                        a += 1;
                    }
                    (None, Some(y)) => {
                        self.dirty[0] = true;
                        self.changed_layers[y.layer] = true;
                        b += 1;
                    }
                    (None, None) => break,
                }
            }
        }
        // Re-adds: group-compare by trigger (both lists trigger-sorted).
        {
            let (mut a, mut b) = (0usize, 0usize);
            while a < self.prev_readds.len() || b < self.readds.len() {
                let ta = self.prev_readds.get(a).map(|e| e.trigger);
                let tb = self.readds.get(b).map(|e| e.trigger);
                let t = match (ta, tb) {
                    (Some(x), Some(y)) => x.min(y),
                    (Some(x), None) => x,
                    (None, Some(y)) => y,
                    (None, None) => break,
                };
                let a2 = a + self.prev_readds[a..]
                    .iter()
                    .take_while(|e| e.trigger == t)
                    .count();
                let b2 = b + self.readds[b..]
                    .iter()
                    .take_while(|e| e.trigger == t)
                    .count();
                let (ga, gb) = (&self.prev_readds[a..a2], &self.readds[b..b2]);
                if ga != gb {
                    self.dirty[t] = true;
                    for e in ga.iter().chain(gb) {
                        self.changed_layers[e.layer] = true;
                    }
                } else if gb.iter().any(|e| self.changed_layers[e.layer]) {
                    self.dirty[t] = true;
                }
                a = a2;
                b = b2;
            }
        }
        // Gathers: a moved trigger dirties both its old and new slot; an
        // unmoved one only if the layer's page content changed.
        for i in 0..n_steps {
            let (g, pg) = (self.gather[i], self.prev_gather[i]);
            if g != pg {
                self.dirty[g] = true;
                self.dirty[pg] = true;
                self.changed_layers[self.input.steps[i].layer()] = true;
            } else if self.changed_layers[self.input.steps[i].layer()] {
                self.dirty[g] = true;
            }
        }
    }

    /// (Re)build the trigger-sorted task list and stats. With `diffed` the
    /// dirty-trigger set drives a minimal re-emission: in-place slot patches
    /// when the offset table is unchanged, otherwise a rebuild that memcpys
    /// every clean slot from the previous task buffer. Returns
    /// `(triggers re-emitted, patched in place)`.
    fn emit(&mut self, diffed: bool) -> (usize, bool) {
        let Self {
            input,
            page_prefix,
            moves,
            readds,
            gather,
            timeline,
            schedule,
            scratch_tasks,
            tmp_tasks,
            trig_off,
            trig_cur,
            trig_steps,
            new_off,
            dirty,
            gathers_advanced,
            ..
        } = self;
        let input = &*input;
        let n_steps = input.steps.len();
        // Counting sort of steps by gather trigger (ascending step within
        // each trigger — the emission interleave needs it).
        trig_off.clear();
        trig_off.resize(n_steps + 1, 0);
        for &g in gather.iter() {
            trig_off[g + 1] += 1;
        }
        for i in 1..=n_steps {
            trig_off[i] += trig_off[i - 1];
        }
        trig_steps.clear();
        trig_steps.resize(n_steps, 0);
        trig_cur.clone_from(trig_off);
        for (i, &g) in gather.iter().enumerate() {
            trig_steps[trig_cur[g]] = i;
            trig_cur[g] += 1;
        }
        // New offsets + byte/page stats in one O(runs + events + steps) pass.
        new_off.clear();
        new_off.resize(n_steps + 1, 0);
        let mut resident_pages = 0usize;
        let mut resident_bytes = 0u64;
        for r in moves.iter() {
            new_off[1] += r.hi - r.lo;
            resident_pages += r.hi - r.lo;
            resident_bytes += page_prefix[r.layer][r.hi] - page_prefix[r.layer][r.lo];
        }
        for e in readds.iter() {
            new_off[e.trigger + 1] += e.hi - e.lo;
            resident_pages += e.hi - e.lo;
            resident_bytes += page_prefix[e.layer][e.hi] - page_prefix[e.layer][e.lo];
        }
        for (i, step) in input.steps.iter().enumerate() {
            new_off[gather[i] + 1] += input.layers[step.layer()].shard_pages.len();
            new_off[i + 1] += 1;
        }
        for i in 1..=n_steps {
            new_off[i] += new_off[i - 1];
        }
        let total_pages: usize = page_prefix.iter().map(|p| p.len() - 1).sum();
        let shard_bytes: u64 = page_prefix
            .iter()
            .map(|p| p.last().copied().unwrap_or(0))
            .sum();

        let mut patched = 0usize;
        let in_place = diffed && *new_off == schedule.trigger_offsets;
        if in_place {
            for t in 0..n_steps {
                if !dirty[t] {
                    continue;
                }
                patched += 1;
                tmp_tasks.clear();
                emit_trigger(input, moves, readds, trig_off, trig_steps, t, tmp_tasks);
                let range = new_off[t]..new_off[t + 1];
                debug_assert_eq!(tmp_tasks.len(), range.len());
                schedule.tasks[range].copy_from_slice(tmp_tasks);
            }
        } else {
            scratch_tasks.clear();
            scratch_tasks.reserve(new_off[n_steps]);
            // `t` indexes `dirty`, both offset tables and the task buffer.
            #[allow(clippy::needless_range_loop)]
            for t in 0..n_steps {
                if diffed && !dirty[t] {
                    // Clean slot: verbatim from the previous buffer.
                    let old = schedule.trigger_offsets[t]..schedule.trigger_offsets[t + 1];
                    scratch_tasks.extend_from_slice(&schedule.tasks[old]);
                } else {
                    patched += 1;
                    emit_trigger(input, moves, readds, trig_off, trig_steps, t, scratch_tasks);
                }
            }
            std::mem::swap(&mut schedule.tasks, scratch_tasks);
            schedule.trigger_offsets.clone_from(new_off);
        }
        schedule.num_steps = n_steps;
        schedule.stats = ScheduleStats {
            pages_resident: resident_pages,
            pages_cpu_bound: total_pages - resident_pages,
            peak_gpu_bytes: timeline.peak(),
            resident_fraction: if shard_bytes == 0 {
                0.0
            } else {
                resident_bytes as f64 / shard_bytes as f64
            },
            gathers_advanced: *gathers_advanced,
        };
        (patched, in_place)
    }
}

/// Per-layer page prefix sums: `prefix[i]` = bytes of the first `i` pages.
fn prefix_of(layer: &LayerPlan) -> Vec<u64> {
    let mut p = Vec::with_capacity(layer.shard_pages.len() + 1);
    p.push(0);
    let mut acc = 0u64;
    for &b in &layer.shard_pages {
        acc += b;
        p.push(acc);
    }
    p
}

/// The input preconditions of Algorithm 1 — a non-empty model, every step on
/// an existing layer, every layer stepped, every step feasible alone —
/// surfaced as typed errors before any planning state is built.
fn validate_input(input: &SchedulerInput) -> Result<()> {
    if input.layers.is_empty() {
        return Err(Error::BadReplanDelta("empty model"));
    }
    let mut covered = vec![false; input.layers.len()];
    for s in &input.steps {
        if s.layer() >= input.layers.len() {
            return Err(Error::BadReplanDelta("step references a missing layer"));
        }
        covered[s.layer()] = true;
    }
    if covered.iter().any(|&c| !c) {
        return Err(Error::BadReplanDelta("a layer has no compute step"));
    }
    for (j, s) in input.steps.iter().enumerate() {
        let l = &input.layers[s.layer()];
        let base = input.step_base_load.get(j).copied().unwrap_or(0);
        let need = l.full_param_bytes + l.working_set + base;
        if need > input.gpu_budget {
            return Err(Error::WorkingSetTooLarge {
                layer_bytes: need,
                gpu_bytes: input.gpu_budget,
            });
        }
    }
    Ok(())
}

/// Emit one trigger slot in Algorithm 1's within-trigger order:
/// trigger-0 moves, re-add movements, then — walking the per-step loop order
/// — step `t`'s own gather bundle (if not advanced away), step `t`'s
/// compute, and the advanced gather bundles of later steps.
fn emit_trigger(
    input: &SchedulerInput,
    moves: &[Run],
    readds: &[ReaddEvent],
    trig_off: &[usize],
    trig_steps: &[usize],
    t: usize,
    out: &mut Vec<ScheduleTask>,
) {
    if t == 0 {
        for r in moves {
            let pages = &input.layers[r.layer].shard_pages;
            for (off, &bytes) in pages[r.lo..r.hi].iter().enumerate() {
                out.push(ScheduleTask {
                    op: TaskOp::MoveToGpu(PlannedPage {
                        layer: r.layer,
                        index: r.lo + off,
                        bytes,
                    }),
                    trigger_id: 0,
                });
            }
        }
    }
    let lo = readds.partition_point(|e| e.trigger < t);
    let hi = readds.partition_point(|e| e.trigger <= t);
    for e in &readds[lo..hi] {
        let pages = &input.layers[e.layer].shard_pages;
        for (off, &bytes) in pages[e.lo..e.hi].iter().enumerate() {
            out.push(ScheduleTask {
                op: TaskOp::MoveToGpu(PlannedPage {
                    layer: e.layer,
                    index: e.lo + off,
                    bytes,
                }),
                trigger_id: t,
            });
        }
    }
    let slot = &trig_steps[trig_off[t]..trig_off[t + 1]];
    let mut rest = slot;
    if let Some((&first, tail)) = slot.split_first() {
        if first == t {
            gather_bundle(input, first, t, out);
            rest = tail;
        }
    }
    out.push(ScheduleTask {
        op: TaskOp::Compute(input.steps[t]),
        trigger_id: t,
    });
    for &i in rest {
        gather_bundle(input, i, t, out);
    }
}

fn gather_bundle(input: &SchedulerInput, step: usize, t: usize, out: &mut Vec<ScheduleTask>) {
    let l = input.steps[step].layer();
    for (pi, &bytes) in input.layers[l].shard_pages.iter().enumerate() {
        out.push(ScheduleTask {
            op: TaskOp::AllGather {
                page: PlannedPage {
                    layer: l,
                    index: pi,
                    bytes,
                },
                step,
            },
            trigger_id: t,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::oracle;

    /// A jagged toy model: per-layer page lists of different shapes so the
    /// delta machinery sees non-uniform runs.
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

    fn assert_matches(p: &Planner) {
        let full = match oracle::schedule(p.scheduler(), p.input()) {
            Ok(s) => s,
            Err(e) => panic!("oracle rejected a planner-accepted input: {e}"),
        };
        assert_eq!(p.schedule().tasks, full.tasks);
        assert_eq!(p.schedule().stats, full.stats);
        assert_eq!(p.schedule().trigger_offsets, full.trigger_offsets);
        assert_eq!(p.schedule().num_steps, full.num_steps);
    }

    #[test]
    fn fresh_session_matches_full_planner() {
        for budget in [90, 120, 200, 1000] {
            let p = Planner::new(UnifiedScheduler::default(), jagged(budget)).unwrap();
            assert_matches(&p);
        }
    }

    #[test]
    fn empty_delta_is_identity_and_patches_nothing() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(120)).unwrap();
        let before = p.schedule().clone();
        let out = p.replan(&ReplanDelta::default()).unwrap();
        assert_eq!(out.triggers_patched, 0);
        assert!(out.patched_in_place);
        assert_eq!(out.layers_reused, p.input().layers.len());
        assert_eq!(p.schedule(), &before);
        assert_matches(&p);
    }

    #[test]
    fn single_layer_delta_matches_full_replan() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(120)).unwrap();
        let mut lp = p.input().layers[2].clone();
        lp.working_set = 40;
        lp.shard_pages = vec![9, 9, 9, 9, 9];
        lp.full_param_bytes = 45;
        p.replan(&ReplanDelta::layer(2, lp)).unwrap();
        assert_matches(&p);
    }

    #[test]
    fn ws_increase_fast_path_stays_identical_and_session_coherent() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(200)).unwrap();
        // A small pure working-set increase: the slack fast path's shape.
        let mut lp = p.input().layers[1].clone();
        lp.working_set += 3;
        let out = p.replan(&ReplanDelta::layer(1, lp)).unwrap();
        assert!(out.patched_in_place);
        assert_eq!(out.triggers_patched, 0);
        assert_eq!(out.layers_reused, 3);
        assert_matches(&p);
        // The patched trees must agree with the baseline across a following
        // slow-path replan (reset_reverting diffs against the new input) …
        p.replan(&ReplanDelta::capacity(120)).unwrap();
        assert_matches(&p);
        // … and a decrease (slow path by construction) still matches.
        let mut lp = p.input().layers[1].clone();
        lp.working_set -= 2;
        p.replan(&ReplanDelta::layer(1, lp)).unwrap();
        assert_matches(&p);
        // A bump past any plausible margin falls back and still matches
        // (layer 0 then needs 107 of the 120-byte budget at its steps).
        let mut lp = p.input().layers[0].clone();
        lp.working_set += 40;
        p.replan(&ReplanDelta::layer(0, lp)).unwrap();
        assert_matches(&p);
    }

    #[test]
    fn outage_capacity_delta_matches_full_replan() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(200)).unwrap();
        // Degraded headroom: shrink, then elastic recovery: grow back.
        p.replan(&ReplanDelta::capacity(95)).unwrap();
        assert_matches(&p);
        let out = p.replan(&ReplanDelta::capacity(400)).unwrap();
        assert_matches(&p);
        assert!(out.triggers_total > 0);
    }

    #[test]
    fn resize_delta_reshaping_every_shard_matches_full_replan() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(150)).unwrap();
        // dp 2x: every shard halves (pages shrink), like an elastic grow.
        let halved: Vec<LayerPlan> = p
            .input()
            .layers
            .iter()
            .map(|l| LayerPlan {
                layer: l.layer,
                shard_pages: l.shard_pages.iter().map(|b| b / 2).collect(),
                full_param_bytes: l.full_param_bytes,
                working_set: l.working_set,
            })
            .collect();
        p.replan(&ReplanDelta {
            replace_layers: Some(halved),
            ..ReplanDelta::default()
        })
        .unwrap();
        assert_matches(&p);
    }

    #[test]
    fn layer_count_change_requires_steps_and_works_with_them() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(150)).unwrap();
        let three: Vec<LayerPlan> = p.input().layers[..3].to_vec();
        let err = p
            .replan(&ReplanDelta {
                replace_layers: Some(three.clone()),
                ..ReplanDelta::default()
            })
            .unwrap_err();
        assert!(matches!(err, Error::BadReplanDelta(_)));
        assert_matches(&p); // rejected delta left the session intact
        p.replan(&ReplanDelta {
            replace_layers: Some(three),
            steps: Some(SchedulerInput::default_steps(3)),
            ..ReplanDelta::default()
        })
        .unwrap();
        assert_matches(&p);
    }

    #[test]
    fn step_list_delta_matches_full_replan() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(150)).unwrap();
        // A degraded iteration: layer 1 recomputed twice in the backward.
        let mut steps = SchedulerInput::default_steps(4);
        steps.push(StepKind::Backward(1));
        steps.insert(2, StepKind::Forward(1));
        p.replan(&ReplanDelta {
            steps: Some(steps),
            ..ReplanDelta::default()
        })
        .unwrap();
        assert_matches(&p);
    }

    #[test]
    fn infeasible_delta_leaves_previous_plan_live() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(150)).unwrap();
        let before = p.schedule().clone();
        let err = p.replan(&ReplanDelta::capacity(10)).unwrap_err();
        assert!(matches!(err, Error::WorkingSetTooLarge { .. }));
        assert_eq!(p.schedule(), &before);
        assert_eq!(p.input().gpu_budget, 150);
        assert_matches(&p);
        // And the session still replans fine afterwards.
        p.replan(&ReplanDelta::capacity(120)).unwrap();
        assert_matches(&p);
    }

    #[test]
    fn diff_reconstructs_target_input() {
        let old = jagged(150);
        let mut new = jagged(95);
        new.layers[0].shard_pages = vec![4; 7];
        new.layers[3].working_set = 11;
        new.step_base_load = (0..new.steps.len() as u64).map(|j| j % 5).collect();
        let d = ReplanDelta::diff(&old, &new);
        assert_eq!(d.layers.len(), 2);
        let mut p = Planner::new(UnifiedScheduler::default(), old).unwrap();
        p.replan(&d).unwrap();
        let full = oracle::schedule(&UnifiedScheduler::default(), &new).unwrap();
        assert_eq!(p.schedule().tasks, full.tasks);
        assert_eq!(p.schedule().stats, full.stats);
        assert_eq!(p.schedule().trigger_offsets, full.trigger_offsets);
    }

    #[test]
    fn long_replan_sequence_stays_identical() {
        // Exercise buffer reuse: many deltas through one session.
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(130)).unwrap();
        for round in 0u64..24 {
            let d = match round % 4 {
                0 => ReplanDelta::capacity(95 + (round * 13) % 200),
                1 => {
                    let idx = (round as usize / 4) % 4;
                    let mut lp = p.input().layers[idx].clone();
                    lp.working_set = (round * 7) % 30;
                    lp.shard_pages = (0..(round % 5)).map(|k| 3 + k * 4).collect();
                    ReplanDelta::layer(idx, lp)
                }
                2 => {
                    let mut steps = SchedulerInput::default_steps(4);
                    if round % 8 == 2 {
                        steps.push(StepKind::Forward((round as usize) % 4));
                    }
                    ReplanDelta {
                        steps: Some(steps),
                        ..ReplanDelta::default()
                    }
                }
                _ => ReplanDelta::default(),
            };
            match p.replan(&d) {
                Ok(out) => {
                    assert!(out.triggers_patched <= out.triggers_total);
                    assert_matches(&p);
                }
                Err(Error::WorkingSetTooLarge { .. }) => assert_matches(&p),
                Err(e) => panic!("unexpected replan error: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::scheduler::oracle;
    use proptest::prelude::*;

    /// Abstract mutations, resolved against the *current* input at apply
    /// time (indices mod the live layer count, steps covering every layer).
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
        /// Pure working-set increase on one layer — the shape the slack
        /// fast path certifies; falls back to the slow path when the
        /// recorded margins are too tight, so both paths get hit.
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

    fn to_delta(m: &Mutation, cur: &SchedulerInput) -> ReplanDelta {
        let n = cur.layers.len();
        match m {
            Mutation::Layer {
                raw,
                pages,
                full,
                ws,
            } => {
                let idx = raw % n;
                ReplanDelta::layer(
                    idx,
                    LayerPlan {
                        layer: idx,
                        shard_pages: pages.clone(),
                        full_param_bytes: *full,
                        working_set: *ws,
                    },
                )
            }
            Mutation::Budget(b) => ReplanDelta::capacity(*b),
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
                ReplanDelta {
                    steps: Some(steps),
                    ..ReplanDelta::default()
                }
            }
            Mutation::WsBump { raw, d } => {
                let idx = raw % n;
                let mut lp = cur.layers[idx].clone();
                lp.working_set += d;
                ReplanDelta::layer(idx, lp)
            }
            Mutation::Base(seed) => ReplanDelta {
                step_base_load: Some(match seed {
                    Some(k) => (0..cur.steps.len() as u64).map(|j| (j * k) % 31).collect(),
                    None => Vec::new(),
                }),
                ..ReplanDelta::default()
            },
            Mutation::Resize(shapes) => {
                let layers: Vec<LayerPlan> = shapes
                    .iter()
                    .enumerate()
                    .map(|(l, (pages, full, ws))| LayerPlan {
                        layer: l,
                        shard_pages: pages.clone(),
                        full_param_bytes: *full,
                        working_set: *ws,
                    })
                    .collect();
                let steps = SchedulerInput::default_steps(layers.len());
                ReplanDelta {
                    replace_layers: Some(layers),
                    steps: Some(steps),
                    ..ReplanDelta::default()
                }
            }
        }
    }

    /// Mirror of the planner's delta application, kept independent so the
    /// test's expected input cannot share planner bugs.
    fn apply(input: &mut SchedulerInput, d: &ReplanDelta) {
        if let Some(rl) = &d.replace_layers {
            input.layers = rl.clone();
        }
        for (i, lp) in &d.layers {
            input.layers[*i] = lp.clone();
        }
        if let Some(s) = &d.steps {
            input.steps = s.clone();
        }
        if let Some(b) = &d.step_base_load {
            input.step_base_load = b.clone();
        }
        if let Some(b) = d.gpu_budget {
            input.gpu_budget = b;
        }
        if let Some(p) = d.page_size {
            input.page_size = p;
        }
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

        /// Random mutation sequences (outage / permanent / resize deltas):
        /// after every accepted delta the incremental schedule is
        /// byte-identical to the oracle's plan of the mutated input, and a
        /// rejected delta leaves the session byte-identical to the oracle's
        /// plan of the previous input.
        #[test]
        fn incremental_replan_matches_from_scratch(
            (mut input, sched) in base_input_strategy(),
            muts in proptest::collection::vec(mutation_strategy(), 1..6)
        ) {
            let planner = Planner::new(sched.clone(), input.clone());
            let mut planner = match planner {
                Ok(p) => p,
                Err(_) => {
                    // Infeasible seed: the oracle must agree.
                    prop_assert!(oracle::schedule(&sched, &input).is_err());
                    return Ok(());
                }
            };
            for m in &muts {
                let d = to_delta(m, planner.input());
                let mut cand = input.clone();
                apply(&mut cand, &d);
                match planner.replan(&d) {
                    Ok(_) => {
                        input = cand;
                        let full = oracle::schedule(&sched, &input);
                        let full = match full {
                            Ok(s) => s,
                            Err(e) => {
                                return Err(TestCaseError::Fail(
                                    format!("planner accepted what the oracle rejects: {e}")));
                            }
                        };
                        prop_assert_eq!(&planner.schedule().tasks, &full.tasks);
                        prop_assert_eq!(planner.schedule().stats, full.stats);
                        prop_assert_eq!(
                            &planner.schedule().trigger_offsets,
                            &full.trigger_offsets
                        );
                        prop_assert_eq!(planner.schedule().num_steps, full.num_steps);
                    }
                    Err(Error::WorkingSetTooLarge { .. }) => {
                        // The mutated input must genuinely be infeasible,
                        // and the session must still match the old input.
                        prop_assert!(oracle::schedule(&sched, &cand).is_err());
                        let full = match oracle::schedule(&sched, &input) {
                            Ok(s) => s,
                            Err(e) => {
                                return Err(TestCaseError::Fail(
                                    format!("previous input became infeasible: {e}")));
                            }
                        };
                        prop_assert_eq!(&planner.schedule().tasks, &full.tasks);
                    }
                    Err(e) => {
                        return Err(TestCaseError::Fail(format!("unexpected error: {e}")));
                    }
                }
            }
        }
    }
}
