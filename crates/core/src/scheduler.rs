//! The Unified Scheduler — Section 4.2 and Algorithm 1 of the paper.
//!
//! "The Unified Scheduler takes these statistics [tensor access patterns and
//! life-times] as input and schedules each operation at the right time during
//! training ... including calling the Allocator to move tensors, calling the
//! Executor to perform GPU computations, and calling the Communicator for
//! inter-GPU communication."
//!
//! The algorithm is reproduced with both phases:
//!
//! * **Phase 1** seeds the schedule with `move_to_gpu` tasks for every page
//!   of every layer's parameter shard ("based on our prior knowledge that
//!   the speed of CPU-GPU data transfer (32GB/s) is slower than that of
//!   GPU-GPU communication (200GB/s)"), then walks the compute steps in
//!   order, popping the most recent movement tasks onto a *wait stack*
//!   whenever the layer at hand would not fit (lines 7–9), emitting
//!   `all_gather` + `compute` tasks on demand (lines 10–12), and backfilling
//!   waiting movements as memory frees up (lines 13–15).
//! * **Phase 2** advances each `all_gather` to the earliest trigger id whose
//!   resulting peak memory stays within the GPU budget, maximizing the
//!   overlap between communication and earlier computation (lines 18–21).
//!
//! We extend the paper's single pass over layers to the full iteration's
//! compute-step list (forward 0..n, backward n-1..0), with the trace ids of
//! [`crate::tracer::Trace`] as trigger ids, so parameter residency is
//! planned across both passes.
//!
//! # Complexity (DESIGN.md §9)
//!
//! At the paper's scale a layer shard is 10⁴–10⁵ pages, so the planner's
//! residency timeline ([`TimelineState`]) is backed by a lazy range-add /
//! range-max segment tree ([`crate::seqtree::RangeAddMax`]) and every
//! timeline operation — evict, re-add fit check, re-add commit, gather
//! advancement, peak — is O(log steps).
//!
//! This module holds the algorithm's types, its configuration
//! ([`UnifiedScheduler`]) and that timeline. The one implementation of the
//! two phases and the task emission is [`crate::replan::Planner`], which
//! batches whole same-layer page runs into single range updates for an
//! overall O((pages + steps)·log steps) plan and keeps its decisions alive
//! for incremental replanning; [`UnifiedScheduler::schedule`] is a
//! from-scratch `Planner` session. The original per-page / per-step
//! planner is retained verbatim in `oracle` (test and `verify-extras`
//! builds only) as the independent reference the proptests prove
//! byte-identical.

use crate::error::Result;
use crate::replan::Planner;
use crate::seqtree::RangeAddMax;
use serde::{Deserialize, Serialize};

/// A planned parameter page: `pages[index]` of `layer`'s local shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlannedPage {
    pub layer: usize,
    pub index: usize,
    pub bytes: u64,
}

/// One compute step of the iteration (trigger-id domain of the schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepKind {
    Forward(usize),
    Backward(usize),
}

impl StepKind {
    pub fn layer(self) -> usize {
        match self {
            StepKind::Forward(l) | StepKind::Backward(l) => l,
        }
    }
}

/// Task operations emitted by Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskOp {
    /// Move one parameter-shard page from CPU to GPU over PCIe.
    MoveToGpu(PlannedPage),
    /// All-gather the remote shards of one page across the data-parallel
    /// ranks (plus a CPU fetch when the local shard was never moved in).
    /// `step` is the compute step this gather feeds.
    AllGather { page: PlannedPage, step: usize },
    /// Run a compute step on the GPU.
    Compute(StepKind),
}

/// A scheduled task: `{operation, page, trigger_id}` in the paper's wording.
/// `trigger_id` is the compute-step id at (or after) which the task launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleTask {
    pub op: TaskOp,
    pub trigger_id: usize,
}

/// Per-layer scheduling input distilled from the Tracer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerPlan {
    pub layer: usize,
    /// Byte sizes of the pages of this rank's parameter shard (FP16 params
    /// only — optimizer states stay on CPU/SSD per the Section 4.2 placement
    /// heuristic unless cached separately).
    pub shard_pages: Vec<u64>,
    /// Bytes of the layer's *full* FP16 parameters once gathered.
    pub full_param_bytes: u64,
    /// Peak transient bytes of the layer's compute step (activations +
    /// gradient buffers).
    pub working_set: u64,
}

impl LayerPlan {
    pub fn shard_bytes(&self) -> u64 {
        self.shard_pages.iter().sum()
    }
}

/// A [`LayerPlan`]'s byte totals as a `(shard, full, working_set)` triple.
pub(crate) type LayerTotals = (u64, u64, u64);

/// One timeline revert patch: `(layer, old totals, new totals)`.
pub(crate) type LayerPatch = (usize, LayerTotals, LayerTotals);

/// Scheduler input: the model plan, the compute-step list, the GPU byte
/// budget available to model states, and the page size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerInput {
    pub layers: Vec<LayerPlan>,
    pub steps: Vec<StepKind>,
    pub gpu_budget: u64,
    pub page_size: u64,
    /// Extra GPU bytes pinned at each step independent of this schedule's
    /// decisions — e.g. accumulated activations of *other* layers when
    /// recomputation is off. Empty = zero everywhere.
    pub step_base_load: Vec<u64>,
}

impl SchedulerInput {
    /// Compute steps for `n` layers: forward 0..n then backward n-1..0.
    pub fn default_steps(n: usize) -> Vec<StepKind> {
        (0..n)
            .map(StepKind::Forward)
            .chain((0..n).rev().map(StepKind::Backward))
            .collect()
    }
}

/// Aggregate statistics of a schedule, used by reports and the capacity
/// search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Pages whose `move_to_gpu` survived phase 1 (GPU-resident shard).
    pub pages_resident: usize,
    /// Pages evicted through the wait stack and never re-scheduled.
    pub pages_cpu_bound: usize,
    /// Peak planned GPU bytes over all steps.
    pub peak_gpu_bytes: u64,
    /// Fraction of shard bytes resident on GPU.
    pub resident_fraction: f64,
    /// Number of all-gathers whose trigger was advanced in phase 2.
    pub gathers_advanced: usize,
}

/// The schedule: tasks ordered by trigger id, a per-trigger index, and
/// stats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    pub tasks: Vec<ScheduleTask>,
    pub stats: ScheduleStats,
    pub num_steps: usize,
    /// `trigger_offsets[t]..trigger_offsets[t + 1]` is the range of `tasks`
    /// with trigger id `t` (length `num_steps + 1`). The executor reads one
    /// trigger's tasks per step, so the lookup must not scan the task list.
    pub trigger_offsets: Vec<usize>,
}

impl Schedule {
    /// All tasks with the given trigger id, in emission order — an O(1)
    /// slice lookup into the trigger-sorted task list.
    pub fn at_trigger(&self, id: usize) -> impl Iterator<Item = &ScheduleTask> {
        self.tasks[self.trigger_range(id)].iter()
    }

    /// The index range of tasks with trigger id `id`.
    pub fn trigger_range(&self, id: usize) -> std::ops::Range<usize> {
        if id + 1 >= self.trigger_offsets.len() {
            return 0..0;
        }
        self.trigger_offsets[id]..self.trigger_offsets[id + 1]
    }
}

/// The Unified Scheduler component. `phase2` enables the all-gather
/// advancement pass (on in production; the scheduler ablation turns it off).
/// `prefetch_horizon` caps how many steps before its compute a gather may
/// launch: advancing further buys no extra overlap once the transfer hides
/// behind one or two intervening computes, and the memory it would pin is
/// better spent on the optimizer-state cache (Section 4.2's "dynamically
/// make cache size decisions ... based on tensor lifetime information").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnifiedScheduler {
    pub phase2: bool,
    pub prefetch_horizon: usize,
}

impl Default for UnifiedScheduler {
    fn default() -> Self {
        Self {
            phase2: true,
            prefetch_horizon: 4,
        }
    }
}

/// Incremental residency timeline: planned GPU bytes per compute step,
/// maintained as a lazy range-add / range-max segment tree so every
/// scheduling decision is O(log steps) — near-linear planning overall even
/// for hundred-layer models with 10⁵ shard pages.
///
/// Logical content (identical to `oracle::NaiveTimeline`): `mem[j]` =
/// resident shard bytes live at step `j` + gathered-buffer extras whose
/// span covers `j` + step `j`'s working set.
///
/// The state owns every buffer (no borrow of the input) so the incremental
/// replanner (`crate::replan`) can keep one timeline alive across plans and
/// re-arm it with [`TimelineState::reset`] — reusing the tree nodes and all
/// per-layer vectors instead of reallocating them each call. Methods that
/// need the model take `&SchedulerInput` explicitly; callers must pass the
/// same input the state was last reset with.
pub(crate) struct TimelineState {
    mem: RangeAddMax,
    /// Snapshot of `mem` as of the last reset, *before* any decision was
    /// applied — the revert point for [`TimelineState::reset_reverting`].
    mem_base: RangeAddMax,
    /// Pristine per-layer shard bytes matching `mem_base`.
    resident0_base: Vec<u64>,
    /// Scratch: the initial per-step totals the tree is (re)built from.
    mem0: Vec<u64>,
    /// Scratch: difference array for the resident-shard fill.
    diff: Vec<i64>,
    /// Bytes of layer `l`'s shard moved at trigger 0 and still scheduled.
    resident0: Vec<u64>,
    /// Re-added bytes per layer as `(trigger, cumulative bytes)`, trigger
    /// ascending — the prefix sums that replace the oracle's linear scan in
    /// `resident()`.
    resched_cum: Vec<Vec<(usize, u64)>>,
    /// Current all-gather trigger per step (starts just-in-time at `i`).
    gather_trigger: Vec<usize>,
    /// Last compute step touching each layer.
    last_use: Vec<usize>,
    /// The compute steps of each layer (forward and backward ids),
    /// ascending.
    steps_of_layer: Vec<Vec<usize>>,
    /// Per-layer step bitmaps (`words` u64 words per layer): O(1)
    /// is-own-step membership, replacing the oracle's `own.contains(&j)`.
    own_bits: Vec<u64>,
    words: usize,
}

impl TimelineState {
    pub(crate) fn new(input: &SchedulerInput) -> Self {
        let mut state = Self {
            mem: RangeAddMax::from_values(&[]),
            mem_base: RangeAddMax::from_values(&[]),
            resident0_base: Vec::new(),
            mem0: Vec::new(),
            diff: Vec::new(),
            resident0: Vec::new(),
            resched_cum: Vec::new(),
            gather_trigger: Vec::new(),
            last_use: Vec::new(),
            steps_of_layer: Vec::new(),
            own_bits: Vec::new(),
            words: 0,
        };
        state.reset(input, true);
        state
    }

    /// Re-arm for a fresh plan over `input`, reusing every allocation. The
    /// step-derived structures (per-layer step lists, bitmaps, last uses)
    /// are only rebuilt when `steps_changed` says the step list differs from
    /// the previous reset — layer/budget deltas skip that entire pass.
    pub(crate) fn reset(&mut self, input: &SchedulerInput, steps_changed: bool) {
        let n_steps = input.steps.len();
        let n_layers = input.layers.len();
        if steps_changed || self.steps_of_layer.len() != n_layers || self.words == 0 {
            self.words = n_steps.div_ceil(64);
            for v in &mut self.steps_of_layer {
                v.clear();
            }
            self.steps_of_layer.resize_with(n_layers, Vec::new);
            self.own_bits.clear();
            self.own_bits.resize(n_layers * self.words, 0);
            for (j, s) in input.steps.iter().enumerate() {
                let l = s.layer();
                self.steps_of_layer[l].push(j);
                self.own_bits[l * self.words + j / 64] |= 1 << (j % 64);
            }
            self.last_use.clear();
            self.last_use
                .extend(self.steps_of_layer.iter().map(|v| match v.last() {
                    Some(&j) => j,
                    // The trace emits at least a forward step per layer.
                    None => unreachable!("layer with no steps in the trace"),
                }));
        }
        self.resident0.clear();
        self.resident0
            .extend(input.layers.iter().map(|l| l.shard_bytes()));
        // Resident shards via a difference array (O(layers + steps) instead
        // of the oracle's O(layers × steps) fill): every page starts at
        // trigger 0, live until the layer's last use.
        self.diff.clear();
        self.diff.resize(n_steps + 1, 0);
        for (l, &bytes) in self.resident0.iter().enumerate() {
            self.diff[0] += bytes as i64;
            self.diff[self.last_use[l] + 1] -= bytes as i64;
        }
        self.mem0.clear();
        self.mem0.resize(n_steps, 0);
        let mut running = 0i64;
        for (j, m) in self.mem0.iter_mut().enumerate() {
            running += self.diff[j];
            *m = running as u64;
        }
        // Per-step working set + just-in-time gather extra (full − resident)
        // + external base load.
        for (j, s) in input.steps.iter().enumerate() {
            let l = s.layer();
            self.mem0[j] += input.layers[l].working_set;
            self.mem0[j] += input.layers[l]
                .full_param_bytes
                .saturating_sub(self.resident0[l]);
            if let Some(&base) = input.step_base_load.get(j) {
                self.mem0[j] += base;
            }
        }
        self.mem.reset_from_values(&self.mem0);
        self.mem_base.restore_from(&self.mem);
        self.resident0_base.clone_from(&self.resident0);
        for v in &mut self.resched_cum {
            v.clear();
        }
        self.resched_cum.resize_with(n_layers, Vec::new);
        self.gather_trigger.clear();
        self.gather_trigger.extend(0..n_steps);
    }

    /// Re-arm by *range-revert* instead of rebuild — valid only when the
    /// step list, layer count and base load are unchanged since the last
    /// reset. The byte deltas of the touched layers are applied to the
    /// baseline tree as O(log steps) range patches, then the live tree
    /// reverts to that baseline with one `restore_from` memcpy: untouched
    /// layers' timeline contributions come back verbatim, nothing is
    /// recomputed per-page or per-step.
    ///
    /// Each patch is `(layer, old LayerPlan totals, new LayerPlan totals)`
    /// as `(shard, full, working_set)` byte triples.
    pub(crate) fn reset_reverting(&mut self, input: &SchedulerInput, patches: &[LayerPatch]) {
        for &(l, (old_shard, old_full, old_ws), (new_shard, new_full, new_ws)) in patches {
            let lu = self.last_use[l];
            let d_res = new_shard as i64 - old_shard as i64;
            self.mem_base.add(0, lu, d_res);
            let old_extra = old_ws + old_full.saturating_sub(old_shard);
            let new_extra = new_ws + new_full.saturating_sub(new_shard);
            let d_extra = new_extra as i64 - old_extra as i64;
            if d_extra != 0 {
                for &s in &self.steps_of_layer[l] {
                    self.mem_base.add(s, s, d_extra);
                }
            }
            self.resident0_base[l] = new_shard;
        }
        self.mem.restore_from(&self.mem_base);
        self.resident0.clone_from(&self.resident0_base);
        for v in &mut self.resched_cum {
            v.clear();
        }
        self.gather_trigger.clear();
        self.gather_trigger.extend(0..input.steps.len());
    }

    /// Whether step `j` computes layer `l` (O(1) bitmap lookup).
    pub(crate) fn is_own_step(&self, l: usize, j: usize) -> bool {
        self.own_bits[l * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    /// The compute steps of layer `l`, ascending.
    pub(crate) fn steps_of(&self, l: usize) -> &[usize] {
        &self.steps_of_layer[l]
    }

    /// Grow the planned total at layer `l`'s own compute steps by `d` bytes
    /// on *both* the live tree and the reset baseline — the replanner's
    /// slack fast path committing a working-set-only increase without
    /// re-running decisions. Patching `mem_base` too keeps the next
    /// [`Self::reset_reverting`] diffing against the input this timeline
    /// now reflects.
    pub(crate) fn nudge_own_steps(&mut self, l: usize, d: u64) {
        for &s in &self.steps_of_layer[l] {
            self.mem.add(s, s, d as i64);
            self.mem_base.add(s, s, d as i64);
        }
    }

    /// The planned total at step `i` (the phase-1 fit check's read).
    pub(crate) fn step_total(&self, i: usize) -> u64 {
        self.mem.get(i)
    }

    /// Last compute step touching layer `l`.
    pub(crate) fn last_use(&self, l: usize) -> usize {
        self.last_use[l]
    }

    /// The current all-gather trigger of every step.
    pub(crate) fn gather_triggers(&self) -> &[usize] {
        &self.gather_trigger
    }

    /// Shard bytes of layer `l` resident at step `j` — prefix-sum lookup
    /// over the re-add history instead of a linear scan.
    fn resident(&self, l: usize, j: usize) -> u64 {
        if j > self.last_use[l] {
            return 0;
        }
        let cum = &self.resched_cum[l];
        let idx = cum.partition_point(|&(t, _)| t <= j);
        self.resident0[l] + if idx == 0 { 0 } else { cum[idx - 1].1 }
    }

    /// Evict `total` trigger-0 bytes of layer `l` in one batch (phase 1,
    /// lines 7–9): the shard bytes leave every step, but the layer's own
    /// compute steps must now gather those bytes remotely, so their totals
    /// are unchanged.
    pub(crate) fn evict(&mut self, l: usize, total: u64) {
        self.resident0[l] -= total;
        self.mem.add(0, self.last_use[l], -(total as i64));
        for &s in &self.steps_of_layer[l] {
            self.mem.add(s, s, total as i64); // gather extra grows
        }
    }

    /// The byte capacity for re-adding layer-`l` pages at trigger `t`:
    /// `None` when nothing fits (including zero-byte pages), `Some(cap)`
    /// when any batch of total size `<= cap` keeps every affected step
    /// within budget. Affected steps are `[t, last_use(l)]` minus the
    /// layer's own compute steps (net-zero there), checked as range-max
    /// queries over the gaps between own steps.
    pub(crate) fn readd_capacity(&self, input: &SchedulerInput, l: usize, t: usize) -> Option<u64> {
        if t > self.last_use[l] {
            return None; // pages would arrive after the layer's last use
        }
        let own = &self.steps_of_layer[l];
        let mut gap_max: Option<u64> = None;
        let mut seg_start = t;
        for &s in &own[own.partition_point(|&s| s < t)..] {
            if s > seg_start {
                gap_max = gap_max.max(self.mem.max_in(seg_start, s - 1));
            }
            seg_start = s + 1;
        }
        if seg_start <= self.last_use[l] {
            gap_max = gap_max.max(self.mem.max_in(seg_start, self.last_use[l]));
        }
        match gap_max {
            None => Some(u64::MAX), // only own steps affected: anything fits
            Some(m) => input.gpu_budget.checked_sub(m),
        }
    }

    /// Commit a batched re-add of `total` bytes of layer `l` at trigger `t`
    /// (phase 1, lines 13–15).
    pub(crate) fn readd(&mut self, l: usize, total: u64, t: usize) {
        self.mem.add(t, self.last_use[l], total as i64);
        for &s in &self.steps_of_layer[l] {
            if s >= t {
                self.mem.add(s, s, -(total as i64)); // gather extra shrinks
            }
        }
        let prev = self.resched_cum[l].last().map_or(0, |&(_, c)| c);
        self.resched_cum[l].push((t, prev + total));
    }

    /// Phase 2 (lines 18–21): advance step `i`'s all-gather to the earliest
    /// trigger that keeps every step within budget. Extending the gather's
    /// span from `[g, i]` to `[g−1, i]` adds its buffer only at step `g−1`,
    /// so the stop point is the latest step in `[floor, g−1]` already above
    /// `budget − extra` — one segment-tree descent instead of a per-step
    /// walk.
    ///
    /// Each fired advance also records the span it occupied and the minimum
    /// byte margin by which the stop condition held across that span:
    /// `(new_g, g − 1, margin)` is pushed onto `spans`. A later increase of
    /// `≤ margin` bytes at any single step inside the span provably leaves
    /// this advance's stop point unchanged — the evidence the replanner's
    /// slack fast path runs on.
    pub(crate) fn advance_gather(
        &mut self,
        input: &SchedulerInput,
        i: usize,
        horizon: usize,
        spans: &mut Vec<(usize, usize, u64)>,
    ) -> bool {
        let l = input.steps[i].layer();
        let extra = input.layers[l]
            .full_param_bytes
            .saturating_sub(self.resident(l, i));
        let floor = i.saturating_sub(horizon);
        let g = self.gather_trigger[i];
        if g <= floor {
            return false;
        }
        let new_g = match input.gpu_budget.checked_sub(extra) {
            // The gather buffer alone overflows the budget: no step can
            // absorb it (mem ≥ 0), so the trigger stays just-in-time.
            None => g,
            Some(threshold) => match self.mem.last_above(floor, g - 1, threshold) {
                Some(j) => j + 1,
                None => floor,
            },
        };
        if new_g < g {
            self.mem.add(new_g, g - 1, extra as i64);
            self.gather_trigger[i] = new_g;
            // Every step in [new_g, g−1] sat at ≤ threshold before the add,
            // i.e. at ≤ budget after it; the span max after the add bounds
            // how close the tightest step came.
            let span_max = self.mem.max_in(new_g, g - 1).unwrap_or(0);
            let margin = input.gpu_budget.saturating_sub(span_max);
            spans.push((new_g, g - 1, margin));
            true
        } else {
            false
        }
    }

    pub(crate) fn peak(&self) -> u64 {
        self.mem.max_all()
    }
}

impl UnifiedScheduler {
    /// Run Algorithm 1 on `input`: a from-scratch [`Planner`] session,
    /// consumed for its schedule.
    ///
    /// Errors with [`crate::Error::WorkingSetTooLarge`] when some layer
    /// cannot run even with an empty GPU (gathered parameters + working set
    /// exceed the budget) — the condition under which the paper's system is
    /// also out of options without shrinking the batch — and with
    /// [`crate::Error::BadReplanDelta`] on a malformed input (empty model, a
    /// step naming a missing layer, a layer with no step).
    pub fn schedule(&self, input: &SchedulerInput) -> Result<Schedule> {
        Planner::new(self.clone(), input.clone()).map(Planner::into_schedule)
    }
}

/// The pre-optimization Algorithm 1 planner, retained verbatim as the
/// independent correctness oracle: per-page O(steps) timeline updates,
/// linear `resident()` scans, `contains`-based fit checks and a comparison
/// sort. It shares no decision code with [`crate::replan::Planner`]; the
/// scheduler and replan proptests prove every from-scratch and incremental
/// plan byte-identical to it, and the `planning_cost` binary records the
/// speedup in `BENCH_plan.json`. Compiled only for tests and under the
/// `verify-extras` feature (the bench crate enables it), so it cannot land
/// in a production path.
#[cfg(any(test, feature = "verify-extras"))]
pub mod oracle {
    use super::*;
    use crate::error::Error;

    /// Build the per-trigger offset table from a trigger-sorted task list.
    /// Triggers are confined to `0..num_steps` by construction (re-adds
    /// land at `i + 1 <= last_use < num_steps`).
    fn trigger_offsets_of(tasks: &[ScheduleTask], num_steps: usize) -> Vec<usize> {
        let mut offsets = vec![0usize; num_steps + 1];
        for t in tasks {
            offsets[t.trigger_id + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        offsets
    }

    /// The naive residency timeline: a plain `Vec<u64>` with O(steps)
    /// updates per page.
    pub struct NaiveTimeline<'a> {
        input: &'a SchedulerInput,
        mem: Vec<u64>,
        resident0: Vec<u64>,
        rescheduled: Vec<Vec<(usize, u64)>>,
        gather_trigger: Vec<usize>,
        last_use: Vec<usize>,
        steps_of_layer: Vec<Vec<usize>>,
    }

    impl<'a> NaiveTimeline<'a> {
        pub fn new(input: &'a SchedulerInput) -> Self {
            let n_steps = input.steps.len();
            let n_layers = input.layers.len();
            let mut steps_of_layer = vec![Vec::new(); n_layers];
            for (j, s) in input.steps.iter().enumerate() {
                steps_of_layer[s.layer()].push(j);
            }
            let last_use: Vec<usize> = steps_of_layer
                .iter()
                .map(|v| match v.last() {
                    Some(&j) => j,
                    // The trace emits at least a forward step per layer.
                    None => unreachable!("layer with no steps in the trace"),
                })
                .collect();
            let resident0: Vec<u64> = input.layers.iter().map(|l| l.shard_bytes()).collect();
            let mut mem = vec![0u64; n_steps];
            for (l, &bytes) in resident0.iter().enumerate() {
                for m in mem.iter_mut().take(last_use[l] + 1) {
                    *m += bytes;
                }
            }
            for (j, s) in input.steps.iter().enumerate() {
                let l = s.layer();
                mem[j] += input.layers[l].working_set;
                mem[j] += input.layers[l]
                    .full_param_bytes
                    .saturating_sub(resident0[l]);
                if let Some(&base) = input.step_base_load.get(j) {
                    mem[j] += base;
                }
            }
            Self {
                input,
                mem,
                resident0,
                rescheduled: vec![Vec::new(); n_layers],
                gather_trigger: (0..n_steps).collect(),
                last_use,
                steps_of_layer,
            }
        }

        fn resident(&self, l: usize, j: usize) -> u64 {
            if j > self.last_use[l] {
                return 0;
            }
            self.resident0[l]
                + self.rescheduled[l]
                    .iter()
                    .filter(|(t, _)| *t <= j)
                    .map(|(_, b)| b)
                    .sum::<u64>()
        }

        fn evict(&mut self, l: usize, bytes: u64) {
            self.resident0[l] -= bytes;
            for j in 0..=self.last_use[l] {
                self.mem[j] -= bytes;
            }
            for &i in &self.steps_of_layer[l] {
                self.mem[i] += bytes;
            }
        }

        fn readd_fits(&self, l: usize, bytes: u64, t: usize) -> bool {
            if t > self.last_use[l] {
                return false;
            }
            let own: &[usize] = &self.steps_of_layer[l];
            (t..=self.last_use[l]).all(|j| {
                if own.contains(&j) && j >= t {
                    true
                } else {
                    self.mem[j] + bytes <= self.input.gpu_budget
                }
            })
        }

        fn readd(&mut self, l: usize, bytes: u64, t: usize) {
            debug_assert!(self.readd_fits(l, bytes, t));
            for j in t..=self.last_use[l] {
                self.mem[j] += bytes;
            }
            for &i in &self.steps_of_layer[l] {
                if i >= t {
                    self.mem[i] -= bytes;
                }
            }
            self.rescheduled[l].push((t, bytes));
        }

        fn advance_gather(&mut self, i: usize, horizon: usize) -> bool {
            let l = self.input.steps[i].layer();
            let extra = self.input.layers[l]
                .full_param_bytes
                .saturating_sub(self.resident(l, i));
            let floor = i.saturating_sub(horizon);
            let mut g = self.gather_trigger[i];
            let original = g;
            while g > floor && self.mem[g - 1] + extra <= self.input.gpu_budget {
                g -= 1;
                self.mem[g] += extra;
            }
            self.gather_trigger[i] = g;
            g < original
        }

        fn peak(&self) -> u64 {
            self.mem.iter().copied().max().unwrap_or(0)
        }
    }

    /// Run the reference per-page Algorithm 1 — the exact pre-optimization
    /// `UnifiedScheduler::schedule`.
    pub fn schedule(sched: &UnifiedScheduler, input: &SchedulerInput) -> Result<Schedule> {
        assert!(!input.layers.is_empty(), "empty model");
        let n_steps = input.steps.len();

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

        let mut res = NaiveTimeline::new(input);

        let mut move_stack: Vec<PlannedPage> = Vec::new();
        for (li, layer) in input.layers.iter().enumerate() {
            for (pi, &bytes) in layer.shard_pages.iter().enumerate() {
                move_stack.push(PlannedPage {
                    layer: li,
                    index: pi,
                    bytes,
                });
            }
        }
        let mut rescheduled: Vec<(PlannedPage, usize)> = Vec::new();
        let mut wait_stack: Vec<PlannedPage> = Vec::new();

        for i in 0..n_steps {
            while res.mem[i] > input.gpu_budget {
                let victim = match move_stack.pop() {
                    Some(p) => p,
                    None => break,
                };
                res.evict(victim.layer, victim.bytes);
                wait_stack.push(victim);
            }

            while let Some(&page) = wait_stack.last() {
                if res.readd_fits(page.layer, page.bytes, i + 1) {
                    res.readd(page.layer, page.bytes, i + 1);
                    wait_stack.pop();
                    rescheduled.push((page, i + 1));
                } else {
                    break;
                }
            }
        }

        let mut gathers_advanced = 0usize;
        if sched.phase2 {
            for i in 0..n_steps {
                if res.advance_gather(i, sched.prefetch_horizon) {
                    gathers_advanced += 1;
                }
            }
        }

        let mut tasks = Vec::new();
        for page in &move_stack {
            tasks.push(ScheduleTask {
                op: TaskOp::MoveToGpu(*page),
                trigger_id: 0,
            });
        }
        for &(page, trig) in &rescheduled {
            tasks.push(ScheduleTask {
                op: TaskOp::MoveToGpu(page),
                trigger_id: trig,
            });
        }
        for (i, step) in input.steps.iter().enumerate() {
            let l = step.layer();
            for (pi, &bytes) in input.layers[l].shard_pages.iter().enumerate() {
                tasks.push(ScheduleTask {
                    op: TaskOp::AllGather {
                        page: PlannedPage {
                            layer: l,
                            index: pi,
                            bytes,
                        },
                        step: i,
                    },
                    trigger_id: res.gather_trigger[i],
                });
            }
            tasks.push(ScheduleTask {
                op: TaskOp::Compute(*step),
                trigger_id: i,
            });
        }
        tasks.sort_by_key(|t| t.trigger_id);
        let trigger_offsets = trigger_offsets_of(&tasks, n_steps);

        let resident_pages = move_stack.len() + rescheduled.len();
        let total_pages: usize = input.layers.iter().map(|l| l.shard_pages.len()).sum();
        let resident_bytes: u64 = move_stack.iter().map(|p| p.bytes).sum::<u64>()
            + rescheduled.iter().map(|(p, _)| p.bytes).sum::<u64>();
        let shard_bytes: u64 = input.layers.iter().map(|l| l.shard_bytes()).sum();

        Ok(Schedule {
            tasks,
            num_steps: n_steps,
            trigger_offsets,
            stats: ScheduleStats {
                pages_resident: resident_pages,
                pages_cpu_bound: total_pages - resident_pages,
                peak_gpu_bytes: res.peak(),
                resident_fraction: if shard_bytes == 0 {
                    0.0
                } else {
                    resident_bytes as f64 / shard_bytes as f64
                },
                gathers_advanced,
            },
        })
    }
}

/// Build a [`SchedulerInput`] from a [`crate::tracer::Trace`], a page size,
/// a data-parallel degree (ZeRO sharding denominator) and the GPU budget.
pub fn input_from_trace(
    trace: &crate::tracer::Trace,
    page_size: u64,
    dp_degree: usize,
    gpu_budget: u64,
) -> SchedulerInput {
    assert!(dp_degree >= 1);
    let layers = (0..trace.layers)
        .map(|l| {
            let full = trace.layer_param16_bytes(l);
            let shard = full.div_ceil(dp_degree as u64);
            let mut pages = Vec::with_capacity(shard.div_ceil(page_size.max(1)) as usize);
            let mut rest = shard;
            while rest > 0 {
                let take = rest.min(page_size);
                pages.push(take);
                rest -= take;
            }
            LayerPlan {
                layer: l,
                shard_pages: pages,
                full_param_bytes: full,
                working_set: trace.layer_working_set(l),
            }
        })
        .collect();
    // Without recomputation, every layer's activations stay live from its
    // forward to its backward; that accumulated load is outside this
    // schedule's control but must constrain it.
    let steps = SchedulerInput::default_steps(trace.layers);
    let step_base_load = if trace.recompute {
        Vec::new()
    } else {
        steps
            .iter()
            .enumerate()
            .map(|(j, s)| {
                (0..trace.layers)
                    .filter(|&l| {
                        l != s.layer() && trace.forward_id(l) <= j && j <= trace.backward_id(l)
                    })
                    .map(|l| trace.layer_activation_bytes(l))
                    .sum()
            })
            .collect()
    };
    SchedulerInput {
        layers,
        steps,
        gpu_budget,
        page_size,
        step_base_load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    /// A uniform toy model with hand-checkable numbers.
    fn toy(
        n: usize,
        pages_per_layer: usize,
        page_bytes: u64,
        ws: u64,
        budget: u64,
    ) -> SchedulerInput {
        let layers = (0..n)
            .map(|l| LayerPlan {
                layer: l,
                shard_pages: vec![page_bytes; pages_per_layer],
                full_param_bytes: page_bytes * pages_per_layer as u64,
                working_set: ws,
            })
            .collect();
        SchedulerInput {
            layers,
            steps: SchedulerInput::default_steps(n),
            gpu_budget: budget,
            page_size: page_bytes,
            step_base_load: Vec::new(),
        }
    }

    #[test]
    fn everything_resident_when_memory_ample() {
        // 4 layers × 2 pages × 10 B = 80 B of shards, budget 1000.
        let input = toy(4, 2, 10, 5, 1000);
        let s = UnifiedScheduler::default().schedule(&input).unwrap();
        assert_eq!(s.stats.pages_cpu_bound, 0);
        assert_eq!(s.stats.pages_resident, 8);
        assert!((s.stats.resident_fraction - 1.0).abs() < 1e-12);
        let moves: Vec<_> = s
            .tasks
            .iter()
            .filter(|t| matches!(t.op, TaskOp::MoveToGpu(_)))
            .collect();
        assert_eq!(moves.len(), 8);
        assert!(moves.iter().all(|t| t.trigger_id == 0));
    }

    #[test]
    fn compute_tasks_in_step_order() {
        let input = toy(3, 1, 10, 0, 1000);
        let s = UnifiedScheduler::default().schedule(&input).unwrap();
        let computes: Vec<_> = s
            .tasks
            .iter()
            .filter_map(|t| match t.op {
                TaskOp::Compute(k) => Some((k, t.trigger_id)),
                _ => None,
            })
            .collect();
        assert_eq!(computes.len(), 6);
        assert_eq!(computes[0], (StepKind::Forward(0), 0));
        assert_eq!(computes[5], (StepKind::Backward(0), 5));
    }

    #[test]
    fn memory_pressure_evicts_pages() {
        // Each layer: 4 pages × 10 B = 40 B full params; ws 10. Budget 120:
        // cannot hold all 3 layers' shards (120 B) plus working sets.
        let input = toy(3, 4, 10, 10, 120);
        let s = UnifiedScheduler::default().schedule(&input).unwrap();
        assert!(s.stats.pages_cpu_bound > 0, "must evict under pressure");
        assert!(s.stats.peak_gpu_bytes <= 120);
        assert!(s.stats.resident_fraction < 1.0);
    }

    #[test]
    fn peak_never_exceeds_budget_when_feasible() {
        for budget in [60, 90, 150, 400] {
            let input = toy(4, 3, 10, 15, budget);
            let s = UnifiedScheduler::default().schedule(&input).unwrap();
            assert!(
                s.stats.peak_gpu_bytes <= budget,
                "budget {budget}: peak {}",
                s.stats.peak_gpu_bytes
            );
        }
    }

    #[test]
    fn infeasible_layer_detected() {
        // One layer needs 40 + 100 = 140 > 100 budget even alone.
        let input = toy(2, 4, 10, 100, 100);
        assert!(matches!(
            UnifiedScheduler::default().schedule(&input),
            Err(Error::WorkingSetTooLarge { .. })
        ));
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        // Malformed inputs are rejected by validation before any planning
        // state indexes by layer: an empty model, and a step naming a
        // layer the model does not have.
        let mut empty = toy(1, 1, 10, 0, 100);
        empty.layers.clear();
        empty.steps.clear();
        assert!(matches!(
            UnifiedScheduler::default().schedule(&empty),
            Err(Error::BadReplanDelta(_))
        ));
        let mut dangling = toy(2, 1, 10, 0, 100);
        dangling.steps.push(StepKind::Backward(2));
        assert!(matches!(
            UnifiedScheduler::default().schedule(&dangling),
            Err(Error::BadReplanDelta(_))
        ));
    }

    #[test]
    fn phase2_advances_gathers_when_memory_allows() {
        let input = toy(4, 2, 10, 5, 1000);
        let s = UnifiedScheduler::default().schedule(&input).unwrap();
        // With ample memory every gather advances to the prefetch horizon.
        for t in &s.tasks {
            if let TaskOp::AllGather { step, .. } = t.op {
                assert_eq!(t.trigger_id, step.saturating_sub(4), "step {step}");
            }
        }
        assert!(s.stats.gathers_advanced > 0);
        // An unbounded horizon drags everything to trigger 0.
        let deep = UnifiedScheduler {
            phase2: true,
            prefetch_horizon: usize::MAX,
        }
        .schedule(&input)
        .unwrap();
        let gathers: Vec<_> = deep
            .tasks
            .iter()
            .filter(|t| matches!(t.op, TaskOp::AllGather { .. }))
            .collect();
        assert!(gathers.iter().all(|t| t.trigger_id == 0));
    }

    #[test]
    fn phase2_respects_budget() {
        // Sharded layers (shard 20 of full 40): gathers cost real memory,
        // so under a tight budget they can only be advanced a little.
        let mut input = toy(4, 2, 10, 10, 120);
        for l in &mut input.layers {
            l.full_param_bytes = 40;
        }
        let s = UnifiedScheduler::default().schedule(&input).unwrap();
        assert!(s.stats.peak_gpu_bytes <= 120);
        let g0 = s
            .tasks
            .iter()
            .filter(|t| matches!(t.op, TaskOp::AllGather { .. }) && t.trigger_id == 0)
            .count();
        let total_g = s
            .tasks
            .iter()
            .filter(|t| matches!(t.op, TaskOp::AllGather { .. }))
            .count();
        assert!(g0 < total_g, "g0={g0} total={total_g}");
    }

    #[test]
    fn tasks_sorted_by_trigger() {
        let input = toy(5, 3, 10, 10, 200);
        let s = UnifiedScheduler::default().schedule(&input).unwrap();
        assert!(s
            .tasks
            .windows(2)
            .all(|w| w[0].trigger_id <= w[1].trigger_id));
    }

    #[test]
    fn trigger_index_matches_filter() {
        // The O(1) slice lookup returns exactly what the old full-list
        // filter did, for every trigger id (and nothing out of range).
        let input = toy(5, 3, 10, 10, 200);
        let s = UnifiedScheduler::default().schedule(&input).unwrap();
        for id in 0..s.num_steps + 2 {
            let via_index: Vec<_> = s.at_trigger(id).collect();
            let via_filter: Vec<_> = s.tasks.iter().filter(|t| t.trigger_id == id).collect();
            assert_eq!(via_index, via_filter, "trigger {id}");
        }
        assert_eq!(
            s.trigger_offsets.len(),
            s.num_steps + 1,
            "offset table spans every trigger"
        );
        assert_eq!(*s.trigger_offsets.last().unwrap(), s.tasks.len());
    }

    #[test]
    fn input_from_trace_wires_up() {
        let cfg = angel_model::TransformerConfig::gpt3_1_7b()
            .with_layers(2)
            .with_seq_len(128);
        let trace = crate::tracer::Tracer::default().trace(&cfg, 1, true);
        let input = input_from_trace(&trace, crate::PAGE_SIZE_DEFAULT, 8, 1 << 33);
        assert_eq!(input.layers.len(), 2);
        assert_eq!(input.steps.len(), 4);
        // Shard = full/8 rounded up into 4 MiB pages.
        let full = trace.layer_param16_bytes(0);
        let shard: u64 = input.layers[0].shard_pages.iter().sum();
        assert!(shard >= full / 8 && shard < full / 8 + crate::PAGE_SIZE_DEFAULT);
        let s = UnifiedScheduler::default().schedule(&input).unwrap();
        assert!(s.stats.peak_gpu_bytes <= input.gpu_budget);
    }

    #[test]
    fn more_budget_means_more_residency() {
        let tight = UnifiedScheduler::default()
            .schedule(&toy(6, 4, 10, 10, 100))
            .unwrap();
        let roomy = UnifiedScheduler::default()
            .schedule(&toy(6, 4, 10, 10, 400))
            .unwrap();
        assert!(roomy.stats.resident_fraction >= tight.stats.resident_fraction);
        assert!(roomy.stats.pages_cpu_bound <= tight.stats.pages_cpu_bound);
    }

    #[test]
    fn evicted_pages_can_be_rescheduled_later() {
        // Big early layers force eviction; after backward passes them, the
        // freed memory lets waiting pages return (lines 13–15).
        let mut input = toy(4, 2, 10, 4, 70);
        // Make layer 0 huge so early steps are tight.
        input.layers[0].shard_pages = vec![10; 4];
        input.layers[0].full_param_bytes = 40;
        let s = UnifiedScheduler::default().schedule(&input).unwrap();
        let late_moves = s
            .tasks
            .iter()
            .filter(|t| matches!(t.op, TaskOp::MoveToGpu(_)) && t.trigger_id > 0)
            .count();
        // Either everything fit up front, or some moves happen later — but
        // the budget must hold regardless.
        assert!(s.stats.peak_gpu_bytes <= 70);
        let _ = late_moves;
    }

    // ---- Oracle equivalence ---------------------------------------------

    fn assert_identical(input: &SchedulerInput, sched: &UnifiedScheduler) {
        let fast = sched.schedule(input);
        let slow = oracle::schedule(sched, input);
        match (fast, slow) {
            (Ok(f), Ok(s)) => {
                assert_eq!(f.tasks, s.tasks, "task lists diverge");
                assert_eq!(f.stats, s.stats, "stats diverge");
                assert_eq!(f.trigger_offsets, s.trigger_offsets, "indexes diverge");
                assert_eq!(f.num_steps, s.num_steps);
            }
            (Err(_), Err(_)) => {}
            (f, s) => panic!(
                "feasibility diverges: fast {:?} vs oracle {:?}",
                f.map(|x| x.stats),
                s.map(|x| x.stats)
            ),
        }
    }

    #[test]
    fn oracle_equivalence_on_hand_inputs() {
        let sched = UnifiedScheduler::default();
        for input in [
            toy(4, 2, 10, 5, 1000),
            toy(3, 4, 10, 10, 120),
            toy(6, 4, 10, 10, 100),
            toy(6, 4, 10, 10, 400),
            toy(1, 1, 1, 0, 1),
            toy(5, 3, 10, 10, 200),
        ] {
            assert_identical(&input, &sched);
        }
        // Sharded (gathers cost memory) + huge first layer + base load.
        let mut input = toy(4, 2, 10, 10, 120);
        for l in &mut input.layers {
            l.full_param_bytes = 40;
        }
        assert_identical(&input, &UnifiedScheduler::default());
        let mut input = toy(4, 2, 10, 4, 70);
        input.layers[0].shard_pages = vec![10; 4];
        input.layers[0].full_param_bytes = 40;
        input.step_base_load = vec![3; 8];
        assert_identical(&input, &UnifiedScheduler::default());
        // Phase 2 off, and unbounded horizon.
        assert_identical(
            &toy(4, 3, 10, 15, 90),
            &UnifiedScheduler {
                phase2: false,
                prefetch_horizon: 4,
            },
        );
        assert_identical(
            &toy(4, 3, 10, 15, 90),
            &UnifiedScheduler {
                phase2: true,
                prefetch_horizon: usize::MAX,
            },
        );
    }

    #[test]
    fn oracle_equivalence_on_traced_model() {
        let cfg = angel_model::TransformerConfig::gpt3_1_7b()
            .with_layers(6)
            .with_seq_len(256);
        let trace = crate::tracer::Tracer::default().trace(&cfg, 2, true);
        for budget_shift in [30, 31, 33] {
            let input = input_from_trace(&trace, crate::PAGE_SIZE_DEFAULT, 8, 1 << budget_shift);
            assert_identical(&input, &UnifiedScheduler::default());
        }
    }

    // ---- Phase-2 horizon boundary regressions ---------------------------

    #[test]
    fn advance_gather_stops_exactly_at_the_horizon() {
        // Ample memory: every gather must advance to exactly
        // max(i - horizon, 0), never one step further.
        for horizon in [0usize, 1, 2, 4, 7] {
            let input = toy(5, 2, 10, 5, 10_000);
            let s = UnifiedScheduler {
                phase2: true,
                prefetch_horizon: horizon,
            }
            .schedule(&input)
            .unwrap();
            for t in &s.tasks {
                if let TaskOp::AllGather { step, .. } = t.op {
                    assert_eq!(
                        t.trigger_id,
                        step.saturating_sub(horizon),
                        "horizon {horizon}, step {step}"
                    );
                }
            }
            assert_identical(
                &input,
                &UnifiedScheduler {
                    phase2: true,
                    prefetch_horizon: horizon,
                },
            );
        }
    }

    #[test]
    fn advance_gather_budget_block_inside_horizon() {
        // Sharded layers under a budget that lets gathers advance only
        // partway into the horizon window: the stop point (the latest
        // over-threshold step) must match the oracle's one-step walk.
        for budget in [80u64, 90, 100, 110, 120, 140] {
            let mut input = toy(6, 2, 10, 10, budget);
            for l in &mut input.layers {
                l.full_param_bytes = 40; // shard 20 of full 40
            }
            for horizon in [1usize, 3, 4, 6, usize::MAX] {
                assert_identical(
                    &input,
                    &UnifiedScheduler {
                        phase2: true,
                        prefetch_horizon: horizon,
                    },
                );
            }
        }
    }

    #[test]
    fn advance_gather_when_buffer_exceeds_budget() {
        // A gather whose buffer alone is above the remaining budget must
        // stay just-in-time (the oracle's `mem[g-1] + extra <= budget` is
        // false everywhere; the optimized path's checked_sub underflow arm).
        let mut input = toy(3, 1, 10, 0, 100);
        for l in &mut input.layers {
            l.full_param_bytes = 120; // gathered layer barely infeasible?
        }
        // full (120) + ws (0) > budget → infeasible for both.
        assert_identical(&input, &UnifiedScheduler::default());
        // Now make it feasible but with zero slack beyond the gather.
        for l in &mut input.layers {
            l.full_param_bytes = 100;
        }
        assert_identical(&input, &UnifiedScheduler::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random scheduler inputs: 1–7 layers with jagged page lists (0–6
    /// pages of 0–40 bytes), independent full/working-set bytes, a budget
    /// spanning infeasible-to-ample, optional per-step base load, and a
    /// random prefetch horizon. Feasibility divergence is also checked.
    fn input_strategy() -> impl Strategy<Value = (SchedulerInput, UnifiedScheduler)> {
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
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The optimized planner is byte-identical to the retained naive
        /// oracle: same task list, same `ScheduleStats` (including peak),
        /// same trigger index — or the same infeasibility verdict.
        #[test]
        fn optimized_schedule_matches_oracle(
            (input, sched) in input_strategy()
        ) {
            let fast = sched.schedule(&input);
            let slow = oracle::schedule(&sched, &input);
            match (fast, slow) {
                (Ok(f), Ok(s)) => {
                    prop_assert_eq!(f.tasks, s.tasks);
                    prop_assert_eq!(f.stats, s.stats);
                    prop_assert_eq!(f.trigger_offsets, s.trigger_offsets);
                    prop_assert_eq!(f.num_steps, s.num_steps);
                }
                (Err(_), Err(_)) => {}
                (f, s) => prop_assert!(
                    false,
                    "feasibility diverges: fast {:?} vs oracle {:?}",
                    f.is_ok(),
                    s.is_ok()
                ),
            }
        }
    }
}
