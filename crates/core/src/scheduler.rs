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
//! The two phases run in **run form**: a decision is one `[lo, hi)` page
//! range per same-layer batch (a maximal same-layer run of Algorithm 1's
//! stacks), found by binary search on per-layer page-prefix sums instead
//! of a per-page stack walk. The decisions cost O((layers + steps)·log
//! steps); the O(tasks) emission of the trigger-sorted list dominates a
//! plan at GPT-3-1T scale.
//!
//! [`UnifiedScheduler::schedule`] is the one implementation: it plans
//! every input from scratch on the borrowed input, and an engine splice is
//! just a fresh plan of the new input. The original per-page / per-step
//! planner is retained verbatim in `oracle` (test and `verify-extras`
//! builds only) as the independent reference the proptests prove
//! byte-identical.

use crate::error::{Error, Result};
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
/// span covers `j` + step `j`'s working set. Methods that need the model
/// take `&SchedulerInput` explicitly; callers pass the input the state was
/// built from.
struct TimelineState {
    mem: RangeAddMax,
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
    fn new(input: &SchedulerInput) -> Self {
        let n_steps = input.steps.len();
        let n_layers = input.layers.len();
        let words = n_steps.div_ceil(64);
        let mut steps_of_layer = vec![Vec::new(); n_layers];
        let mut own_bits = vec![0u64; n_layers * words];
        for (j, s) in input.steps.iter().enumerate() {
            let l = s.layer();
            steps_of_layer[l].push(j);
            own_bits[l * words + j / 64] |= 1 << (j % 64);
        }
        let last_use: Vec<usize> = steps_of_layer
            .iter()
            .map(|v| match v.last() {
                Some(&j) => j,
                // `validate_input` rejects a layer with no step.
                None => unreachable!("layer with no steps in the trace"),
            })
            .collect();
        let resident0: Vec<u64> = input.layers.iter().map(LayerPlan::shard_bytes).collect();
        // Resident shards via a difference array (O(layers + steps) instead
        // of the oracle's O(layers × steps) fill): every page starts at
        // trigger 0, live until the layer's last use.
        let mut diff = vec![0i64; n_steps + 1];
        for (l, &bytes) in resident0.iter().enumerate() {
            diff[0] += bytes as i64;
            diff[last_use[l] + 1] -= bytes as i64;
        }
        // Per-step resident shards + working set + just-in-time gather
        // extra (full − resident) + external base load.
        let mut running = 0i64;
        let mem0: Vec<u64> = input
            .steps
            .iter()
            .enumerate()
            .map(|(j, s)| {
                running += diff[j];
                let l = s.layer();
                let layer = &input.layers[l];
                running as u64
                    + layer.working_set
                    + layer.full_param_bytes.saturating_sub(resident0[l])
                    + input.step_base_load.get(j).copied().unwrap_or(0)
            })
            .collect();
        Self {
            mem: RangeAddMax::from_values(&mem0),
            resident0,
            resched_cum: vec![Vec::new(); n_layers],
            gather_trigger: (0..n_steps).collect(),
            last_use,
            steps_of_layer,
            own_bits,
            words,
        }
    }

    /// Whether step `j` computes layer `l` (O(1) bitmap lookup).
    fn is_own_step(&self, l: usize, j: usize) -> bool {
        self.own_bits[l * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    /// The planned total at step `i` (the phase-1 fit check's read).
    fn step_total(&self, i: usize) -> u64 {
        self.mem.get(i)
    }

    /// Last compute step touching layer `l`.
    fn last_use(&self, l: usize) -> usize {
        self.last_use[l]
    }

    /// The current all-gather trigger of every step.
    fn gather_triggers(&self) -> &[usize] {
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
    fn evict(&mut self, l: usize, total: u64) {
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
    fn readd_capacity(&self, input: &SchedulerInput, l: usize, t: usize) -> Option<u64> {
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
    fn readd(&mut self, l: usize, total: u64, t: usize) {
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
    fn advance_gather(&mut self, input: &SchedulerInput, i: usize, horizon: usize) -> bool {
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
            true
        } else {
            false
        }
    }

    fn peak(&self) -> u64 {
        self.mem.max_all()
    }
}

impl UnifiedScheduler {
    /// Run Algorithm 1 on `input`, from scratch: validate it, make phase
    /// 1's and phase 2's decisions in run form, then emit the
    /// trigger-sorted task list.
    ///
    /// Errors with [`crate::Error::WorkingSetTooLarge`] when some layer
    /// cannot run even with an empty GPU (gathered parameters + working set
    /// exceed the budget) — the condition under which the paper's system is
    /// also out of options without shrinking the batch — and with
    /// [`crate::Error::BadSchedulerInput`] on a malformed input (empty
    /// model, a step naming a missing layer, a layer with no step).
    pub fn schedule(&self, input: &SchedulerInput) -> Result<Schedule> {
        validate_input(input)?;
        let page_prefix: Vec<Vec<u64>> = input.layers.iter().map(prefix_of).collect();
        let mut timeline = TimelineState::new(input);
        let decisions = self.plan_decisions(input, &page_prefix, &mut timeline);
        Ok(emit(input, &page_prefix, &decisions, &timeline))
    }

    /// Phase 1 + phase 2 over runs: Algorithm 1's greedy stack decisions,
    /// with each maximal same-layer batch found by a binary search on the
    /// page-prefix sums instead of a per-page walk.
    fn plan_decisions(
        &self,
        input: &SchedulerInput,
        page_prefix: &[Vec<u64>],
        timeline: &mut TimelineState,
    ) -> Decisions {
        let mut moves: Vec<Run> = input
            .layers
            .iter()
            .enumerate()
            .filter(|(_, layer)| !layer.shard_pages.is_empty())
            .map(|(li, layer)| Run {
                layer: li,
                lo: 0,
                hi: layer.shard_pages.len(),
            })
            .collect();
        let mut readds: Vec<ReaddEvent> = Vec::new();
        let mut wait: Vec<Run> = Vec::new();
        for i in 0..input.steps.len() {
            // Eviction: pop the minimal top batch that brings step `i` under
            // budget (whole run when net-zero at `i` or insufficient).
            loop {
                let current = timeline.step_total(i);
                if current <= input.gpu_budget {
                    break;
                }
                let Some(&top) = moves.last() else {
                    break;
                };
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
        let mut gathers_advanced = 0;
        if self.phase2 {
            for i in 0..input.steps.len() {
                if timeline.advance_gather(input, i, self.prefetch_horizon) {
                    gathers_advanced += 1;
                }
            }
        }
        Decisions {
            moves,
            readds,
            gathers_advanced,
        }
    }
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

/// Algorithm 1's decisions in run form; each step's gather trigger lives in
/// the [`TimelineState`].
struct Decisions {
    /// Trigger-0 moves that survived phase 1.
    moves: Vec<Run>,
    readds: Vec<ReaddEvent>,
    gathers_advanced: usize,
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
        return Err(Error::BadSchedulerInput("empty model"));
    }
    let mut covered = vec![false; input.layers.len()];
    for s in &input.steps {
        if s.layer() >= input.layers.len() {
            return Err(Error::BadSchedulerInput("step references a missing layer"));
        }
        covered[s.layer()] = true;
    }
    if covered.iter().any(|&c| !c) {
        return Err(Error::BadSchedulerInput("a layer has no compute step"));
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

/// Build the trigger-sorted task list, its offset table and the stats
/// from the decisions.
fn emit(
    input: &SchedulerInput,
    page_prefix: &[Vec<u64>],
    decisions: &Decisions,
    timeline: &TimelineState,
) -> Schedule {
    let Decisions {
        moves,
        readds,
        gathers_advanced,
    } = decisions;
    let gather = timeline.gather_triggers();
    let n_steps = input.steps.len();
    // Counting sort of steps by gather trigger (ascending step within
    // each trigger — the emission interleave needs it).
    let mut trig_off = vec![0usize; n_steps + 1];
    for &g in gather {
        trig_off[g + 1] += 1;
    }
    for i in 1..=n_steps {
        trig_off[i] += trig_off[i - 1];
    }
    let mut trig_steps = vec![0usize; n_steps];
    let mut trig_cur = trig_off.clone();
    for (i, &g) in gather.iter().enumerate() {
        trig_steps[trig_cur[g]] = i;
        trig_cur[g] += 1;
    }
    // Offsets + byte/page stats in one O(runs + events + steps) pass.
    let mut offsets = vec![0usize; n_steps + 1];
    let mut resident_pages = 0usize;
    let mut resident_bytes = 0u64;
    for r in moves {
        offsets[1] += r.hi - r.lo;
        resident_pages += r.hi - r.lo;
        resident_bytes += page_prefix[r.layer][r.hi] - page_prefix[r.layer][r.lo];
    }
    for e in readds {
        offsets[e.trigger + 1] += e.hi - e.lo;
        resident_pages += e.hi - e.lo;
        resident_bytes += page_prefix[e.layer][e.hi] - page_prefix[e.layer][e.lo];
    }
    for (i, step) in input.steps.iter().enumerate() {
        offsets[gather[i] + 1] += input.layers[step.layer()].shard_pages.len();
        offsets[i + 1] += 1;
    }
    for i in 1..=n_steps {
        offsets[i] += offsets[i - 1];
    }
    let total_pages: usize = page_prefix.iter().map(|p| p.len() - 1).sum();
    let shard_bytes: u64 = page_prefix
        .iter()
        .map(|p| p.last().copied().unwrap_or(0))
        .sum();

    let mut tasks = Vec::with_capacity(offsets[n_steps]);
    for t in 0..n_steps {
        emit_trigger(input, moves, readds, &trig_off, &trig_steps, t, &mut tasks);
    }
    Schedule {
        tasks,
        stats: ScheduleStats {
            pages_resident: resident_pages,
            pages_cpu_bound: total_pages - resident_pages,
            peak_gpu_bytes: timeline.peak(),
            resident_fraction: if shard_bytes == 0 {
                0.0
            } else {
                resident_bytes as f64 / shard_bytes as f64
            },
            gathers_advanced: *gathers_advanced,
        },
        num_steps: n_steps,
        trigger_offsets: offsets,
    }
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

/// The pre-optimization Algorithm 1 planner, retained verbatim as the
/// independent correctness oracle: per-page O(steps) timeline updates,
/// linear `resident()` scans, `contains`-based fit checks and a comparison
/// sort. It shares no decision code with [`UnifiedScheduler::schedule`];
/// the scheduler proptest proves every plan byte-identical to it, and the
/// `planning_cost` binary records the speedup in `BENCH_plan.json`.
/// Compiled only for tests and under the `verify-extras` feature (the bench
/// crate enables it), so it cannot land in a production path.
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
        assert_eq!(
            UnifiedScheduler::default().schedule(&empty),
            Err(Error::BadSchedulerInput("empty model"))
        );
        let mut dangling = toy(2, 1, 10, 0, 100);
        dangling.steps.push(StepKind::Backward(2));
        assert_eq!(
            UnifiedScheduler::default().schedule(&dangling),
            Err(Error::BadSchedulerInput("step references a missing layer"))
        );
        assert_eq!(
            Error::BadSchedulerInput("empty model").to_string(),
            "bad scheduler input: empty model"
        );
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

    /// A jagged toy model: per-layer page lists of different shapes, so the
    /// run-form decisions see non-uniform runs.
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
            (Err(f), Err(s)) => assert_eq!(f, s, "rejections diverge"),
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
        // A jagged model (pages of different sizes, a zero-byte page) across
        // budgets from tight to ample, then variants of it: one layer
        // reshaped, every shard halved, one layer dropped, and an
        // infeasible budget.
        for budget in [10, 90, 95, 120, 150, 200, 400, 1000] {
            assert_identical(&jagged(budget), &sched);
        }
        let mut input = jagged(120);
        input.layers[2].working_set = 40;
        input.layers[2].shard_pages = vec![9, 9, 9, 9, 9];
        input.layers[2].full_param_bytes = 45;
        assert_identical(&input, &sched);
        let mut input = jagged(150);
        for l in &mut input.layers {
            l.shard_pages.iter_mut().for_each(|b| *b /= 2);
        }
        assert_identical(&input, &sched);
        let mut input = jagged(150);
        input.layers.truncate(3);
        input.steps = SchedulerInput::default_steps(3);
        assert_identical(&input, &sched);
        let mut input = jagged(95);
        input.layers[0].shard_pages = vec![4; 7];
        input.layers[3].working_set = 11;
        input.step_base_load = (0..input.steps.len() as u64).map(|j| j % 5).collect();
        assert_identical(&input, &sched);
        // A degraded iteration: layer 1 recomputed twice in the backward,
        // so it owns four steps and its re-adds span own-step gaps.
        let mut input = jagged(150);
        input.steps.push(StepKind::Backward(1));
        input.steps.insert(2, StepKind::Forward(1));
        assert_identical(&input, &sched);
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
    /// spanning infeasible-to-ample, the default step list with 0–3 extra
    /// recompute steps inserted at random positions, an optional per-step
    /// base load in one of two patterns, and a random prefetch horizon.
    /// Feasibility divergence is also checked.
    fn input_strategy() -> impl Strategy<Value = (SchedulerInput, UnifiedScheduler)> {
        (
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
            ),
            proptest::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 0..4),
            // Base-load pattern (none, `7j % 23`, `kj % 31`) and its `k`.
            (0u8..3, 1u64..20),
            0usize..8,
            any::<bool>(),
        )
            .prop_map(|((layers, budget), extra, base, horizon, phase2)| {
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
                let mut steps = SchedulerInput::default_steps(n);
                for (pos, l, fwd) in extra {
                    let s = if fwd {
                        StepKind::Forward(l % n)
                    } else {
                        StepKind::Backward(l % n)
                    };
                    steps.insert(pos % (steps.len() + 1), s);
                }
                let step_base_load = match base {
                    (0, _) => Vec::new(),
                    (1, _) => (0..steps.len()).map(|j| (j as u64 * 7) % 23).collect(),
                    (_, k) => (0..steps.len() as u64).map(|j| (j * k) % 31).collect(),
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
        /// same trigger index — or the same rejection.
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
                (Err(f), Err(s)) => prop_assert_eq!(f, s),
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
