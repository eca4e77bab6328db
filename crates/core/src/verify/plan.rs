//! Race/lifetime verifier and provable peak-memory bound for lowered task
//! graphs.
//!
//! # The happens-before relation
//!
//! The executor in `angel-sim` guarantees exactly two ordering mechanisms
//! (see its module docs): a task starts after all its **dependencies**
//! complete, and tasks on the **same resource** start in submission order,
//! back to back (CUDA-stream semantics, which also implies completion
//! order on a FIFO resource). The verifier's happens-before relation `≺` is
//! the transitive closure of those two edge families. Two accesses to the
//! same [`ObjectId`] *conflict* unless both are reads; a **race** is a
//! conflicting pair with neither `a ≺ b` nor `b ≺ a` — the executor may
//! legally run them concurrently, so the plan's result depends on timing.
//!
//! # Computing happens-before
//!
//! Stream edges link consecutive submissions on a resource, so each
//! resource's tasks form a chain totally ordered by `≺`: what a task reaches
//! on a chain is a suffix, what reaches it a prefix. Two clocks per task and
//! chain capture both — `fwd[t][r]`, the first position on chain `r` that
//! `t` strictly precedes (a reverse-topological pass), and `back[x][r]`, the
//! last position on chain `r` that is `⪯ x` (a topological pass) — so
//! `t ≺ u` ⇔ `pos(u) ≥ fwd[t][res(u)]` in O(1), and the sums below become
//! per-chain prefix/suffix sums indexed by the clocks. Time and memory are
//! O((V + E) · R) for R resources (at most eight in an engine lowering), so
//! every lowering is verified, whatever its size.
//!
//! # Lifetimes
//!
//! Objects with an [`AccessMode::Alloc`] or [`AccessMode::Free`] access are
//! *managed*: their accesses, walked in happens-before order, must form
//! `Alloc → (Read|Write)* → Free`. Anything else — use before alloc, use
//! after free, double free, double alloc, or a missing free (leak) — is
//! reported. Objects never allocated or freed in the graph are *external*
//! (they outlive the plan, e.g. persistent parameter shards) and only get
//! race checking.
//!
//! # The peak-memory bound
//!
//! For each memory domain the verifier computes a **sound static upper
//! bound** on the executor's peak:
//!
//! ```text
//! UB(d) = max over tasks t with acquire(t,d) > 0 of
//!         Σ acquire(u,d) over u with ¬(t ≺ u)        (everything that may
//!                                                      already hold memory
//!                                                      when t acquires)
//!       − Σ release(u,d) over u ∈ drained(t)          (provably released
//!                                                      before t acquires)
//! ```
//!
//! where `drained(t) = { u : u ⪯ x for some dependency x of t }`. The
//! acquire sum is sound because any task `u` with `t ≺ u` must *start* —
//! and therefore acquire — strictly after `t`'s acquire. The release set is
//! deliberately conservative: a release may only be subtracted along paths
//! that end in a *dependency* edge, because the executor drains the
//! completion (and release) of a dependency before starting its dependents,
//! but a zero-duration same-resource predecessor can still have its release
//! undrained when its stream successor starts within the same scheduling
//! pass. Every `ExecutionReport` the simulator produces must satisfy
//! `peak_mem[d] ≤ UB(d)`; [`PlanReport::covers`] asserts exactly that.

use angel_sim::{AccessMode, ExecutionReport, ObjectId, Simulation};
use std::collections::BTreeMap;

/// A conflicting, unordered pair of accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    pub object: ObjectId,
    /// Submission indices of the two tasks (first < second).
    pub first: usize,
    pub second: usize,
    pub first_label: String,
    pub second_label: String,
}

/// What went wrong in a managed object's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifetimeIssue {
    UseBeforeAlloc,
    UseAfterFree,
    DoubleAlloc,
    DoubleFree,
    FreeBeforeAlloc,
    /// Allocated but never freed within the graph.
    Leak,
}

/// One lifetime diagnostic, anchored at the offending task (for `Leak`,
/// the allocating task).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifetimeViolation {
    pub object: ObjectId,
    pub task: usize,
    pub label: String,
    pub issue: LifetimeIssue,
}

/// The verifier's verdict over one plan graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    pub races: Vec<Race>,
    pub lifetime: Vec<LifetimeViolation>,
    /// A dependency/stream cycle, as a task-index loop, if one exists. A
    /// cyclic graph deadlocks the executor; race/lifetime/bound analyses
    /// are skipped (happens-before is undefined).
    pub cycle: Option<Vec<usize>>,
    /// Provable peak-memory upper bound per domain (`MemDomainId.0`-indexed).
    pub peak_bounds: Vec<u64>,
    /// Domain capacities, for over-capacity reporting.
    pub capacities: Vec<u64>,
    pub task_count: usize,
}

impl PlanReport {
    /// No races, no lifetime violations, no cycle.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.lifetime.is_empty() && self.cycle.is_none()
    }

    /// Does the static bound dominate an empirical report from the same
    /// graph? (False for cyclic graphs — there is no sound bound.)
    pub fn covers(&self, report: &ExecutionReport) -> bool {
        self.cycle.is_none()
            && report
                .peak_mem
                .iter()
                .zip(&self.peak_bounds)
                .all(|(&peak, &bound)| peak <= bound)
    }

    /// Panic with a readable diagnosis if the plan is not clean.
    pub fn assert_clean(&self, what: &str) {
        assert!(
            self.is_clean(),
            "plan verification failed for {what}: {} races {:?}, {} lifetime violations {:?}, cycle {:?}",
            self.races.len(),
            self.races.first(),
            self.lifetime.len(),
            self.lifetime.first(),
            self.cycle,
        );
    }

    /// Panic if the simulator observed a peak above the static bound.
    pub fn assert_covers(&self, report: &ExecutionReport, what: &str) {
        assert!(
            self.covers(report),
            "static peak bound violated for {what}: bounds {:?} vs simulated peaks {:?}",
            self.peak_bounds,
            report.peak_mem,
        );
    }
}

#[derive(Debug, Clone)]
struct TaskNode {
    resource: usize,
    deps: Vec<usize>,
    accesses: Vec<(ObjectId, AccessMode)>,
    /// (domain, acquire, release) triples.
    mem: Vec<(usize, u64, u64)>,
    label: String,
}

/// An analyzable copy of a lowered task graph. Mutable so tests can plant
/// bugs ([`Self::remove_dep`], [`Self::add_dep`]) and prove the verifier
/// catches them.
#[derive(Debug, Clone)]
pub struct PlanGraph {
    tasks: Vec<TaskNode>,
    num_domains: usize,
    capacities: Vec<u64>,
}

impl PlanGraph {
    /// Snapshot a submitted simulation's task graph for analysis.
    pub fn from_sim(sim: &Simulation) -> Self {
        let tasks = sim
            .tasks()
            .map(|t| TaskNode {
                resource: t.resource.0,
                deps: t.deps.clone(),
                accesses: t.accesses.iter().map(|a| (a.object, a.mode)).collect(),
                mem: t
                    .mem
                    .iter()
                    .map(|e| (e.domain.0, e.acquire, e.release))
                    .collect(),
                label: t.label.clone(),
            })
            .collect();
        let num_domains = sim.resources().num_mem_domains();
        let capacities = (0..num_domains)
            .map(|d| sim.resources().mem_capacity(angel_sim::MemDomainId(d)))
            .collect();
        Self {
            tasks,
            num_domains,
            capacities,
        }
    }

    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Find a task index by label (panics if absent) — test convenience.
    pub fn task_by_label(&self, label: &str) -> usize {
        self.tasks
            .iter()
            .position(|t| t.label == label)
            .unwrap_or_else(|| panic!("no task labelled {label:?}"))
    }

    /// Mutation hook: delete the dependency edge `dep → task` if present.
    /// Returns whether an edge was removed.
    pub fn remove_dep(&mut self, task: usize, dep: usize) -> bool {
        let deps = &mut self.tasks[task].deps;
        let before = deps.len();
        deps.retain(|&d| d != dep);
        deps.len() != before
    }

    /// Mutation hook: add an arbitrary dependency edge (may create a cycle —
    /// that is the point; the simulator's `submit` cannot).
    pub fn add_dep(&mut self, task: usize, dep: usize) {
        self.tasks[task].deps.push(dep);
    }

    /// Run all analyses.
    pub fn verify(&self) -> PlanReport {
        let n = self.tasks.len();

        // Edge set: dependency edges (d → i) plus same-resource stream
        // edges (consecutive submissions on a resource).
        let mut preds: Vec<Vec<usize>> = self.tasks.iter().map(|t| t.deps.clone()).collect();
        let mut last_on_resource: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, t) in self.tasks.iter().enumerate() {
            if let Some(prev) = last_on_resource.insert(t.resource, i) {
                preds[i].push(prev);
            }
        }

        if let Some(cycle) = find_cycle(&preds) {
            return PlanReport {
                races: Vec::new(),
                lifetime: Vec::new(),
                cycle: Some(cycle),
                peak_bounds: Vec::new(),
                capacities: self.capacities.clone(),
                task_count: n,
            };
        }

        // Topological order (indices are already one: deps point backward
        // and stream edges follow submission order — but `add_dep` can
        // introduce forward edges, so sort properly).
        let topo = toposort(&preds);
        let clocks = ChainClocks::new(&self.tasks, &preds, &topo);
        let ordered = |a: usize, b: usize| clocks.precedes(a, b) || clocks.precedes(b, a);

        // ---- Races -------------------------------------------------------
        let mut by_object: BTreeMap<ObjectId, Vec<(usize, AccessMode)>> = BTreeMap::new();
        for (i, t) in self.tasks.iter().enumerate() {
            for &(obj, mode) in &t.accesses {
                by_object.entry(obj).or_default().push((i, mode));
            }
        }
        let mut races = Vec::new();
        for (&obj, accs) in &by_object {
            for (k, &(a, ma)) in accs.iter().enumerate() {
                for &(b, mb) in accs.iter().skip(k + 1) {
                    if a == b {
                        continue; // one task's accesses are sequential
                    }
                    let conflict = !(ma == AccessMode::Read && mb == AccessMode::Read);
                    if conflict && !ordered(a, b) {
                        let (first, second) = if a < b { (a, b) } else { (b, a) };
                        races.push(Race {
                            object: obj,
                            first,
                            second,
                            first_label: self.tasks[first].label.clone(),
                            second_label: self.tasks[second].label.clone(),
                        });
                    }
                }
            }
        }

        // ---- Lifetimes ---------------------------------------------------
        // Walk each managed object's accesses in happens-before order (topo
        // position is a linear extension of ≺; exact when race-free).
        let mut topo_pos = vec![0usize; n];
        for (pos, &i) in topo.iter().enumerate() {
            topo_pos[i] = pos;
        }
        let mut lifetime = Vec::new();
        for (&obj, accs) in &by_object {
            let managed = accs
                .iter()
                .any(|&(_, m)| matches!(m, AccessMode::Alloc | AccessMode::Free));
            if !managed {
                continue;
            }
            let mut seq = accs.clone();
            seq.sort_by_key(|&(i, _)| topo_pos[i]);
            enum LState {
                Unallocated,
                /// Allocated by the given task.
                Live(usize),
                Freed,
            }
            let mut st = LState::Unallocated;
            let mut violation = |task: usize, issue| {
                lifetime.push(LifetimeViolation {
                    object: obj,
                    task,
                    label: self.tasks[task].label.clone(),
                    issue,
                });
            };
            for &(i, mode) in &seq {
                match (mode, &st) {
                    // Reuse after a free is a fresh lifetime.
                    (AccessMode::Alloc, LState::Unallocated | LState::Freed) => {
                        st = LState::Live(i)
                    }
                    (AccessMode::Alloc, LState::Live(_)) => {
                        violation(i, LifetimeIssue::DoubleAlloc)
                    }
                    (AccessMode::Free, LState::Live(_)) => st = LState::Freed,
                    (AccessMode::Free, LState::Freed) => violation(i, LifetimeIssue::DoubleFree),
                    (AccessMode::Free, LState::Unallocated) => {
                        violation(i, LifetimeIssue::FreeBeforeAlloc)
                    }
                    (_, LState::Unallocated) => violation(i, LifetimeIssue::UseBeforeAlloc),
                    (_, LState::Freed) => violation(i, LifetimeIssue::UseAfterFree),
                    (_, LState::Live(_)) => {}
                }
            }
            if let LState::Live(at) = st {
                violation(at, LifetimeIssue::Leak);
            }
        }

        // ---- Peak-memory bound ------------------------------------------
        // Per domain and slot: `after[s]` sums the acquires at slot `s` and
        // later on its chain, `drained[k]` the releases before slot `k`.
        let nd = self.num_domains;
        let mut after = vec![vec![0u64; clocks.base[clocks.chains]]; nd];
        let mut drained = after.clone();
        for (i, t) in self.tasks.iter().enumerate() {
            for &(d, a, r) in &t.mem {
                after[d][clocks.slot[i]] += a;
                drained[d][clocks.slot[i] + 1] += r;
            }
        }
        for w in clocks.base.windows(2) {
            for (a, r) in after.iter_mut().zip(&mut drained) {
                for s in (w[0]..w[1] - 1).rev() {
                    a[s] += a[s + 1];
                }
                for s in w[0] + 1..w[1] {
                    r[s] = r[s].saturating_add(r[s - 1]);
                }
            }
        }
        let total_acq: Vec<u64> = after
            .iter()
            .map(|a| clocks.base[..clocks.chains].iter().map(|&s| a[s]).sum())
            .collect();
        let mut peak_bounds = vec![0u64; nd];
        let mut drain = vec![0usize; clocks.chains];
        for (t, task) in self.tasks.iter().enumerate() {
            if task.mem.iter().all(|&(_, a, _)| a == 0) {
                continue; // peaks occur immediately after an acquire
            }
            // drained(t): per chain, the longest prefix reaching one of t's
            // dependencies.
            drain.copy_from_slice(&clocks.base[..clocks.chains]);
            for &x in &task.deps {
                for (k, &b) in drain.iter_mut().zip(clocks.back(x)) {
                    *k = (*k).max(b);
                }
            }
            for &(d, a, _) in &task.mem {
                if a == 0 {
                    continue;
                }
                // Everything not provably after t may already hold memory.
                let later: u64 = clocks.fwd(t).iter().map(|&s| after[d][s]).sum();
                let released = drain
                    .iter()
                    .fold(0u64, |sum, &k| sum.saturating_add(drained[d][k]));
                let ub = (total_acq[d] - later).saturating_sub(released);
                peak_bounds[d] = peak_bounds[d].max(ub);
            }
        }

        PlanReport {
            races,
            lifetime,
            cycle: None,
            peak_bounds,
            capacities: self.capacities.clone(),
            task_count: n,
        }
    }
}

/// The chain clocks of the module docs. Chain `r` — resource `r`'s tasks in
/// submission order — owns the slots `base[r]..base[r + 1]`, one per task
/// plus a trailing sentinel, so clock values index per-chain sums directly.
struct ChainClocks {
    chains: usize,
    base: Vec<usize>,
    /// Each task's chain (its resource) and slot.
    chain: Vec<usize>,
    slot: Vec<usize>,
    /// `fwd[t·R + r]`: the first slot on chain `r` that `t` strictly
    /// precedes (the sentinel if none).
    fwd: Vec<usize>,
    /// `back[x·R + r]`: one past the last slot on chain `r` that is ⪯ `x`.
    back: Vec<usize>,
}

impl ChainClocks {
    fn new(tasks: &[TaskNode], preds: &[Vec<usize>], topo: &[usize]) -> Self {
        let chain: Vec<usize> = tasks.iter().map(|t| t.resource).collect();
        let chains = chain.iter().max().map_or(0, |&r| r + 1);
        let mut base = vec![0usize; chains + 1];
        for &r in &chain {
            base[r + 1] += 1;
        }
        for r in 0..chains {
            base[r + 1] += base[r] + 1;
        }
        let mut next = base.clone();
        let slot: Vec<usize> = chain
            .iter()
            .map(|&r| {
                next[r] += 1;
                next[r] - 1
            })
            .collect();

        // Forward clocks in reverse topological order: when `i` is reached
        // every successor has already folded its clock into `i`'s row, so
        // the row is final and can be folded into `i`'s predecessors.
        let mut fwd: Vec<usize> = (0..tasks.len())
            .flat_map(|_| base[1..].iter().map(|&b| b - 1))
            .collect();
        for &i in topo.iter().rev() {
            for &p in &preds[i] {
                for r in 0..chains {
                    fwd[p * chains + r] = fwd[p * chains + r].min(fwd[i * chains + r]);
                }
                fwd[p * chains + chain[i]] = fwd[p * chains + chain[i]].min(slot[i]);
            }
        }
        // Backward clocks in topological order (reflexive).
        let mut back: Vec<usize> = (0..tasks.len())
            .flat_map(|_| base[..chains].iter().copied())
            .collect();
        for &i in topo {
            for &p in &preds[i] {
                for r in 0..chains {
                    back[i * chains + r] = back[i * chains + r].max(back[p * chains + r]);
                }
            }
            back[i * chains + chain[i]] = slot[i] + 1;
        }
        Self {
            chains,
            base,
            chain,
            slot,
            fwd,
            back,
        }
    }

    /// `t ≺ u`, in O(1).
    fn precedes(&self, t: usize, u: usize) -> bool {
        self.slot[u] >= self.fwd[t * self.chains + self.chain[u]]
    }

    fn fwd(&self, t: usize) -> &[usize] {
        &self.fwd[t * self.chains..(t + 1) * self.chains]
    }

    fn back(&self, x: usize) -> &[usize] {
        &self.back[x * self.chains..(x + 1) * self.chains]
    }
}

/// Kahn toposort over predecessor lists; panics if cyclic (callers check
/// with [`find_cycle`] first).
fn toposort(preds: &[Vec<usize>]) -> Vec<usize> {
    let n = preds.len();
    let mut indeg = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ps) in preds.iter().enumerate() {
        for &p in ps {
            succs[p].push(i);
            indeg[i] += 1;
        }
    }
    let mut queue: std::collections::VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop_front() {
        order.push(i);
        for &s in &succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push_back(s);
            }
        }
    }
    assert_eq!(order.len(), n, "toposort on cyclic graph");
    order
}

/// Return a cycle (as a task loop) if the edge relation has one. Shared
/// with the SPMD verifier, whose cross-rank wait-for graph reuses the same
/// predecessor-list representation (see [`crate::verify::spmd`]).
pub(crate) fn find_cycle(preds: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = preds.len();
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut state = vec![0u8; n];
    let mut parent = vec![usize::MAX; n];
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        // Iterative DFS over predecessor edges.
        let mut stack = vec![(start, 0usize)];
        state[start] = 1;
        while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
            if *idx < preds[v].len() {
                let p = preds[v][*idx];
                *idx += 1;
                match state[p] {
                    0 => {
                        state[p] = 1;
                        parent[p] = v;
                        stack.push((p, 0));
                    }
                    1 => {
                        // Found a back edge v → p: reconstruct the loop.
                        let mut cycle = vec![p];
                        let mut cur = v;
                        while cur != p && cur != usize::MAX {
                            cycle.push(cur);
                            cur = parent[cur];
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                state[v] = 2;
                stack.pop();
            }
        }
    }
    None
}

/// Independent reference for [`PlanGraph::verify`]: races, cycle and peak
/// bounds recomputed straight from the module-doc definitions, with naive
/// per-task reachability (one BFS per task, O(V · (V + E)) time and O(V²)
/// memory). It shares no reachability code with the chain clocks; the unit
/// tests below and the random-plan proptest in `tests/verify.rs` prove the
/// two equal. Compiled only for tests and under the `verify-extras`
/// feature, so it cannot land in a production path.
#[cfg(any(test, feature = "verify-extras"))]
pub mod oracle {
    use super::*;

    /// The oracle's verdict. A cyclic graph has no races or bounds, as in
    /// [`PlanReport`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct OracleReport {
        pub races: Vec<Race>,
        pub cyclic: bool,
        pub peak_bounds: Vec<u64>,
    }

    pub fn verify(graph: &PlanGraph) -> OracleReport {
        let tasks = &graph.tasks;
        let n = tasks.len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last_on_resource: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, t) in tasks.iter().enumerate() {
            for &d in &t.deps {
                succs[d].push(i);
            }
            if let Some(prev) = last_on_resource.insert(t.resource, i) {
                succs[prev].push(i);
            }
        }
        // reach[t][u] ⇔ t ≺ u: u is reachable from t by at least one edge.
        let reach: Vec<Vec<bool>> = (0..n)
            .map(|t| {
                let mut seen = vec![false; n];
                let mut queue: std::collections::VecDeque<usize> =
                    succs[t].iter().copied().collect();
                while let Some(u) = queue.pop_front() {
                    if !seen[u] {
                        seen[u] = true;
                        queue.extend(&succs[u]);
                    }
                }
                seen
            })
            .collect();
        if (0..n).any(|t| reach[t][t]) {
            return OracleReport {
                races: Vec::new(),
                cyclic: true,
                peak_bounds: Vec::new(),
            };
        }

        let mut by_object: BTreeMap<ObjectId, Vec<(usize, AccessMode)>> = BTreeMap::new();
        for (i, t) in tasks.iter().enumerate() {
            for &(obj, mode) in &t.accesses {
                by_object.entry(obj).or_default().push((i, mode));
            }
        }
        let mut races = Vec::new();
        for (&obj, accs) in &by_object {
            for (k, &(a, ma)) in accs.iter().enumerate() {
                for &(b, mb) in &accs[k + 1..] {
                    let conflict = ma != AccessMode::Read || mb != AccessMode::Read;
                    if a != b && conflict && !reach[a][b] && !reach[b][a] {
                        races.push(Race {
                            object: obj,
                            first: a.min(b),
                            second: a.max(b),
                            first_label: tasks[a.min(b)].label.clone(),
                            second_label: tasks[a.max(b)].label.clone(),
                        });
                    }
                }
            }
        }

        let amount = |t: usize, d: usize, release: bool| -> u64 {
            tasks[t]
                .mem
                .iter()
                .filter(|e| e.0 == d)
                .map(|e| if release { e.2 } else { e.1 })
                .sum()
        };
        let peak_bounds = (0..graph.num_domains)
            .map(|d| {
                (0..n)
                    .filter(|&t| amount(t, d, false) > 0)
                    .map(|t| {
                        let held: u64 = (0..n)
                            .filter(|&u| !reach[t][u])
                            .map(|u| amount(u, d, false))
                            .sum();
                        let drained: u64 = (0..n)
                            .filter(|&u| tasks[t].deps.iter().any(|&x| u == x || reach[u][x]))
                            .map(|u| amount(u, d, true))
                            .sum();
                        held.saturating_sub(drained)
                    })
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        OracleReport {
            races,
            cyclic: false,
            peak_bounds,
        }
    }

    /// Verify `graph` and panic unless the report agrees with the oracle
    /// on races, cycle and peak bounds; returns the report.
    pub fn assert_agrees(graph: &PlanGraph) -> PlanReport {
        let report = graph.verify();
        let naive = verify(graph);
        assert_eq!(
            report.cycle.is_some(),
            naive.cyclic,
            "cycle verdicts differ"
        );
        assert_eq!(report.races, naive.races, "race sets differ");
        assert_eq!(report.peak_bounds, naive.peak_bounds, "peak bounds differ");
        report
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::assert_agrees;
    use super::*;
    use angel_sim::{Access, MemEffect, Resources, SimTask, Work};

    fn two_stream_sim() -> (Simulation, angel_sim::ResourceId, angel_sim::ResourceId) {
        let mut r = Resources::new();
        let s1 = r.add_compute("s1");
        let s2 = r.add_compute("s2");
        (Simulation::new(r), s1, s2)
    }

    #[test]
    fn ordered_conflicting_accesses_are_not_races() {
        let (mut sim, s1, s2) = two_stream_sim();
        let obj = ObjectId(1);
        let w = sim.submit(
            SimTask::new(s1, Work::Duration(10))
                .with_access(Access::write(obj))
                .with_label("writer"),
        );
        sim.submit(
            SimTask::new(s2, Work::Duration(10))
                .with_deps([w])
                .with_access(Access::read(obj))
                .with_label("reader"),
        );
        let report = assert_agrees(&PlanGraph::from_sim(&sim));
        report.assert_clean("ordered write→read");
    }

    #[test]
    fn unordered_write_read_is_a_race() {
        let (mut sim, s1, s2) = two_stream_sim();
        let obj = ObjectId(1);
        sim.submit(
            SimTask::new(s1, Work::Duration(10))
                .with_access(Access::write(obj))
                .with_label("writer"),
        );
        sim.submit(
            SimTask::new(s2, Work::Duration(10))
                .with_access(Access::read(obj))
                .with_label("reader"),
        );
        let report = assert_agrees(&PlanGraph::from_sim(&sim));
        assert_eq!(report.races.len(), 1);
        let race = &report.races[0];
        assert_eq!((race.first, race.second), (0, 1));
        assert_eq!(race.object, obj);
    }

    #[test]
    fn unordered_reads_do_not_conflict() {
        let (mut sim, s1, s2) = two_stream_sim();
        let obj = ObjectId(1);
        sim.submit(SimTask::new(s1, Work::Duration(10)).with_access(Access::read(obj)));
        sim.submit(SimTask::new(s2, Work::Duration(10)).with_access(Access::read(obj)));
        assert_agrees(&PlanGraph::from_sim(&sim)).assert_clean("two reads");
    }

    #[test]
    fn stream_order_counts_as_happens_before() {
        // Same resource, no dep edge: FIFO order still orders the accesses.
        let (mut sim, s1, _) = two_stream_sim();
        let obj = ObjectId(1);
        sim.submit(SimTask::new(s1, Work::Duration(10)).with_access(Access::write(obj)));
        sim.submit(SimTask::new(s1, Work::Duration(10)).with_access(Access::write(obj)));
        assert_agrees(&PlanGraph::from_sim(&sim)).assert_clean("stream-ordered writes");
    }

    #[test]
    fn removing_the_dep_edge_plants_a_race() {
        let (mut sim, s1, s2) = two_stream_sim();
        let obj = ObjectId(1);
        let w = sim.submit(
            SimTask::new(s1, Work::Duration(10))
                .with_access(Access::write(obj))
                .with_label("writer"),
        );
        sim.submit(
            SimTask::new(s2, Work::Duration(10))
                .with_deps([w])
                .with_access(Access::read(obj)),
        );
        let mut graph = PlanGraph::from_sim(&sim);
        assert!(assert_agrees(&graph).is_clean());
        assert!(graph.remove_dep(1, w));
        assert_eq!(
            assert_agrees(&graph).races.len(),
            1,
            "mutation must be flagged"
        );
    }

    #[test]
    fn lifetime_alloc_use_free_is_clean_and_leak_is_flagged() {
        let (mut sim, s1, _) = two_stream_sim();
        let obj = ObjectId(9);
        let a = sim.submit(SimTask::new(s1, Work::Duration(1)).with_access(Access::alloc(obj)));
        let u = sim.submit(
            SimTask::new(s1, Work::Duration(1))
                .with_deps([a])
                .with_access(Access::read(obj)),
        );
        let mut graph = PlanGraph::from_sim(&sim);
        // Without a free: leak.
        let report = assert_agrees(&graph);
        assert_eq!(report.lifetime.len(), 1);
        assert_eq!(report.lifetime[0].issue, LifetimeIssue::Leak);
        // Add the free on a fresh sim: clean.
        sim.submit(
            SimTask::new(s1, Work::Duration(1))
                .with_deps([u])
                .with_access(Access::free(obj)),
        );
        graph = PlanGraph::from_sim(&sim);
        assert_agrees(&graph).assert_clean("alloc-use-free");
    }

    #[test]
    fn use_after_free_and_double_free_are_flagged() {
        let (mut sim, s1, _) = two_stream_sim();
        let obj = ObjectId(9);
        let a = sim.submit(SimTask::new(s1, Work::Duration(1)).with_access(Access::alloc(obj)));
        let f = sim.submit(
            SimTask::new(s1, Work::Duration(1))
                .with_deps([a])
                .with_access(Access::free(obj)),
        );
        sim.submit(
            SimTask::new(s1, Work::Duration(1))
                .with_deps([f])
                .with_access(Access::write(obj)),
        );
        sim.submit(
            SimTask::new(s1, Work::Duration(1))
                .with_deps([f])
                .with_access(Access::free(obj)),
        );
        let issues: Vec<_> = assert_agrees(&PlanGraph::from_sim(&sim))
            .lifetime
            .iter()
            .map(|v| v.issue)
            .collect();
        assert!(issues.contains(&LifetimeIssue::UseAfterFree), "{issues:?}");
        assert!(issues.contains(&LifetimeIssue::DoubleFree), "{issues:?}");
    }

    #[test]
    fn planted_cycle_is_detected() {
        let (mut sim, s1, s2) = two_stream_sim();
        let a = sim.submit(SimTask::new(s1, Work::Duration(1)));
        sim.submit(SimTask::new(s2, Work::Duration(1)).with_deps([a]));
        let mut graph = PlanGraph::from_sim(&sim);
        graph.add_dep(a, 1); // a depends on its own dependent
        let report = assert_agrees(&graph);
        assert!(!report.is_clean());
        let cycle = report.cycle.expect("cycle must be found");
        assert!(cycle.contains(&0) && cycle.contains(&1), "{cycle:?}");
    }

    #[test]
    fn peak_bound_dominates_simulated_peak() {
        let mut r = Resources::new();
        let s1 = r.add_compute("s1");
        let s2 = r.add_compute("s2");
        let dom = r.add_mem_domain("mem", 0);
        let mut sim = Simulation::new(r);
        let a = sim.submit(SimTask::new(s1, Work::Duration(100)).with_mem(MemEffect {
            domain: dom,
            acquire: 600,
            release: 600,
        }));
        sim.submit(SimTask::new(s2, Work::Duration(100)).with_mem(MemEffect {
            domain: dom,
            acquire: 500,
            release: 500,
        }));
        sim.submit(
            SimTask::new(s1, Work::Duration(10))
                .with_deps([a])
                .with_mem(MemEffect {
                    domain: dom,
                    acquire: 300,
                    release: 300,
                }),
        );
        let report = sim.run();
        let verdict = assert_agrees(&PlanGraph::from_sim(&sim));
        verdict.assert_covers(&report, "3-task overlap");
        // Concurrent 600+500 must be in the bound; the dependent 300 may
        // reuse a's released 600.
        assert!(verdict.peak_bounds[dom.0] >= 1100);
    }

    #[test]
    fn bound_subtracts_releases_only_through_dependency_edges() {
        // Zero-duration stream successor: the executor may start it before
        // draining its stream-predecessor's release, so the bound must NOT
        // subtract that release. Regression guard for the soundness
        // argument in the module docs.
        let mut r = Resources::new();
        let s1 = r.add_compute("s1");
        let dom = r.add_mem_domain("mem", 0);
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(s1, Work::Duration(0)).with_mem(MemEffect {
            domain: dom,
            acquire: 100,
            release: 100,
        }));
        sim.submit(SimTask::new(s1, Work::Duration(0)).with_mem(MemEffect {
            domain: dom,
            acquire: 100,
            release: 100,
        }));
        let report = sim.run();
        let verdict = assert_agrees(&PlanGraph::from_sim(&sim));
        verdict.assert_covers(&report, "zero-duration stream pair");
        assert_eq!(
            verdict.peak_bounds[dom.0], 200,
            "stream release not drained"
        );
    }

    #[test]
    fn empty_graph_verifies() {
        let (sim, _, _) = two_stream_sim();
        let report = assert_agrees(&PlanGraph::from_sim(&sim));
        report.assert_clean("empty");
        report.assert_covers(&sim.run(), "empty");
    }
}
