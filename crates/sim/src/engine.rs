//! The discrete-event engine: resources with CUDA-stream (FIFO) semantics, a
//! dependency-aware task executor, and memory-domain peak tracking.
//!
//! # Execution model
//!
//! A [`SimTask`] is bound to exactly one [`ResourceId`] and may depend on any
//! set of earlier tasks. Execution follows stream semantics, matching how the
//! paper's Executor "inserts computations into the corresponding stream and
//! schedules them to the computation threads in the order of insertion":
//!
//! * tasks on the **same resource** start in submission order, back to back;
//! * a task additionally waits for **all its dependencies** to complete;
//! * task duration is either fixed ([`Work::Duration`]) or derived from the
//!   resource's bandwidth and latency ([`Work::Bytes`]).
//!
//! Memory domains track allocation high-water marks: each task can acquire
//! bytes at start and release bytes at completion, and the executor records
//! the peak per domain — how the paper's phase-2 OOM check is evaluated.

use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

use crate::Ns;

/// Handle to a resource registered in [`Resources`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceId(pub usize);

/// Handle to a memory domain (one per device whose peak usage matters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MemDomainId(pub usize);

/// The registry of resources and memory domains for one simulation.
#[derive(Debug, Clone, Default)]
pub struct Resources {
    names: Vec<String>,
    /// `Some((bandwidth_bytes_per_s, latency_ns))` for transfer resources;
    /// `None` for compute resources that only take fixed durations.
    links: Vec<Option<(u64, Ns)>>,
    mem_names: Vec<String>,
    mem_capacity: Vec<u64>,
}

impl Resources {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resource names in id order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|s| s.as_str())
    }

    /// `(id, name)` pairs in id order — the one authoritative mapping for
    /// anything (trace export, metrics) that needs to key by resource id.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (ResourceId(i), n.as_str()))
    }

    /// `(id, name)` pairs for memory domains, in id order.
    pub fn mem_domains(&self) -> impl Iterator<Item = (MemDomainId, &str)> {
        self.mem_names
            .iter()
            .enumerate()
            .map(|(i, n)| (MemDomainId(i), n.as_str()))
    }

    /// Register a compute resource (GPU stream, CPU worker pool, ...).
    pub fn add_compute(&mut self, name: impl Into<String>) -> ResourceId {
        self.names.push(name.into());
        self.links.push(None);
        ResourceId(self.names.len() - 1)
    }

    /// Register a transfer resource with a bandwidth/latency cost model
    /// (PCIe channel, NVLink fabric, NIC, SSD channel).
    pub fn add_link(
        &mut self,
        name: impl Into<String>,
        bandwidth: u64,
        latency_ns: Ns,
    ) -> ResourceId {
        assert!(bandwidth > 0);
        self.names.push(name.into());
        self.links.push(Some((bandwidth, latency_ns)));
        ResourceId(self.names.len() - 1)
    }

    /// Register a memory domain with a capacity (for OOM/peak reporting).
    pub fn add_mem_domain(&mut self, name: impl Into<String>, capacity: u64) -> MemDomainId {
        self.mem_names.push(name.into());
        self.mem_capacity.push(capacity);
        MemDomainId(self.mem_names.len() - 1)
    }

    pub fn name(&self, id: ResourceId) -> &str {
        &self.names[id.0]
    }

    pub fn mem_name(&self, id: MemDomainId) -> &str {
        &self.mem_names[id.0]
    }

    pub fn mem_capacity(&self, id: MemDomainId) -> u64 {
        self.mem_capacity[id.0]
    }

    pub fn num_resources(&self) -> usize {
        self.names.len()
    }

    pub fn num_mem_domains(&self) -> usize {
        self.mem_names.len()
    }

    fn duration_of(&self, resource: ResourceId, work: &Work) -> Ns {
        match (work, self.links[resource.0]) {
            (Work::Duration(ns), _) => *ns,
            (Work::Bytes(bytes), Some((bw, lat))) => {
                lat + angel_hw::link::bytes_over_bandwidth_ns(*bytes, bw)
            }
            (Work::Bytes(_), None) => {
                panic!(
                    "Work::Bytes submitted to compute resource '{}' (no bandwidth model)",
                    self.names[resource.0]
                )
            }
        }
    }
}

/// How much simulated work a task performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Work {
    /// Fixed duration in nanoseconds (computed by a cost model upstream).
    Duration(Ns),
    /// A transfer of this many bytes; duration comes from the resource's
    /// bandwidth/latency.
    Bytes(u64),
}

/// Identity of a logical object (page, tensor shard, optimizer state, ...)
/// that tasks read and write. The simulator itself never interprets these —
/// they exist so a static verifier can check that every pair of conflicting
/// accesses is ordered by the dependency/stream happens-before relation.
///
/// The `u64` payload is an opaque key chosen by whoever lowers the plan;
/// `angel_core::verify::objects` provides the tagged encodings used by the
/// engine and baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

/// How a task touches an [`ObjectId`]. `Alloc` and `Free` conflict with
/// everything (including each other); two `Read`s never conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessMode {
    Read,
    Write,
    /// First access in the object's lifetime; brings it into existence.
    Alloc,
    /// Last access in the object's lifetime; the object must not be touched
    /// afterwards.
    Free,
}

/// One declared access of a task to a logical object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    pub object: ObjectId,
    pub mode: AccessMode,
}

impl Access {
    pub fn read(object: ObjectId) -> Self {
        Self {
            object,
            mode: AccessMode::Read,
        }
    }
    pub fn write(object: ObjectId) -> Self {
        Self {
            object,
            mode: AccessMode::Write,
        }
    }
    pub fn alloc(object: ObjectId) -> Self {
        Self {
            object,
            mode: AccessMode::Alloc,
        }
    }
    pub fn free(object: ObjectId) -> Self {
        Self {
            object,
            mode: AccessMode::Free,
        }
    }
}

/// Memory side effect of a task on one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemEffect {
    pub domain: MemDomainId,
    /// Bytes acquired when the task starts (e.g. destination buffer of a
    /// move-in).
    pub acquire: u64,
    /// Bytes released when the task completes (e.g. source of a move-out,
    /// activation freed by the last consumer).
    pub release: u64,
}

/// One node of the schedule DAG.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimTask {
    pub resource: ResourceId,
    pub work: Work,
    /// Indices of tasks (within the same submission) that must complete
    /// before this one starts.
    pub deps: Vec<usize>,
    pub mem: Vec<MemEffect>,
    /// Declared accesses to logical objects, for static race/lifetime
    /// verification. Purely observational: the executor ignores them.
    #[serde(default)]
    pub accesses: Vec<Access>,
    /// Free-form label, used for tracing and per-kind busy accounting.
    pub label: String,
}

impl SimTask {
    pub fn new(resource: ResourceId, work: Work) -> Self {
        Self {
            resource,
            work,
            deps: Vec::new(),
            mem: Vec::new(),
            accesses: Vec::new(),
            label: String::new(),
        }
    }

    /// A transfer of `bytes` on a link resource; duration comes from the
    /// link's bandwidth/latency model.
    pub fn transfer(resource: ResourceId, bytes: u64) -> Self {
        Self::new(resource, Work::Bytes(bytes))
    }

    /// A fixed-duration occupancy of a resource (duration computed by a
    /// cost model upstream).
    pub fn duration(resource: ResourceId, duration_ns: Ns) -> Self {
        Self::new(resource, Work::Duration(duration_ns))
    }

    pub fn with_deps(mut self, deps: impl IntoIterator<Item = usize>) -> Self {
        self.deps.extend(deps);
        self
    }

    pub fn with_mem(mut self, effect: MemEffect) -> Self {
        self.mem.push(effect);
        self
    }

    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    pub fn with_access(mut self, access: Access) -> Self {
        self.accesses.push(access);
        self
    }

    pub fn with_accesses(mut self, accesses: impl IntoIterator<Item = Access>) -> Self {
        self.accesses.extend(accesses);
        self
    }
}

/// What happens to a resource when a [`FaultEvent`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The resource is unavailable for `duration` starting at the event
    /// time: tasks due to start inside the window are deferred past it, and
    /// in-flight tasks are paused (their finish extends by the overlap).
    Outage { duration: Ns },
    /// The resource dies at the event time and never comes back: tasks that
    /// would start at or after it never run, and in-flight tasks are killed
    /// without completing (their memory is not released).
    Permanent,
}

/// A scheduled resource fault — the simulator-side model of Section 3.1's
/// "in-frequent hardware failures" (SSD hiccups, NIC resets, node losses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    pub resource: ResourceId,
    /// Simulation time at which the fault fires.
    pub at: Ns,
    pub kind: FaultKind,
}

/// Result of executing one schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Completion time of the last task.
    pub makespan: Ns,
    /// Busy nanoseconds per resource, indexed by `ResourceId.0`.
    pub busy: Vec<Ns>,
    /// Peak bytes per memory domain, indexed by `MemDomainId.0`.
    pub peak_mem: Vec<u64>,
    /// Final bytes per memory domain (non-zero = leak, unless intentional).
    pub final_mem: Vec<u64>,
    /// Per-task completion times (same order as submission).
    pub finish_times: Vec<Ns>,
    /// Per-task start times.
    pub start_times: Vec<Ns>,
    /// Tasks that never completed because a permanent fault killed them or
    /// an unsatisfied dependency blocked them. Empty without faults.
    pub failed_tasks: Vec<usize>,
}

impl ExecutionReport {
    /// Utilization of a resource: busy ÷ makespan.
    pub fn utilization(&self, r: ResourceId) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.busy[r.0] as f64 / self.makespan as f64
        }
    }

    /// The paper's idle fraction for a resource: 1 − utilization. Section 4.3
    /// observes "nearly 80% of the iteration time is idle" when SSD is used
    /// without the lock-free mechanism.
    pub fn idle_fraction(&self, r: ResourceId) -> f64 {
        1.0 - self.utilization(r)
    }

    /// Whether task `i` ran to completion. Killed-in-flight tasks have a
    /// start time but a zero finish time, so their duration is undefined —
    /// consumers (e.g. the trace export) must skip them.
    pub fn completed(&self, i: usize) -> bool {
        !self.failed_tasks.contains(&i)
    }

    /// Overlap ratio: Σ busy ÷ makespan — how many resources were kept busy
    /// on average. 1.0 = perfectly serial, N = N-way overlap.
    pub fn overlap_ratio(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.busy.iter().sum::<Ns>() as f64 / self.makespan as f64
        }
    }
}

/// A submitted schedule ready to execute.
#[derive(Debug, Clone)]
pub struct Simulation {
    resources: Resources,
    tasks: Vec<SimTask>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    finish: Ns,
    task: usize,
}

// Min-heap ordering by finish time (then task index for determinism).
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .finish
            .cmp(&self.finish)
            .then(other.task.cmp(&self.task))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Simulation {
    pub fn new(resources: Resources) -> Self {
        Self {
            resources,
            tasks: Vec::new(),
        }
    }

    pub fn resources(&self) -> &Resources {
        &self.resources
    }

    /// Submit a task; returns its index for use in later `deps`.
    pub fn submit(&mut self, task: SimTask) -> usize {
        for &d in &task.deps {
            assert!(
                d < self.tasks.len(),
                "dependency on not-yet-submitted task {d}"
            );
        }
        assert!(
            task.resource.0 < self.resources.num_resources(),
            "unknown resource"
        );
        self.tasks.push(task);
        self.tasks.len() - 1
    }

    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Reserve room for `additional` more tasks — lowerings know their
    /// graph size up front, so the task vector need not grow geometrically.
    pub fn reserve_tasks(&mut self, additional: usize) {
        self.tasks.reserve(additional);
    }

    /// Submitted tasks in submission order.
    pub fn tasks(&self) -> impl Iterator<Item = &SimTask> {
        self.tasks.iter()
    }

    /// Attach access annotations to an already-submitted task, for lowering
    /// code that only learns object identities after submission.
    pub fn annotate(&mut self, task: usize, accesses: impl IntoIterator<Item = Access>) {
        self.tasks[task].accesses.extend(accesses);
    }

    /// Execute the schedule to completion and report.
    ///
    /// The executor is an event-driven list scheduler: it maintains, per
    /// resource, the submission-ordered queue of its tasks; the head of a
    /// queue starts as soon as (a) the resource is free and (b) all its
    /// dependencies completed. This mirrors CUDA stream semantics: a stream
    /// blocks on its head task's events, it never reorders.
    pub fn run(&self) -> ExecutionReport {
        self.run_with_faults(&[])
    }

    /// [`Self::run`] with resource faults firing during the run. The graph
    /// itself is unchanged, so one graph can run with and without faults.
    pub fn run_with_faults(&self, faults: &[FaultEvent]) -> ExecutionReport {
        for f in faults {
            assert!(
                f.resource.0 < self.resources.num_resources(),
                "unknown resource"
            );
        }
        let n = self.tasks.len();
        let nr = self.resources.num_resources();
        let nm = self.resources.num_mem_domains();

        // Per-resource FIFO queues of task indices.
        let mut queues: Vec<std::collections::VecDeque<usize>> =
            vec![std::collections::VecDeque::new(); nr];
        for (i, t) in self.tasks.iter().enumerate() {
            queues[t.resource.0].push_back(i);
        }

        let mut deps_left: Vec<usize> = self.tasks.iter().map(|t| t.deps.len()).collect();
        // Reverse adjacency: who waits on me.
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                dependents[d].push(i);
            }
        }

        let mut resource_free_at: Vec<Ns> = vec![0; nr];
        let mut busy: Vec<Ns> = vec![0; nr];
        let mut mem_now: Vec<u64> = vec![0; nm];
        let mut peak_mem: Vec<u64> = vec![0; nm];
        let mut start_times: Vec<Ns> = vec![0; n];
        let mut finish_times: Vec<Ns> = vec![0; n];
        let mut done: Vec<bool> = vec![false; n];
        let mut started: Vec<bool> = vec![false; n];
        let mut dep_ready_at: Vec<Ns> = vec![0; n];

        // Fault preprocessing: per-resource sorted outage windows [start,
        // end) and the earliest permanent-death time.
        let mut outages: Vec<Vec<(Ns, Ns)>> = vec![Vec::new(); nr];
        let mut dead_at: Vec<Option<Ns>> = vec![None; nr];
        for f in faults {
            match f.kind {
                FaultKind::Outage { duration } => {
                    outages[f.resource.0].push((f.at, f.at.saturating_add(duration)));
                }
                FaultKind::Permanent => {
                    let d = dead_at[f.resource.0].get_or_insert(f.at);
                    *d = (*d).min(f.at);
                }
            }
        }
        // Merge overlapping windows so a paused task is not charged twice
        // for the same downtime.
        for w in &mut outages {
            w.sort_unstable();
            let mut merged: Vec<(Ns, Ns)> = Vec::with_capacity(w.len());
            for &(s, e) in w.iter() {
                match merged.last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => merged.push((s, e)),
                }
            }
            *w = merged;
        }

        let mut heap: BinaryHeap<Pending> = BinaryHeap::new();
        let mut now: Ns = 0;
        let mut completed = 0usize;

        // Sentinel task index for clock-only wake events (outage-deferred
        // starts have no completion event at the deferred time).
        const WAKE: usize = usize::MAX;

        // Try to start the head task of each resource queue. A head only
        // starts when the clock has reached its start time — memory is
        // acquired at the *actual* start, never at scheduling time, so
        // same-timestamp releases (drained in batch below) are always
        // visible to it. A head whose start lies in the future is left
        // queued; its start time is either a completion event (resource
        // free / dependency ready) or an explicitly pushed WAKE event
        // (outage end), so it is re-examined exactly then.
        macro_rules! try_start_heads {
            () => {
                for r in 0..nr {
                    while let Some(&head) = queues[r].front() {
                        if started[head] {
                            queues[r].pop_front();
                            continue;
                        }
                        if deps_left[head] > 0 {
                            break; // stream blocks on its head
                        }
                        let mut start = now.max(resource_free_at[r]).max(dep_ready_at[head]);
                        // Dead resources never free up; fail below, don't
                        // wait forever.
                        if start > now && resource_free_at[r] != Ns::MAX {
                            break; // a completion event at `start` retries
                        }
                        let task = &self.tasks[head];
                        let dur = self.resources.duration_of(task.resource, &task.work);
                        // Saturating: a stream behind a dead resource has
                        // `resource_free_at == Ns::MAX` and fails the death
                        // check below instead of overflowing here.
                        let mut finish = start.saturating_add(dur);
                        // Outages defer a start inside a window past it and
                        // pause an in-flight task for the overlap. Windows
                        // are sorted, and `finish` only grows, so one pass
                        // catches windows reached because of earlier stalls.
                        for &(ws, we) in &outages[r] {
                            if we <= start {
                                continue;
                            }
                            if ws <= start {
                                finish += we - start;
                                start = we;
                            } else if ws < finish {
                                finish += we - ws;
                            }
                        }
                        if start > now {
                            // Outage deferral: no completion event lands at
                            // the window end, so schedule an explicit wake
                            // and re-examine this head then.
                            heap.push(Pending {
                                finish: start,
                                task: WAKE,
                            });
                            break;
                        }
                        if let Some(d) = dead_at[r] {
                            if start >= d {
                                // The resource is gone before the task could
                                // start: it never runs, and neither can
                                // anything behind it in this stream — but
                                // marking it started pops it so the stream
                                // drains into failed_tasks too.
                                started[head] = true;
                                queues[r].pop_front();
                                continue;
                            }
                            if finish > d {
                                // Killed in flight at the moment of death:
                                // acquired memory is never released (the
                                // device took it down with it).
                                started[head] = true;
                                start_times[head] = start;
                                busy[r] += d - start;
                                resource_free_at[r] = Ns::MAX;
                                for e in &task.mem {
                                    mem_now[e.domain.0] += e.acquire;
                                    peak_mem[e.domain.0] =
                                        peak_mem[e.domain.0].max(mem_now[e.domain.0]);
                                }
                                queues[r].pop_front();
                                continue;
                            }
                        }
                        started[head] = true;
                        start_times[head] = start;
                        finish_times[head] = finish;
                        resource_free_at[r] = finish;
                        busy[r] += dur;
                        // Acquire memory at start.
                        for e in &task.mem {
                            mem_now[e.domain.0] += e.acquire;
                            peak_mem[e.domain.0] = peak_mem[e.domain.0].max(mem_now[e.domain.0]);
                        }
                        heap.push(Pending { finish, task: head });
                        queues[r].pop_front();
                    }
                }
            };
        }

        try_start_heads!();
        while let Some(Pending { finish, task }) = heap.pop() {
            now = finish;
            // Drain every completion at this timestamp before starting new
            // tasks, so all simultaneous releases and dependency resolutions
            // are visible to the next start decision. Popping one at a time
            // overstated `peak_mem`: a task could start at time t against a
            // memory level that a same-t completion was about to release.
            let mut batch = vec![task];
            while heap.peek().is_some_and(|p| p.finish == now) {
                let Some(p) = heap.pop() else { break };
                batch.push(p.task);
            }
            for &task in &batch {
                if task == WAKE {
                    continue; // clock-only event, nothing completed
                }
                done[task] = true;
                completed += 1;
                // Release memory at completion.
                for e in &self.tasks[task].mem {
                    let m = &mut mem_now[e.domain.0];
                    assert!(*m >= e.release, "memory underflow in domain {}", e.domain.0);
                    *m -= e.release;
                }
                for &dep in &dependents[task] {
                    deps_left[dep] -= 1;
                    dep_ready_at[dep] = dep_ready_at[dep].max(now);
                }
            }
            try_start_heads!();
        }

        // Without faults an incomplete run is a schedule bug; with faults it
        // is the expected outcome, reported in `failed_tasks`.
        if faults.is_empty() {
            assert_eq!(
                completed,
                n,
                "deadlock: {} tasks never ran (circular deps or blocked stream head)",
                n - completed
            );
        }
        let failed_tasks: Vec<usize> = (0..n).filter(|&i| !done[i]).collect();

        ExecutionReport {
            makespan: finish_times.iter().copied().max().unwrap_or(0),
            busy,
            peak_mem,
            final_mem: mem_now,
            finish_times,
            start_times,
            failed_tasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_resource() -> (Resources, ResourceId) {
        let mut r = Resources::new();
        let c = r.add_compute("gpu0");
        (r, c)
    }

    #[test]
    fn serial_tasks_on_one_resource() {
        let (r, gpu) = one_resource();
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(gpu, Work::Duration(100)));
        sim.submit(SimTask::new(gpu, Work::Duration(50)));
        let rep = sim.run();
        assert_eq!(rep.makespan, 150);
        assert_eq!(rep.busy[gpu.0], 150);
        assert_eq!(rep.utilization(gpu), 1.0);
    }

    #[test]
    fn independent_resources_overlap() {
        let mut r = Resources::new();
        let gpu = r.add_compute("gpu");
        let pcie = r.add_link("pcie", 1_000_000_000, 0); // 1 GB/s
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(gpu, Work::Duration(1_000_000)));
        sim.submit(SimTask::new(pcie, Work::Bytes(1_000_000))); // 1 ms
        let rep = sim.run();
        assert_eq!(rep.makespan, 1_000_000); // fully overlapped
        assert!((rep.overlap_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dependency_serializes_across_resources() {
        let mut r = Resources::new();
        let gpu = r.add_compute("gpu");
        let pcie = r.add_link("pcie", 1_000_000_000, 0);
        let mut sim = Simulation::new(r);
        let move_in = sim.submit(SimTask::new(pcie, Work::Bytes(2_000_000))); // 2 ms
        sim.submit(SimTask::new(gpu, Work::Duration(1_000_000)).with_deps([move_in]));
        let rep = sim.run();
        assert_eq!(rep.makespan, 3_000_000);
        assert_eq!(rep.start_times[1], 2_000_000);
        assert!(rep.idle_fraction(gpu) > 0.6); // GPU idle while waiting
    }

    #[test]
    fn stream_head_blocks_later_tasks_on_same_stream() {
        // CUDA-stream semantics: if the head of a stream waits on an event,
        // everything behind it waits too, even if independent.
        let mut r = Resources::new();
        let gpu = r.add_compute("gpu");
        let pcie = r.add_link("pcie", 1_000_000, 0); // 1 MB/s, slow
        let mut sim = Simulation::new(r);
        let slow_move = sim.submit(SimTask::new(pcie, Work::Bytes(1_000_000))); // 1 s
        sim.submit(SimTask::new(gpu, Work::Duration(10)).with_deps([slow_move]));
        sim.submit(SimTask::new(gpu, Work::Duration(10))); // independent but queued behind
        let rep = sim.run();
        assert_eq!(rep.start_times[2], 1_000_000_000 + 10);
    }

    #[test]
    fn transfer_duration_uses_bandwidth_and_latency() {
        let mut r = Resources::new();
        let link = r.add_link("ssd", 3_500_000_000, 100_000);
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(link, Work::Bytes(3_500_000_000)));
        let rep = sim.run();
        assert_eq!(rep.makespan, 1_000_000_000 + 100_000);
    }

    #[test]
    fn memory_peak_tracking() {
        let mut r = Resources::new();
        let gpu = r.add_compute("gpu");
        let dom = r.add_mem_domain("gpu-mem", 1000);
        let mut sim = Simulation::new(r);
        // Acquire 600, release at end.
        let a = sim.submit(SimTask::new(gpu, Work::Duration(10)).with_mem(MemEffect {
            domain: dom,
            acquire: 600,
            release: 600,
        }));
        // Second acquires 300 while first still holds (no dep): but same
        // stream ⇒ serial ⇒ never concurrent. Add a second stream.
        let _ = a;
        let rep = sim.run();
        assert_eq!(rep.peak_mem[dom.0], 600);
        assert_eq!(rep.final_mem[dom.0], 0);
    }

    #[test]
    fn concurrent_memory_acquisition_peaks_add() {
        let mut r = Resources::new();
        let s1 = r.add_compute("s1");
        let s2 = r.add_compute("s2");
        let dom = r.add_mem_domain("mem", 0);
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(s1, Work::Duration(100)).with_mem(MemEffect {
            domain: dom,
            acquire: 600,
            release: 600,
        }));
        sim.submit(SimTask::new(s2, Work::Duration(100)).with_mem(MemEffect {
            domain: dom,
            acquire: 500,
            release: 500,
        }));
        let rep = sim.run();
        assert_eq!(rep.peak_mem[dom.0], 1100);
    }

    #[test]
    fn unreleased_memory_shows_in_final() {
        let mut r = Resources::new();
        let gpu = r.add_compute("gpu");
        let dom = r.add_mem_domain("mem", 0);
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(gpu, Work::Duration(1)).with_mem(MemEffect {
            domain: dom,
            acquire: 128,
            release: 0,
        }));
        let rep = sim.run();
        assert_eq!(rep.final_mem[dom.0], 128);
    }

    #[test]
    #[should_panic(expected = "dependency on not-yet-submitted")]
    fn forward_dependency_rejected() {
        let (r, gpu) = one_resource();
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(gpu, Work::Duration(1)).with_deps([5]));
    }

    #[test]
    fn empty_schedule() {
        let (r, _gpu) = one_resource();
        let sim = Simulation::new(r);
        let rep = sim.run();
        assert_eq!(rep.makespan, 0);
        assert_eq!(rep.overlap_ratio(), 0.0);
    }

    #[test]
    fn diamond_dependency() {
        let mut r = Resources::new();
        let a = r.add_compute("a");
        let b = r.add_compute("b");
        let c = r.add_compute("c");
        let mut sim = Simulation::new(r);
        let root = sim.submit(SimTask::new(a, Work::Duration(10)));
        let left = sim.submit(SimTask::new(b, Work::Duration(20)).with_deps([root]));
        let right = sim.submit(SimTask::new(c, Work::Duration(30)).with_deps([root]));
        sim.submit(SimTask::new(a, Work::Duration(5)).with_deps([left, right]));
        let rep = sim.run();
        assert_eq!(rep.makespan, 10 + 30 + 5);
    }

    #[test]
    fn same_timestamp_release_seen_before_new_start() {
        // Regression: completions and starts at the same timestamp. Task C
        // (s2) finishes at t=100, as does A (s1, holding 600 bytes). B (s2,
        // acquiring 500) starts at t=100. Before the batch-drain fix the
        // executor popped one completion (C, the lower task index), started
        // B against A's still-unreleased 600, and reported peak 1100; the
        // true peak is 600 — A's release at t=100 precedes B's start.
        let mut r = Resources::new();
        let s1 = r.add_compute("s1");
        let s2 = r.add_compute("s2");
        let dom = r.add_mem_domain("mem", 0);
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(s2, Work::Duration(100))); // C: task 0
        sim.submit(SimTask::new(s1, Work::Duration(100)).with_mem(MemEffect {
            domain: dom,
            acquire: 600,
            release: 600,
        })); // A: task 1
        sim.submit(SimTask::new(s2, Work::Duration(50)).with_mem(MemEffect {
            domain: dom,
            acquire: 500,
            release: 500,
        })); // B: task 2
        let rep = sim.run();
        assert_eq!(rep.start_times[2], 100);
        assert_eq!(
            rep.peak_mem[dom.0], 600,
            "same-timestamp release must land before the new start"
        );
        assert_eq!(rep.final_mem[dom.0], 0);
    }

    #[test]
    fn outage_defers_task_starting_inside_window() {
        let (r, gpu) = one_resource();
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(gpu, Work::Duration(100)));
        sim.submit(SimTask::new(gpu, Work::Duration(50)));
        // Resource down [100, 400): the second task defers to t=400.
        let rep = sim.run_with_faults(&[FaultEvent {
            resource: gpu,
            at: 100,
            kind: FaultKind::Outage { duration: 300 },
        }]);
        assert_eq!(rep.start_times[1], 400);
        assert_eq!(rep.makespan, 450);
        assert!(rep.failed_tasks.is_empty());
    }

    #[test]
    fn outage_pauses_in_flight_task() {
        let (r, gpu) = one_resource();
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(gpu, Work::Duration(100)));
        // Down [30, 70): the task is paused for 40 ns mid-flight.
        let rep = sim.run_with_faults(&[FaultEvent {
            resource: gpu,
            at: 30,
            kind: FaultKind::Outage { duration: 40 },
        }]);
        assert_eq!(rep.finish_times[0], 140);
    }

    #[test]
    fn overlapping_outages_merge() {
        let (r, gpu) = one_resource();
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(gpu, Work::Duration(100)));
        // [10, 50) and [30, 80) overlap: union downtime is 70, not 90.
        let faults = [(10, 40), (30, 50)].map(|(at, duration)| FaultEvent {
            resource: gpu,
            at,
            kind: FaultKind::Outage { duration },
        });
        let rep = sim.run_with_faults(&faults);
        assert_eq!(rep.finish_times[0], 170);
    }

    #[test]
    fn outage_chain_catches_windows_reached_by_stall() {
        let (r, gpu) = one_resource();
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(gpu, Work::Duration(100)));
        // The second window [120, 150) only overlaps because the first
        // stall pushed the finish from 100 past 120.
        let faults = [(50, 60), (120, 30)].map(|(at, duration)| FaultEvent {
            resource: gpu,
            at,
            kind: FaultKind::Outage { duration },
        });
        let rep = sim.run_with_faults(&faults);
        assert_eq!(rep.finish_times[0], 100 + 60 + 30);
    }

    #[test]
    fn permanent_fault_kills_in_flight_and_blocks_stream() {
        let mut r = Resources::new();
        let gpu = r.add_compute("gpu");
        let other = r.add_compute("other");
        let dom = r.add_mem_domain("mem", 0);
        let mut sim = Simulation::new(r);
        let t0 = sim.submit(SimTask::new(gpu, Work::Duration(100)).with_mem(MemEffect {
            domain: dom,
            acquire: 64,
            release: 64,
        }));
        let t1 = sim.submit(SimTask::new(gpu, Work::Duration(100)));
        // Independent work on a live resource, ahead of the blocked task in
        // its stream, still completes.
        let t2 = sim.submit(SimTask::new(other, Work::Duration(10)));
        // Depends on the killed task: can never run, even on a live resource.
        let t3 = sim.submit(SimTask::new(other, Work::Duration(10)).with_deps([t0]));
        let rep = sim.run_with_faults(&[FaultEvent {
            resource: gpu,
            at: 50,
            kind: FaultKind::Permanent,
        }]);
        assert_eq!(rep.failed_tasks, vec![t0, t1, t3]);
        // The killed task never released what it had acquired.
        assert_eq!(rep.final_mem[dom.0], 64);
        assert_eq!(rep.finish_times[t2], 10);
        // Busy time accrues only until the death.
        assert_eq!(rep.busy[gpu.0], 50);
    }

    #[test]
    fn permanent_fault_before_start_fails_whole_stream() {
        let (r, gpu) = one_resource();
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(gpu, Work::Duration(10)));
        sim.submit(SimTask::new(gpu, Work::Duration(10)));
        let rep = sim.run_with_faults(&[FaultEvent {
            resource: gpu,
            at: 0,
            kind: FaultKind::Permanent,
        }]);
        assert_eq!(rep.failed_tasks, vec![0, 1]);
        assert_eq!(rep.makespan, 0);
    }

    #[test]
    fn fault_free_run_reports_no_failures() {
        let (r, gpu) = one_resource();
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(gpu, Work::Duration(10)));
        assert!(sim.run().failed_tasks.is_empty());
    }

    #[test]
    fn access_annotations_are_observational() {
        let (r, gpu) = one_resource();
        let mut sim = Simulation::new(r);
        let obj = ObjectId(42);
        let t = sim.submit(
            SimTask::new(gpu, Work::Duration(10))
                .with_access(Access::write(obj))
                .with_accesses([Access::read(ObjectId(7))]),
        );
        sim.annotate(t, [Access::free(obj)]);
        let task = sim.tasks().next().expect("one task");
        assert_eq!(
            task.accesses,
            vec![
                Access::write(obj),
                Access::read(ObjectId(7)),
                Access::free(obj)
            ]
        );
        // Executor behaviour is unchanged by annotations.
        assert_eq!(sim.run().makespan, 10);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two identical runs produce identical reports.
        let build = || {
            let mut r = Resources::new();
            let a = r.add_compute("a");
            let b = r.add_compute("b");
            let mut sim = Simulation::new(r);
            let t0 = sim.submit(SimTask::new(a, Work::Duration(10)));
            let t1 = sim.submit(SimTask::new(b, Work::Duration(10)));
            sim.submit(SimTask::new(a, Work::Duration(10)).with_deps([t0, t1]));
            sim.run()
        };
        assert_eq!(build(), build());
    }
}
