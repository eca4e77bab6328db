//! The control plane: a deterministic discrete-event scheduler over the
//! shared cluster's virtual timeline.
//!
//! Jobs are planned at submission (through the engine's staged pipeline),
//! admitted only under a verifier
//! certificate ([`crate::admission`]), and then time-share the cluster as
//! disjoint server slices. All scheduling actions — admission, preemption,
//! shrink/grow, resume — happen at **iteration boundaries**, implemented as
//! [`Engine::splice_resize`] plan splices: the same online-replanning
//! machinery that absorbs cluster faults also implements multi-job
//! elasticity.
//!
//! Policy (deterministic; ties broken by submission order):
//! * higher priority preempts lower, never equal — FIFO within a priority;
//! * a preemption first *shrinks* the victim toward `min_servers` (it keeps
//!   training, smaller), and suspends it entirely only when shrinking
//!   cannot free enough — a suspended job's engine is parked, not
//!   destroyed, so resuming costs one splice (a from-scratch plan at the
//!   new size), not a new engine;
//! * freed capacity is handed out in strict priority order across parked
//!   and queued jobs together (no backfill: a blocked head-of-line
//!   candidate accumulates capacity rather than letting a lower-priority
//!   job churn in and out of the slot that was freed for it), then goes to
//!   growing shrunk running jobs back toward their requested size;
//! * every admission is justified by the §8 verifier's peak-memory bound —
//!   a job whose certified peak cannot fit is rejected, never queued.

use crate::admission::{admit_at, AdmissionCertificate};
use crate::cluster::ClusterLedger;
use crate::job::{JobEvent, JobEventKind, JobId, JobSpec, RejectReason};
use angel_core::{Engine, ObsThread, Recorder};
use crossbeam::channel::Sender;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Static configuration of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Servers in the shared cluster.
    pub servers: usize,
    /// Admission-queue capacity; submissions beyond it are shed with
    /// [`RejectReason::QueueFull`].
    pub max_queue: usize,
    /// Observability sink; disabled (free) by default. Job events land on
    /// the Perfetto `service` track, plus `service.*` counters.
    pub recorder: Recorder,
}

impl ServiceConfig {
    pub fn new(servers: usize) -> Self {
        Self {
            servers,
            max_queue: 64,
            recorder: Recorder::disabled(),
        }
    }

    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }
}

/// One admission decision and its certificate, for the report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmissionRecord {
    pub job: JobId,
    pub name: String,
    pub certificate: AdmissionCertificate,
}

/// End-of-run accounting across every job the service saw.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceReport {
    pub submitted: usize,
    pub admitted: usize,
    pub rejected: usize,
    pub completed: usize,
    /// Shrink + suspend preemptions.
    pub preemptions: usize,
    /// Parked-job resumes + shrunk-job grow-backs.
    pub resumes: usize,
    /// Peak number of concurrently *running* jobs.
    pub max_concurrent: usize,
    /// Virtual time at quiescence.
    pub makespan_ns: u64,
    /// Allocated-server time ÷ total server time over the makespan.
    pub utilization: f64,
    /// Per completed job: submission → end of first iteration.
    pub ttfi_ns: Vec<u64>,
    /// Every admission with its verifier certificate.
    pub admissions: Vec<AdmissionRecord>,
    /// The full ordered event log.
    pub events: Vec<JobEvent>,
}

impl ServiceReport {
    /// The `p`-th percentile (0.0..=1.0) of time-to-first-iteration.
    pub fn ttfi_percentile_ns(&self, p: f64) -> u64 {
        percentile_ns(&self.ttfi_ns, p)
    }
}

/// Nearest-rank percentile over unsorted nanosecond samples.
pub fn percentile_ns(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted: Vec<u64> = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// A job currently holding a slice and stepping iterations.
struct Running {
    id: JobId,
    spec: JobSpec,
    engine: Box<Engine>,
    servers: usize,
    iters_done: usize,
    submitted_ns: u64,
    ttfi_ns: Option<u64>,
    /// Virtual time at which the in-flight iteration completes.
    next_boundary_ns: u64,
}

/// A job suspended by preemption: the engine session is parked whole, so
/// resuming costs one splice instead of a fresh plan.
struct Parked {
    id: JobId,
    spec: JobSpec,
    engine: Box<Engine>,
    iters_done: usize,
    submitted_ns: u64,
    ttfi_ns: Option<u64>,
}

/// A job admitted to the queue (feasible at its requested size) waiting
/// for capacity.
struct Waiting {
    id: JobId,
    spec: JobSpec,
    submitted_ns: u64,
}

/// The deterministic multi-job scheduler. Drive it directly for synchronous
/// use (benches, tests), or through [`crate::Service`] for the threaded
/// submission stream.
pub struct ControlPlane {
    max_queue: usize,
    recorder: Recorder,
    ledger: ClusterLedger,
    now_ns: u64,
    next_id: u64,
    running: Vec<Running>,
    parked: Vec<Parked>,
    waiting: VecDeque<Waiting>,
    events: Vec<JobEvent>,
    sink: Option<Sender<JobEvent>>,
    submitted: usize,
    admitted: usize,
    rejected: usize,
    completed: usize,
    preemptions: usize,
    resumes: usize,
    max_concurrent: usize,
    ttfi_ns: Vec<u64>,
    admissions: Vec<AdmissionRecord>,
}

impl ControlPlane {
    pub fn new(config: &ServiceConfig) -> Self {
        Self {
            max_queue: config.max_queue,
            recorder: config.recorder.clone(),
            ledger: ClusterLedger::new(config.servers),
            now_ns: 0,
            next_id: 0,
            running: Vec::new(),
            parked: Vec::new(),
            waiting: VecDeque::new(),
            events: Vec::new(),
            sink: None,
            submitted: 0,
            admitted: 0,
            rejected: 0,
            completed: 0,
            preemptions: 0,
            resumes: 0,
            max_concurrent: 0,
            ttfi_ns: Vec::new(),
            admissions: Vec::new(),
        }
    }

    /// Stream every emitted [`JobEvent`] into `tx` as well as the log.
    pub(crate) fn set_event_sink(&mut self, tx: Sender<JobEvent>) {
        self.sink = Some(tx);
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The ordered event log so far.
    pub fn events(&self) -> &[JobEvent] {
        &self.events
    }

    /// Jobs currently holding slices and stepping.
    pub fn running_jobs(&self) -> usize {
        self.running.len()
    }

    /// Submit a job with a virtual arrival time (monotone; earlier times
    /// clamp to the current virtual clock). Returns the assigned id —
    /// the decision (admit/queue/reject) lands in the event stream.
    pub fn submit(&mut self, spec: JobSpec, at_ns: u64) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.submit_with_id(id, spec, at_ns);
        id
    }

    /// Submission with a caller-assigned id (the threaded service hands
    /// ids out before the control thread sees the message).
    pub(crate) fn submit_with_id(&mut self, id: JobId, spec: JobSpec, at_ns: u64) {
        self.advance_to(at_ns);
        self.next_id = self.next_id.max(id.0 + 1);
        self.submitted += 1;
        if let Err(reason) = spec.validate() {
            self.emit(id, JobEventKind::Rejected { reason });
            self.rejected += 1;
            return;
        }
        if spec.min_servers > self.ledger.total_servers() {
            self.emit(
                id,
                JobEventKind::Rejected {
                    reason: RejectReason::BadSpec {
                        detail: "min_servers exceeds the cluster",
                    },
                },
            );
            self.rejected += 1;
            return;
        }
        self.emit(id, JobEventKind::Queued);
        self.try_place_new(id, spec, at_ns.max(self.now_ns));
    }

    /// Process every boundary up to `t`, then move the clock there.
    pub fn advance_to(&mut self, t: u64) {
        while let Some(b) = self.earliest_boundary() {
            if b > t {
                break;
            }
            self.process_next_boundary();
        }
        if t > self.now_ns {
            self.now_ns = t;
            self.ledger.advance(t);
        }
    }

    /// Run the cluster until no job is running and none can be scheduled.
    pub fn run_to_quiescence(&mut self) {
        loop {
            if self.running.is_empty() {
                self.try_schedule();
                if self.running.is_empty() {
                    break;
                }
            }
            self.process_next_boundary();
        }
    }

    /// Drain to quiescence and produce the final report.
    pub fn into_report(mut self) -> ServiceReport {
        self.run_to_quiescence();
        self.ledger.advance(self.now_ns);
        ServiceReport {
            submitted: self.submitted,
            admitted: self.admitted,
            rejected: self.rejected,
            completed: self.completed,
            preemptions: self.preemptions,
            resumes: self.resumes,
            max_concurrent: self.max_concurrent,
            makespan_ns: self.now_ns,
            utilization: self.ledger.utilization(self.now_ns),
            ttfi_ns: self.ttfi_ns,
            admissions: self.admissions,
            events: self.events,
        }
    }

    // ---- internals ------------------------------------------------------

    /// The requested size, clamped to what the cluster can ever grant.
    fn requested(&self, spec: &JobSpec) -> usize {
        spec.servers.min(self.ledger.total_servers())
    }

    fn earliest_boundary(&self) -> Option<u64> {
        self.running.iter().map(|r| r.next_boundary_ns).min()
    }

    fn emit(&mut self, job: JobId, kind: JobEventKind) {
        let ev = JobEvent {
            at_ns: self.now_ns,
            job,
            kind,
        };
        if let Some(tx) = &self.sink {
            let _ = tx.send(ev.clone());
        }
        if self.recorder.is_enabled() {
            let rec = &self.recorder;
            rec.counter(&format!("service.{}", ev.kind.name())).inc();
            rec.instant(
                ObsThread::Service,
                ev.kind.name(),
                i64::try_from(ev.job.0).unwrap_or(-1),
            );
            rec.counter_sample(
                ObsThread::Service,
                "service.running_jobs",
                self.running.len() as u64,
            );
            rec.counter_sample(
                ObsThread::Service,
                "service.queued_jobs",
                (self.waiting.len() + self.parked.len()) as u64,
            );
            rec.counter_sample(
                ObsThread::Service,
                "service.free_servers",
                self.ledger.free_servers() as u64,
            );
        }
        self.events.push(ev);
    }

    fn reject(&mut self, id: JobId, reason: RejectReason) {
        self.rejected += 1;
        self.emit(id, JobEventKind::Rejected { reason });
    }

    /// Admission flow for a fresh submission.
    fn try_place_new(&mut self, id: JobId, spec: JobSpec, submitted_ns: u64) {
        let free = self.ledger.free_servers();
        let requested = self.requested(&spec);
        if free >= spec.min_servers {
            let n = free.min(requested);
            match admit_at(&spec, n) {
                Ok((engine, certificate)) => {
                    self.start(id, spec, engine, certificate, submitted_ns);
                    return;
                }
                Err(reason) if n == requested => {
                    self.reject(id, reason);
                    return;
                }
                Err(_) => {} // infeasible at the *shrunk* size; probe below
            }
        }
        // No capacity right now (or only a slice too small for the model).
        // Probe feasibility at the requested size so permanently-impossible
        // jobs are shed immediately instead of clogging the queue.
        match admit_at(&spec, requested) {
            Ok(_) => self.enqueue(id, spec, submitted_ns),
            Err(reason) => self.reject(id, reason),
        }
    }

    fn enqueue(&mut self, id: JobId, spec: JobSpec, submitted_ns: u64) {
        if self.waiting.len() >= self.max_queue {
            self.reject(
                id,
                RejectReason::QueueFull {
                    depth: self.waiting.len(),
                },
            );
            return;
        }
        self.waiting.push_back(Waiting {
            id,
            spec,
            submitted_ns,
        });
    }

    /// Begin running an admitted job: carve its slice, record the
    /// certificate, and simulate its first iteration from `now`.
    fn start(
        &mut self,
        id: JobId,
        spec: JobSpec,
        engine: Engine,
        certificate: AdmissionCertificate,
        submitted_ns: u64,
    ) {
        self.ledger.carve(id, certificate.servers);
        self.admitted += 1;
        self.admissions.push(AdmissionRecord {
            job: id,
            name: spec.name.clone(),
            certificate,
        });
        self.emit(
            id,
            JobEventKind::Admitted {
                servers: certificate.servers,
                peak_bound_bytes: certificate.peak_bound_bytes,
                gpu_budget_bytes: certificate.gpu_budget_bytes,
            },
        );
        let mut r = Running {
            id,
            spec,
            engine: Box::new(engine),
            servers: certificate.servers,
            iters_done: 0,
            submitted_ns,
            ttfi_ns: None,
            next_boundary_ns: 0,
        };
        self.step(&mut r);
        self.running.push(r);
        self.max_concurrent = self.max_concurrent.max(self.running.len());
    }

    /// Simulate the next iteration of `r`, starting at the current virtual
    /// time, and schedule its boundary.
    fn step(&mut self, r: &mut Running) {
        let stats = r.engine.train_iteration();
        r.next_boundary_ns = self.now_ns + stats.iter_time_ns.max(1);
    }

    /// Advance the earliest iteration boundary: complete the iteration,
    /// apply boundary-scheduled actions (completion, preemption, growth),
    /// and start the job's next iteration if it keeps its slice.
    fn process_next_boundary(&mut self) {
        let Some(idx) = self
            .running
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (r.next_boundary_ns, r.id))
            .map(|(i, _)| i)
        else {
            return;
        };
        let mut r = self.running.remove(idx);
        self.now_ns = self.now_ns.max(r.next_boundary_ns);
        self.ledger.advance(self.now_ns);
        r.iters_done += 1;
        if r.ttfi_ns.is_none() {
            r.ttfi_ns = Some(self.now_ns.saturating_sub(r.submitted_ns));
        }

        if r.iters_done >= r.spec.iters {
            self.ledger.release(r.id);
            self.completed += 1;
            let ttfi = r.ttfi_ns.unwrap_or(0);
            self.ttfi_ns.push(ttfi);
            self.emit(
                r.id,
                JobEventKind::Completed {
                    iters: r.iters_done,
                    ttfi_ns: ttfi,
                },
            );
            self.try_schedule();
            return;
        }

        let suspended = self.maybe_preempt(&mut r);
        if suspended {
            self.parked.push(Parked {
                id: r.id,
                spec: r.spec,
                engine: r.engine,
                iters_done: r.iters_done,
                submitted_ns: r.submitted_ns,
                ttfi_ns: r.ttfi_ns,
            });
        } else {
            self.maybe_grow(&mut r);
            self.step(&mut r);
            self.running.push(r);
        }
        self.try_schedule();
    }

    /// The highest-priority job waiting for capacity (queued or parked),
    /// with its minimum slice. Ties resolve to the earliest submission.
    fn top_demand(&self) -> Option<(u8, usize)> {
        let waiting = self
            .waiting
            .iter()
            .map(|w| (w.spec.priority, w.id, w.spec.min_servers));
        let parked = self
            .parked
            .iter()
            .map(|p| (p.spec.priority, p.id, p.spec.min_servers));
        waiting
            .chain(parked)
            .max_by_key(|&(prio, id, _)| (prio, std::cmp::Reverse(id)))
            .map(|(prio, _, min)| (prio, min))
    }

    /// At `r`'s boundary: if strictly-higher-priority work is starved of
    /// its minimum slice, shrink `r` toward `min_servers` — or suspend it
    /// outright when shrinking cannot cover the deficit. Returns whether
    /// `r` was suspended.
    fn maybe_preempt(&mut self, r: &mut Running) -> bool {
        let Some((priority, need_min)) = self.top_demand() else {
            return false;
        };
        let free = self.ledger.free_servers();
        if priority <= r.spec.priority || free >= need_min {
            return false;
        }
        let deficit = need_min - free;
        let shrinkable = r.servers.saturating_sub(r.spec.min_servers);
        if shrinkable >= deficit {
            let to = r.servers - deficit;
            // Shrink via plan splice; if the model cannot actually run at
            // the smaller size, fall through to a full suspension.
            if r.engine.splice_resize(r.iters_done, to).is_ok() {
                self.ledger.resize(r.id, to);
                self.preemptions += 1;
                self.emit(
                    r.id,
                    JobEventKind::Preempted {
                        from_servers: r.servers,
                        to_servers: to,
                    },
                );
                r.servers = to;
                return false;
            }
        }
        self.ledger.release(r.id);
        self.preemptions += 1;
        self.emit(
            r.id,
            JobEventKind::Preempted {
                from_servers: r.servers,
                to_servers: 0,
            },
        );
        true
    }

    /// At `r`'s boundary: grow a shrunk job back toward its requested size
    /// when capacity is free and nobody is waiting for it.
    fn maybe_grow(&mut self, r: &mut Running) {
        let requested = self.requested(&r.spec);
        let free = self.ledger.free_servers();
        if r.servers >= requested
            || free == 0
            || !self.waiting.is_empty()
            || !self.parked.is_empty()
        {
            return;
        }
        let to = requested.min(r.servers + free);
        if r.engine.splice_resize(r.iters_done, to).is_err() {
            return;
        }
        self.ledger.resize(r.id, to);
        self.resumes += 1;
        self.emit(r.id, JobEventKind::Resumed { servers: to });
        r.servers = to;
    }

    /// Hand freed capacity out in **strict priority order** across parked
    /// and queued jobs together (FIFO within a priority; parked and queued
    /// compete on equal terms since ids are submission-ordered). Strictness
    /// matters: resuming a parked low-priority victim while a
    /// higher-priority job still waits for its minimum slice would churn —
    /// the victim gets preempted right back at its next boundary. So a
    /// blocked head-of-line candidate stops the handout entirely; freed
    /// capacity accumulates until the demand it was freed for can run.
    fn try_schedule(&mut self) {
        loop {
            let free = self.ledger.free_servers();
            // The single best candidate across both pools.
            let best_parked = self
                .parked
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| (p.spec.priority, std::cmp::Reverse(p.id)))
                .map(|(i, p)| (p.spec.priority, std::cmp::Reverse(p.id), i));
            let best_waiting = self
                .waiting
                .iter()
                .enumerate()
                .max_by_key(|(_, w)| (w.spec.priority, std::cmp::Reverse(w.id)))
                .map(|(i, w)| (w.spec.priority, std::cmp::Reverse(w.id), i));
            match (best_parked, best_waiting) {
                (None, None) => break,
                (Some((_, _, i)), None) => {
                    if !self.resume_parked_at(i, free) {
                        break;
                    }
                }
                (None, Some((_, _, i))) => {
                    if !self.admit_waiting_at(i, free) {
                        break;
                    }
                }
                (Some(p), Some(w)) => {
                    // Strict order; on a priority tie the lower id (earlier
                    // submission) goes first.
                    let placed = if (p.0, p.1) >= (w.0, w.1) {
                        self.resume_parked_at(p.2, free)
                    } else {
                        self.admit_waiting_at(w.2, free)
                    };
                    if !placed {
                        break;
                    }
                }
            }
        }
    }

    /// Try to resume `parked[idx]` with `free` servers available. Returns
    /// whether anything was placed (false ⇒ the handout must stop).
    fn resume_parked_at(&mut self, idx: usize, free: usize) -> bool {
        if self.parked[idx].spec.min_servers > free {
            return false; // head-of-line blocked: accumulate capacity
        }
        let p = self.parked.remove(idx);
        let n = free.min(self.requested(&p.spec));
        let mut engine = p.engine;
        if engine.config().cluster.num_servers != n
            && engine.splice_resize(p.iters_done, n).is_err()
        {
            // Cannot actually run at this size; park it again and stop
            // trying this round (capacity has not changed).
            self.parked.push(Parked { engine, ..p });
            return false;
        }
        self.ledger.carve(p.id, n);
        self.resumes += 1;
        self.emit(p.id, JobEventKind::Resumed { servers: n });
        let mut r = Running {
            id: p.id,
            spec: p.spec,
            engine,
            servers: n,
            iters_done: p.iters_done,
            submitted_ns: p.submitted_ns,
            ttfi_ns: p.ttfi_ns,
            next_boundary_ns: 0,
        };
        self.step(&mut r);
        self.running.push(r);
        self.max_concurrent = self.max_concurrent.max(self.running.len());
        true
    }

    /// Try to admit `waiting[idx]` with `free` servers available. Returns
    /// whether the handout may continue.
    fn admit_waiting_at(&mut self, idx: usize, free: usize) -> bool {
        if self.waiting[idx].spec.min_servers > free {
            return false; // head-of-line blocked: accumulate capacity
        }
        let Some(w) = self.waiting.remove(idx) else {
            return false;
        };
        let requested = self.requested(&w.spec);
        let n = free.min(requested);
        match admit_at(&w.spec, n) {
            Ok((engine, certificate)) => {
                self.start(w.id, w.spec, engine, certificate, w.submitted_ns);
                true
            }
            // Infeasible even at the requested size: terminally reject and
            // keep handing capacity to the next candidate.
            Err(reason) if n == requested => {
                self.reject(w.id, reason);
                true
            }
            Err(_) => {
                // Feasible only at a larger slice; keep waiting. Put it
                // back and stop — capacity has not changed, so retrying
                // at the same size would loop.
                self.waiting.push_back(w);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use angel_model::TransformerConfig;

    fn tiny(name: &str, iters: usize) -> JobSpec {
        JobSpec::new(
            name,
            TransformerConfig::gpt3_1_7b()
                .with_layers(2)
                .with_seq_len(256),
            iters,
        )
    }

    #[test]
    fn percentiles() {
        assert_eq!(percentile_ns(&[], 0.5), 0);
        assert_eq!(percentile_ns(&[7], 0.99), 7);
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&xs, 0.0), 1);
        assert_eq!(percentile_ns(&xs, 0.5), 51);
        assert_eq!(percentile_ns(&xs, 1.0), 100);
    }

    #[test]
    fn single_job_runs_to_completion() {
        let mut cp = ControlPlane::new(&ServiceConfig::new(2));
        let id = cp.submit(tiny("solo", 3), 0);
        let report = cp.into_report();
        assert_eq!(report.submitted, 1);
        assert_eq!(report.admitted, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.ttfi_ns.len(), 1);
        assert!(report.ttfi_ns[0] > 0);
        assert!(report.makespan_ns > 0);
        assert!(report.utilization > 0.0 && report.utilization <= 1.0);
        // Admission carried a fitting certificate.
        assert_eq!(report.admissions.len(), 1);
        assert!(report.admissions[0].certificate.fits());
        // Event order for the one job: Queued → Admitted → Completed.
        let kinds: Vec<&'static str> = report
            .events
            .iter()
            .filter(|e| e.job == id)
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(kinds, ["job_queued", "job_admitted", "job_completed"]);
    }

    #[test]
    fn concurrent_jobs_share_the_cluster() {
        let mut cp = ControlPlane::new(&ServiceConfig::new(4));
        for k in 0..3 {
            cp.submit(tiny(&format!("j{k}"), 2), 0);
        }
        let report = cp.into_report();
        assert_eq!(report.completed, 3);
        assert_eq!(report.max_concurrent, 3);
        assert_eq!(report.preemptions, 0);
    }

    #[test]
    fn capacity_queues_then_admits() {
        let mut cp = ControlPlane::new(&ServiceConfig::new(1));
        cp.submit(tiny("first", 2), 0);
        cp.submit(tiny("second", 2), 0); // cluster full → waits
        let report = cp.into_report();
        assert_eq!(report.admitted, 2);
        assert_eq!(report.completed, 2);
        assert_eq!(report.max_concurrent, 1);
        // The second job's TTFI includes its queueing delay.
        assert!(report.ttfi_ns[1] > report.ttfi_ns[0]);
    }

    #[test]
    fn higher_priority_preempts_and_victim_resumes() {
        let mut cp = ControlPlane::new(&ServiceConfig::new(2));
        // The victim wants the whole cluster but tolerates half. It runs
        // long enough to still hold boundaries after the urgent job leaves
        // (growth back happens at the victim's own iteration boundaries).
        cp.submit(tiny("victim", 6).with_servers(2, 1), 0);
        // An urgent job arrives mid-run and needs one server.
        cp.submit(tiny("urgent", 2).with_priority(3), 1);
        let report = cp.into_report();
        assert_eq!(report.completed, 2);
        assert!(report.preemptions >= 1, "urgent work must preempt");
        assert!(report.resumes >= 1, "victim must grow back after");
        let kinds: Vec<&'static str> = report.events.iter().map(|e| e.kind.name()).collect();
        assert!(kinds.contains(&"job_preempted"));
        assert!(kinds.contains(&"job_resumed"));
        // The victim was shrunk, not killed: it still completed all iters.
        let completed: Vec<JobId> = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, JobEventKind::Completed { .. }))
            .map(|e| e.job)
            .collect();
        assert!(completed.contains(&JobId(0)) && completed.contains(&JobId(1)));
    }

    #[test]
    fn full_suspension_when_shrinking_cannot_cover() {
        let mut cp = ControlPlane::new(&ServiceConfig::new(2));
        // Victim insists on both servers (min == requested == 2).
        cp.submit(tiny("rigid", 3).with_servers(2, 2), 0);
        // Urgent job needs both too → the victim must be fully suspended.
        cp.submit(tiny("urgent", 2).with_servers(2, 2).with_priority(5), 1);
        let report = cp.into_report();
        assert_eq!(report.completed, 2);
        let suspended = report
            .events
            .iter()
            .any(|e| matches!(e.kind, JobEventKind::Preempted { to_servers: 0, .. }));
        assert!(suspended, "victim must be fully suspended");
        let resumed = report
            .events
            .iter()
            .any(|e| e.job == JobId(0) && matches!(e.kind, JobEventKind::Resumed { .. }));
        assert!(resumed, "victim must resume after the urgent job departs");
    }

    #[test]
    fn equal_priority_never_preempts() {
        let mut cp = ControlPlane::new(&ServiceConfig::new(1));
        cp.submit(tiny("a", 2), 0);
        cp.submit(tiny("b", 2), 1);
        let report = cp.into_report();
        assert_eq!(report.preemptions, 0);
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn infeasible_and_invalid_jobs_are_rejected() {
        let mut cp = ControlPlane::new(&ServiceConfig::new(1));
        let whale = JobSpec::new("whale", TransformerConfig::gpt3_28b().with_layers(3000), 1);
        cp.submit(whale, 0);
        cp.submit(tiny("zero-iters", 0), 0);
        let mut wide = tiny("too-wide", 1);
        wide.min_servers = 9;
        wide.servers = 9;
        cp.submit(wide, 0);
        let report = cp.into_report();
        assert_eq!(report.rejected, 3);
        assert_eq!(report.admitted, 0);
        let reasons: Vec<String> = report
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                JobEventKind::Rejected { reason } => Some(reason.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(reasons.len(), 3);
        assert!(reasons[0].contains("infeasible"));
        assert!(reasons[1].contains("iters"));
        assert!(reasons[2].contains("cluster"));
    }

    #[test]
    fn queue_overflow_sheds_load() {
        let cfg = ServiceConfig::new(1).with_max_queue(1);
        let mut cp = ControlPlane::new(&cfg);
        cp.submit(tiny("run", 2), 0);
        cp.submit(tiny("wait", 2), 0);
        cp.submit(tiny("shed", 2), 0);
        let report = cp.into_report();
        assert_eq!(report.rejected, 1);
        assert!(report.events.iter().any(|e| matches!(
            &e.kind,
            JobEventKind::Rejected {
                reason: RejectReason::QueueFull { .. }
            }
        )));
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn deterministic_given_the_same_submissions() {
        let run = || {
            let mut cp = ControlPlane::new(&ServiceConfig::new(2));
            cp.submit(tiny("a", 2).with_servers(2, 1), 0);
            cp.submit(tiny("b", 2).with_priority(2), 5);
            cp.submit(tiny("c", 1), 10);
            cp.into_report()
        };
        let (r1, r2) = (run(), run());
        assert_eq!(r1.events, r2.events);
        assert_eq!(r1.makespan_ns, r2.makespan_ns);
        assert_eq!(r1.ttfi_ns, r2.ttfi_ns);
    }
}
