//! `service-mix`: a virtual-time open loop into the multi-job
//! `ControlPlane`, driven directly on four servers.
//!
//! A run is a series of episodes. Each episode submits a fixed deck of job
//! templates, evenly interleaved from seeded phases, at seeded exponential
//! arrival times and a fixed offered load, then drains the cluster through
//! `into_report`. The
//! benchmark times every `submit` call in wall-clock: it covers advancing
//! the cluster to the arrival plus the admission decision.

use crate::heap;
use crate::metrics::{Layers, Outcome};
use crate::tracer::Tracer;
use crate::util::{self, GOLDEN, SQRT2_FRAC};
use crate::Opts;
use angel_core::Recorder;
use angel_model::TransformerConfig;
use angel_service::{admit_at, ControlPlane, JobEventKind, JobId, JobSpec, ServiceConfig};
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Episodes every run completes, however slow.
pub const MIN_EPISODES: usize = 8;
pub const SERVERS: usize = 4;
/// Offered load: mean job demand over cluster capacity.
pub const OFFERED_LOAD: f64 = 1.5;
/// Nominal virtual duration of one job, for the arrival rate.
const MEAN_JOB_NS: f64 = 12e9;
const MAX_QUEUE: usize = 64;
/// Whale depths are spread over this range of GPT-3 28B-geometry layers.
const WHALE_LAYERS: (usize, usize) = (300, 1000);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Template {
    /// GPT-3 13B on one server.
    Small,
    /// GPT-3 13B asking for two servers, shrinkable to one.
    SmallWide,
    /// Elastic GPT-3 30B: two servers, shrinkable to one.
    Elastic30,
    /// High-priority GPT-3 13B on exactly two servers: a preemptor.
    Urgent,
    /// A deep GPT-3 28B-geometry job no slice can hold: must be rejected.
    Whale,
}

/// One episode's templates (40 submissions, 15% whales).
pub const DECK: &[(Template, usize)] = &[
    (Template::Small, 14),
    (Template::SmallWide, 6),
    (Template::Elastic30, 8),
    (Template::Urgent, 6),
    (Template::Whale, 6),
];

#[derive(Debug, Clone)]
pub struct Submission {
    pub template: Template,
    pub spec: JobSpec,
    pub at_ns: u64,
}

fn spec(template: Template, name: String, whale_layers: usize) -> JobSpec {
    match template {
        Template::Small => JobSpec::new(name, TransformerConfig::gpt3_13b(), 6),
        Template::SmallWide => {
            JobSpec::new(name, TransformerConfig::gpt3_13b(), 4).with_servers(2, 1)
        }
        Template::Elastic30 => {
            JobSpec::new(name, TransformerConfig::gpt3_30b(), 3).with_servers(2, 1)
        }
        Template::Urgent => JobSpec::new(name, TransformerConfig::gpt3_13b(), 2)
            .with_servers(2, 2)
            .with_priority(5),
        Template::Whale => JobSpec::new(
            name,
            TransformerConfig::gpt3_28b().with_layers(whale_layers),
            1,
        ),
    }
}

/// The seeded submission stream, one episode at a time. Whale depths and
/// arrival gaps follow Weyl sequences with seeded offsets, and each
/// template's submissions are spread evenly through an episode from a
/// seeded phase, so every run offers the same load, mix and whale range.
pub struct Generator {
    seed: u64,
    whale_offset: f64,
    gap_offset: f64,
    whales: usize,
    arrivals: usize,
    episode: usize,
}

impl Generator {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            whale_offset: util::rng(seed, 2).gen_range(0.0..1.0),
            gap_offset: util::rng(seed, 3).gen_range(0.0..1.0),
            whales: 0,
            arrivals: 0,
            episode: 0,
        }
    }

    pub fn next_episode(&mut self) -> Vec<Submission> {
        let e = self.episode;
        self.episode += 1;
        let mut phases = util::rng(self.seed, 300 + e as u64);
        let mut slots: Vec<(f64, Template)> = Vec::new();
        for &(t, n) in DECK {
            let phase: f64 = phases.gen_range(0.0..1.0);
            slots.extend((0..n).map(|i| ((i as f64 + phase) / n as f64, t)));
        }
        slots.sort_by(|a, b| a.0.total_cmp(&b.0));
        let deck = slots.into_iter().map(|(_, t)| t);
        let mean_gap_ns = MEAN_JOB_NS / (OFFERED_LOAD * SERVERS as f64);
        let mut t_ns = 0u64;
        deck.enumerate()
            .map(|(i, template)| {
                // Exponential gaps by inverse transform.
                let u = util::weyl(self.gap_offset, self.arrivals, SQRT2_FRAC);
                self.arrivals += 1;
                t_ns += (-(1.0 - u).ln() * mean_gap_ns).max(1.0) as u64;
                let mut layers = 0;
                if template == Template::Whale {
                    let frac = util::weyl(self.whale_offset, self.whales, GOLDEN);
                    layers = util::spread(WHALE_LAYERS.0, WHALE_LAYERS.1, frac);
                    self.whales += 1;
                }
                Submission {
                    template,
                    spec: spec(template, format!("{template:?}-{e}-{i}"), layers),
                    at_ns: t_ns,
                }
            })
            .collect()
    }
}

/// The admission key a certificate memo would use.
fn key(spec: &JobSpec) -> (TransformerConfig, u64, usize) {
    (
        spec.model.clone(),
        spec.batch_size,
        spec.servers.min(SERVERS),
    )
}

struct Episode {
    submit_ms: Vec<f64>,
    drain_ms: f64,
    report: angel_service::ServiceReport,
    ids: Vec<JobId>,
}

fn play(subs: &[Submission], recorder: Recorder, tr: &mut Tracer) -> Episode {
    let mut cp = ControlPlane::new(
        &ServiceConfig::new(SERVERS)
            .with_max_queue(MAX_QUEUE)
            .with_recorder(recorder),
    );
    let mut submit_ms = Vec::with_capacity(subs.len());
    let mut ids = Vec::with_capacity(subs.len());
    for sub in subs {
        let span = tr.begin("service.submit");
        let t0 = Instant::now();
        ids.push(cp.submit(sub.spec.clone(), sub.at_ns));
        submit_ms.push(util::ms(t0));
        tr.end(span);
    }
    let span = tr.begin("service.drain");
    let t0 = Instant::now();
    let report = cp.into_report();
    let drain_ms = util::ms(t0);
    tr.end(span);
    Episode {
        submit_ms,
        drain_ms,
        report,
        ids,
    }
}

/// Per-episode correctness: every submission decided and every admitted
/// job completed, every certificate fits, whales and only whales rejected.
fn check(subs: &[Submission], ep: &Episode, e: usize) -> Vec<String> {
    let r = &ep.report;
    let mut bad = Vec::new();
    if r.admitted + r.rejected != r.submitted || r.submitted != subs.len() {
        bad.push(format!(
            "episode {e}: {} submitted, {} admitted, {} rejected",
            r.submitted, r.admitted, r.rejected
        ));
    }
    if r.completed != r.admitted {
        bad.push(format!(
            "episode {e}: {} admitted but {} completed",
            r.admitted, r.completed
        ));
    }
    for a in &r.admissions {
        if !a.certificate.fits() {
            bad.push(format!(
                "episode {e}: job {} admitted with a certificate that does not fit",
                a.job.0
            ));
        }
    }
    let rejected: HashSet<JobId> = rejected_ids(r);
    for (sub, id) in subs.iter().zip(&ep.ids) {
        if rejected.contains(id) != (sub.template == Template::Whale) {
            bad.push(format!(
                "episode {e}: {} {}",
                sub.spec.name,
                if rejected.contains(id) {
                    "rejected"
                } else {
                    "admitted"
                }
            ));
        }
    }
    bad
}

fn rejected_ids(r: &angel_service::ServiceReport) -> HashSet<JobId> {
    r.events
        .iter()
        .filter(|ev| matches!(ev.kind, JobEventKind::Rejected { .. }))
        .map(|ev| ev.job)
        .collect()
}

/// Virtual wait from `Queued` to `Admitted`, per admitted job, in ms.
fn queue_waits(r: &angel_service::ServiceReport) -> Vec<f64> {
    let mut queued = HashMap::new();
    let mut waits = Vec::new();
    for ev in &r.events {
        match ev.kind {
            JobEventKind::Queued => {
                queued.insert(ev.job, ev.at_ns);
            }
            JobEventKind::Admitted { .. } => {
                if let Some(q) = queued.get(&ev.job) {
                    waits.push(ev.at_ns.saturating_sub(*q) as f64 / 1e6);
                }
            }
            _ => {}
        }
    }
    waits
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: draw the first episode and warm the admission path and the
    // engine on one small job, nine times; the median is reported.
    let mut setups = Vec::new();
    let mut gen = Generator::new(opts.seed);
    let mut first = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        gen = Generator::new(opts.seed);
        first = gen.next_episode();
        match admit_at(&spec(Template::Small, "warm-up".into(), 0), 1) {
            Ok((mut engine, _)) => {
                engine.train_iteration();
            }
            Err(e) => out.fail(format!("warm-up admission: {e}")),
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let replay = first.clone();

    let mut tr = Tracer::new(false);
    let mut layers = Layers::default();
    let mut submit_ms = Vec::new();
    let mut reject_ms = Vec::new();
    let mut wall_ms = 0.0;
    let (mut completed, mut makespan_ns) = (0usize, 0u64);
    let (mut plain_ms, mut plain_ops, mut traced_ms, mut traced_ops) = (0.0, 0u64, 0.0, 0u64);
    let mut keys = HashSet::new();
    let mut repeats = 0u64;
    let mut whale_depths = Vec::new();
    let mut first_log = None;
    let mut admission_keys = HashSet::new();
    let (mut cp_ms, mut preemptions, mut resumes) = (0.0, 0u64, 0u64);
    let mut waits = Vec::new();
    let mut stats = Vec::new();
    let mut heap_peaks = Vec::new();

    let t_loop = Instant::now();
    let mut e = 0usize;
    let mut next = Some(first);
    while let Some(subs) = next.take() {
        let traced = opts.traced && e % 2 == 1;
        tr.on = traced;
        tr.set_op(e as u64);
        let recorder = if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        heap::reset_peak();
        let ep = play(&subs, recorder.clone(), &mut tr);
        heap_peaks.push(heap::peak_mb());
        for f in check(&subs, &ep, e) {
            out.fail(f);
        }
        let rejected = rejected_ids(&ep.report);
        for ((sub, id), ms) in subs.iter().zip(&ep.ids).zip(&ep.submit_ms) {
            if !keys.insert(key(&sub.spec)) {
                repeats += 1;
            }
            if sub.template == Template::Whale {
                whale_depths.push(sub.spec.model.layers);
            }
            if rejected.contains(id) {
                reject_ms.push(*ms);
            }
        }
        let episode_ms = ep.submit_ms.iter().sum::<f64>() + ep.drain_ms;
        wall_ms += episode_ms;
        submit_ms.extend(&ep.submit_ms);
        out.attempted += subs.len() as u64;
        completed += ep.report.completed;
        makespan_ns += ep.report.makespan_ns;
        if traced {
            traced_ms += ep.submit_ms.iter().sum::<f64>();
            traced_ops += subs.len() as u64;
            // Re-issue every submission's admission at its requested size
            // from outside: the control plane's own calls are internal.
            let mut admit_ms = 0.0;
            for sub in &subs {
                let t0 = Instant::now();
                let verdict = tr.time("service.admission", || {
                    admit_at(&sub.spec, sub.spec.servers.min(SERVERS))
                });
                let ms = util::ms(t0);
                admit_ms += ms;
                layers.add("service.admission.calls", 1.0);
                layers.add("service.admission.busy_ms", ms);
                if !admission_keys.insert(key(&sub.spec)) {
                    layers.add("service.admission.repeat_key_ratio", 1.0);
                }
                match verdict {
                    Ok((mut engine, cert)) => {
                        layers.add("service.admission.admit_ratio", 1.0);
                        if !cert.fits() {
                            out.fail(format!(
                                "{}: re-issued certificate does not fit",
                                sub.spec.name
                            ));
                        }
                        stats.push(engine.train_iteration());
                    }
                    Err(_) => layers.add("service.admission.reject_ms", ms),
                }
            }
            cp_ms += episode_ms - admit_ms;
            preemptions += ep.report.preemptions as u64;
            resumes += ep.report.resumes as u64;
            waits.extend(queue_waits(&ep.report));
            let snap = recorder.snapshot();
            let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as usize;
            if counter("service.job_admitted") != ep.report.admitted
                || counter("service.job_preempted") != ep.report.preemptions
            {
                out.fail(format!(
                    "episode {e}: recorder counters disagree with the report"
                ));
            }
            if out.snapshot.is_none() {
                out.snapshot = Some(snap.to_json_string());
                out.trace_events
                    .extend(crate::tracer::runtime_events(&recorder, 2));
            }
        } else {
            plain_ms += ep.submit_ms.iter().sum::<f64>();
            plain_ops += subs.len() as u64;
        }
        if e == 0 {
            first_log = Some(ep.report.events);
        }
        e += 1;
        if opts.more(e, t_loop) {
            next = Some(gen.next_episode());
        }
    }

    // The same seed must give the same event log.
    let again = play(&replay, Recorder::disabled(), &mut Tracer::new(false));
    if first_log.as_ref() != Some(&again.report.events) {
        out.fail("episode 0 replayed to a different event log");
    }

    out.e2e.insert("setup_s", util::quantile(&setups, 0.5));
    out.e2e
        .insert("ops_per_s", submit_ms.len() as f64 / (wall_ms / 1e3));
    out.e2e
        .insert("op_p50_ms", util::quantile(&submit_ms, 0.50));
    out.e2e
        .insert("op_p90_ms", util::quantile(&submit_ms, 0.90));
    out.e2e.insert("event_mean_ms", util::mean(&reject_ms));
    out.e2e.insert(
        "sim_throughput",
        completed as f64 / (makespan_ns.max(1) as f64 / 1e9),
    );
    out.e2e
        .insert("peak_heap_mb", util::quantile(&heap_peaks, 0.5));

    if opts.traced {
        // The ratios were accumulated as counts.
        let calls = layers.get("service.admission.calls").max(1.0);
        for ratio in [
            "service.admission.admit_ratio",
            "service.admission.repeat_key_ratio",
        ] {
            layers.set(ratio, layers.get(ratio) / calls);
        }
        layers.set("service.control_plane.self_ms", cp_ms);
        layers.set("service.control_plane.preemptions", preemptions as f64);
        layers.set("service.control_plane.resumes", resumes as f64);
        if !waits.is_empty() {
            layers.set(
                "service.control_plane.queue_wait_p50_ms",
                util::quantile(&waits, 0.5),
            );
        }
        layers.set_sim(&stats);
        layers.set_overhead((plain_ms, plain_ops), (traced_ms, traced_ops));
        let mut events = tr.chrome_events(1);
        events.append(&mut out.trace_events);
        out.trace_events = events;
    }
    out.layers = layers;

    let n = out.attempted as f64;
    let whales: usize = DECK
        .iter()
        .filter(|(t, _)| *t == Template::Whale)
        .map(|(_, c)| c)
        .sum();
    let deck: usize = DECK.iter().map(|(_, c)| c).sum();
    out.inputs
        .insert("workload".into(), serde_json::json!("service-mix"));
    out.inputs
        .insert("submissions".into(), serde_json::json!(out.attempted));
    out.inputs
        .insert("episodes".into(), serde_json::json!(e as u64));
    out.inputs
        .insert("servers".into(), serde_json::json!(SERVERS as u64));
    out.inputs
        .insert("offered_load".into(), serde_json::json!(OFFERED_LOAD));
    out.inputs.insert(
        "repeated_key_share".into(),
        serde_json::json!(repeats as f64 / n),
    );
    out.inputs.insert(
        "infeasible_share".into(),
        serde_json::json!(whales as f64 / deck as f64),
    );
    out.inputs.insert(
        "whale_depth_histogram".into(),
        util::histogram(&whale_depths, &[300, 400, 500, 600, 700, 800, 900, 1000]),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_episodes_other_seed_other_episodes() {
        let episodes = |seed| {
            let mut g = Generator::new(seed);
            (0..2)
                .flat_map(|_| g.next_episode())
                .map(|s| (s.template, key(&s.spec), s.at_ns))
                .collect::<Vec<_>>()
        };
        assert_eq!(episodes(9), episodes(9));
        assert_ne!(episodes(9), episodes(10));
        let subs = Generator::new(9).next_episode();
        assert!(subs.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
        assert_eq!(subs.len(), DECK.iter().map(|(_, n)| n).sum::<usize>());
    }
}
