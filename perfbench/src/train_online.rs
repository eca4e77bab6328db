//! `train-online`: closed loop on one long-lived engine — GPT-3 175B with
//! SSD, starting on four servers — under a seeded stream of cluster events.
//!
//! Outages and server losses come from `fault::mtbf_cluster_events` and go
//! through `Engine::run_online` (the faulted iteration, the splice and the
//! first iteration of the new plan). Each one is followed, a few
//! iterations later, by an elastic recovery through `Engine::splice_resize`
//! back to the full fleet; without it every outage would tighten the GPU
//! budget by another 1/16 until re-planning became infeasible. Every other
//! iteration is a quiet `train_iteration`.

use crate::heap;
use crate::metrics::{Layers, Outcome};
use crate::tracer::Tracer;
use crate::util;
use crate::Opts;
use angel_core::{fault, ClusterEvent, Engine, EngineConfig, IterStats, Recorder, SpliceReport};
use angel_model::TransformerConfig;
use std::collections::VecDeque;
use std::time::Instant;

/// Iterations every run completes, however slow.
pub const MIN_ITERS: usize = 2000;
pub const SERVERS: usize = 4;
/// Iterations per independently drawn block of events.
const BLOCK: usize = 200;
/// Nominal iteration time and fleet MTTF handed to the event generator:
/// one failure per hundred iterations on average.
const EVENT_ITER_NS: u64 = 1_000_000_000;
const FLEET_MTTF_S: f64 = 100.0;
/// Iterations between a fault and the elastic recovery that follows it.
const RECOVER_AFTER: usize = 8;
/// Traced runs alternate untraced and traced blocks of this many
/// iterations, and decompose every `PROBE_EVERY`th traced quiet iteration.
const TRACE_BLOCK: usize = 100;
const PROBE_EVERY: usize = 8;

pub fn model() -> TransformerConfig {
    TransformerConfig::gpt3_175b()
}

pub fn config() -> EngineConfig {
    EngineConfig::servers(SERVERS).with_ssd(true)
}

/// The fault events of iterations `[block·BLOCK, (block+1)·BLOCK)`.
pub fn events(seed: u64, block: usize) -> Vec<ClusterEvent> {
    let block_seed = rand::RngCore::next_u64(&mut util::rng(seed, 200 + block as u64));
    fault::mtbf_cluster_events(block_seed, BLOCK, EVENT_ITER_NS, FLEET_MTTF_S, SERVERS)
        .into_iter()
        .map(|ev| anchored(ev, ev.at_iter() + block * BLOCK))
        .collect()
}

/// `ev` moved to iteration `at_iter`.
fn anchored(ev: ClusterEvent, at_iter: usize) -> ClusterEvent {
    match ev {
        ClusterEvent::Outage {
            target,
            at_ns,
            duration_ns,
            ..
        } => ClusterEvent::Outage {
            at_iter,
            target,
            at_ns,
            duration_ns,
        },
        ClusterEvent::ServerLoss { servers, at_ns, .. } => ClusterEvent::ServerLoss {
            at_iter,
            servers,
            at_ns,
        },
        ClusterEvent::Resize { servers, .. } => ClusterEvent::Resize { at_iter, servers },
    }
}

/// Whether the first iteration after a splice matches a fresh engine
/// initialized at the engine's new configuration.
fn matches_fresh(engine: &Engine, after: &IterStats) -> Result<(), String> {
    let mut fresh = Engine::initialize(&model(), engine.config())
        .map_err(|e| format!("fresh engine at the spliced config: {e}"))?;
    let expect = fresh.train_iteration();
    if expect == *after {
        Ok(())
    } else {
        Err(format!(
            "post-splice iteration {after:?} differs from a fresh engine {expect:?}"
        ))
    }
}

#[derive(Default)]
struct Replans {
    splices: u64,
    busy_ns: u64,
    reused: u64,
    layers: u64,
    in_place: u64,
}

impl Replans {
    fn add(&mut self, s: &SpliceReport) {
        self.splices += 1;
        self.busy_ns += s.replan_ns;
        self.reused += s.outcome.layers_reused as u64;
        self.layers += model().layers as u64;
        self.in_place += u64::from(s.outcome.patched_in_place);
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: the initial engine, three warm-up iterations and the first
    // block of events, nine times; the median is reported.
    let mut setups = Vec::new();
    let mut engine = None;
    let mut pending = VecDeque::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        match Engine::initialize(&model(), &config()) {
            Ok(mut e) => {
                for _ in 0..3 {
                    e.train_iteration();
                }
                engine = Some(e);
            }
            Err(e) => out.fail(format!("initial engine: {e}")),
        }
        pending = events(opts.seed, 0).into();
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Some(mut engine) = engine else {
        return out;
    };

    let recorder = Recorder::enabled();
    let mut tr = Tracer::new(false);
    let mut layers = Layers::default();
    let mut quiet = Vec::new();
    let mut splice_ops = Vec::new();
    let mut all_stats = Vec::new();
    let mut replans = Replans::default();
    let (mut samples, mut sim_ns) = (0.0f64, 0u64);
    let (mut plain_ms, mut plain_ops, mut traced_ms, mut traced_ops) = (0.0, 0u64, 0.0, 0u64);
    let (mut probe_iter_ms, mut probe_lower_ms, mut probe_run_ms) = (0.0, 0.0, 0.0);
    let (mut outages, mut losses, mut recoveries, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    let mut traced_iters = 0u64;
    let mut total_ms = 0.0;
    let mut loaded_blocks = 1usize;
    let mut recover_at: Option<usize> = None;
    let mut quiet_idx = 0usize;
    let mut heap_peaks = Vec::new();

    let t_loop = Instant::now();
    let mut k = 0usize;
    while opts.more(k, t_loop) {
        let traced = opts.traced && (k / TRACE_BLOCK) % 2 == 1;
        if traced != tr.on {
            tr.on = traced;
            engine.set_recorder(if traced {
                recorder.clone()
            } else {
                Recorder::disabled()
            });
        }
        tr.set_op(k as u64);
        while loaded_blocks * BLOCK <= k + 1 {
            pending.extend(events(opts.seed, loaded_blocks));
            loaded_blocks += 1;
        }
        // Events on an iteration a previous two-iteration event consumed,
        // and server losses that would leave fewer than two servers, are
        // skipped.
        while let Some(ev) = pending.front().copied() {
            let too_small = matches!(ev, ClusterEvent::ServerLoss { servers, .. }
                if engine.config().cluster.num_servers < servers + 2);
            if ev.at_iter() < k || (ev.at_iter() == k && too_small) {
                pending.pop_front();
                dropped += 1;
            } else {
                break;
            }
        }
        if k.is_multiple_of(BLOCK) {
            if k > 0 {
                heap_peaks.push(heap::peak_mb());
            }
            heap::reset_peak();
        }
        let before = k;
        let global_batch = engine.config().global_batch() as f64;

        if pending.front().is_some_and(|ev| ev.at_iter() == k) {
            let Some(ev) = pending.pop_front() else { break };
            match ev {
                ClusterEvent::ServerLoss { .. } => losses += 1,
                _ => outages += 1,
            }
            let span = tr.begin("engine.run_online");
            let t0 = Instant::now();
            let result = engine.run_online(2, &[anchored(ev, 0)]);
            let lat = util::ms(t0);
            tr.end(span);
            splice_ops.push(lat);
            total_ms += lat;
            k += 2;
            match result {
                Ok(r) => {
                    samples += r.samples_per_sec * r.total_time_ns as f64 / 1e9;
                    sim_ns += r.total_time_ns;
                    match (r.splices.as_slice(), r.per_iter.get(1)) {
                        ([s], Some(after)) => {
                            if traced {
                                replans.add(s);
                            }
                            if let Err(e) = matches_fresh(&engine, after) {
                                out.fail(format!("iteration {before}: {e}"));
                            }
                        }
                        _ => out.fail(format!("iteration {before}: expected one splice")),
                    }
                    all_stats.extend(r.per_iter.iter().copied());
                }
                Err(e) => out.fail(format!("iteration {before}: event {ev:?} failed: {e}")),
            }
            recover_at = Some(recover_at.unwrap_or(k + RECOVER_AFTER));
        } else if recover_at.is_some_and(|r| r <= k) {
            recoveries += 1;
            let span = tr.begin("engine.splice_resize");
            let t0 = Instant::now();
            let spliced = engine.splice_resize(k, SERVERS);
            let stats = tr.time("engine.train_iteration", || engine.train_iteration());
            let lat = util::ms(t0);
            tr.end(span);
            splice_ops.push(lat);
            total_ms += lat;
            match spliced {
                Ok(s) => {
                    if traced {
                        replans.add(&s);
                    }
                    if let Err(e) = matches_fresh(&engine, &stats) {
                        out.fail(format!("iteration {k}: {e}"));
                    }
                }
                Err(e) => out.fail(format!("iteration {k}: recovery failed: {e}")),
            }
            account(&stats, global_batch, &mut samples, &mut sim_ns);
            all_stats.push(stats);
            recover_at = None;
            k += 1;
        } else {
            let span = tr.begin("engine.train_iteration");
            let t0 = Instant::now();
            let stats = engine.train_iteration();
            let lat = util::ms(t0);
            tr.end(span);
            quiet.push(lat);
            total_ms += lat;
            if traced {
                traced_ms += lat;
                traced_ops += 1;
            } else {
                plain_ms += lat;
                plain_ops += 1;
            }
            if traced && quiet_idx.is_multiple_of(PROBE_EVERY) {
                // Decompose: the same engine's lowering and simulation.
                let t1 = Instant::now();
                let lowered = tr.time("plan.lower", || engine.lower_iteration());
                let t2 = Instant::now();
                let executed = tr.time("sim.run", || lowered.sim.run());
                probe_run_ms += util::ms(t2);
                probe_lower_ms += t2.duration_since(t1).as_secs_f64() * 1e3;
                probe_iter_ms += lat;
                layers.add("plan.lower.tasks", lowered.sim.num_tasks() as f64);
                if executed.makespan == 0 {
                    out.fail(format!("iteration {k}: empty simulation"));
                }
            }
            account(&stats, global_batch, &mut samples, &mut sim_ns);
            all_stats.push(stats);
            quiet_idx += 1;
            k += 1;
        }
        if traced {
            traced_iters += (k - before) as u64;
        }
    }
    out.attempted = k as u64;

    out.e2e.insert("setup_s", util::quantile(&setups, 0.5));
    out.e2e.insert("ops_per_s", k as f64 / (total_ms / 1e3));
    out.e2e.insert("op_p50_ms", util::quantile(&quiet, 0.50));
    out.e2e.insert("op_p90_ms", util::quantile(&quiet, 0.90));
    out.e2e.insert("event_mean_ms", util::mean(&splice_ops));
    out.e2e
        .insert("sim_throughput", samples / (sim_ns.max(1) as f64 / 1e9));
    heap_peaks.push(heap::peak_mb());
    out.e2e
        .insert("peak_heap_mb", util::quantile(&heap_peaks, 0.5));

    if opts.traced {
        let snap = recorder.snapshot();
        let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
        let lower = tr.total("plan.lower");
        let sim = tr.total("sim.run");
        layers.set("plan.lower.calls", lower.calls as f64);
        layers.set("plan.lower.busy_ms", lower.busy_ms());
        layers.set("sim.runs", sim.calls as f64);
        layers.set("sim.busy_ms", sim.busy_ms());
        layers.set("sim.tasks_executed", counter("sim.tasks_executed") as f64);
        layers.set("sim.tasks_failed", counter("sim.tasks_failed") as f64);
        if sim.calls > 0 {
            let self_ms = (probe_iter_ms - probe_lower_ms - probe_run_ms) / sim.calls as f64;
            layers.set("engine.iteration.self_ms", self_ms);
        }
        layers.set_sim(&all_stats);
        layers.set("replan.splices", replans.splices as f64);
        layers.set("replan.busy_ms", replans.busy_ns as f64 / 1e6);
        if replans.splices > 0 {
            layers.set(
                "replan.layers_reused_ratio",
                replans.reused as f64 / replans.layers as f64,
            );
            layers.set(
                "replan.in_place_ratio",
                replans.in_place as f64 / replans.splices as f64,
            );
        }
        layers.set_overhead((plain_ms, plain_ops), (traced_ms, traced_ops));

        // The Recorder the engine publishes into must have seen exactly
        // the iterations and splices of the traced blocks.
        if counter("engine.iterations") != traced_iters {
            out.fail(format!(
                "engine.iterations = {} but the traced blocks ran {traced_iters}",
                counter("engine.iterations")
            ));
        }
        if counter("plan.replans") != replans.splices {
            out.fail(format!(
                "plan.replans = {} but the traced blocks spliced {}",
                counter("plan.replans"),
                replans.splices
            ));
        }
        let mut events = tr.chrome_events(1);
        events.extend(crate::tracer::runtime_events(&recorder, 2));
        out.trace_events = events;
        out.snapshot = Some(snap.to_json_string());
    }
    out.layers = layers;

    out.inputs
        .insert("workload".into(), serde_json::json!("train-online"));
    out.inputs
        .insert("iterations".into(), serde_json::json!(k as u64));
    out.inputs
        .insert("start_servers".into(), serde_json::json!(SERVERS as u64));
    out.inputs.insert(
        "fleet_mttf_iters".into(),
        serde_json::json!(FLEET_MTTF_S * 1e9 / EVENT_ITER_NS as f64),
    );
    out.inputs.insert(
        "splices_by_kind".into(),
        serde_json::json!({"outage": outages, "server_loss": losses, "resize": recoveries}),
    );
    out.inputs
        .insert("skipped_events".into(), serde_json::json!(dropped));
    out
}

/// Goodput accounting: a stranded iteration contributes time but no
/// samples (the `run_online` convention).
fn account(stats: &IterStats, global_batch: f64, samples: &mut f64, sim_ns: &mut u64) {
    if stats.tasks_failed == 0 {
        *samples += global_batch;
    }
    *sim_ns += stats.iter_time_ns;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_events_other_seed_other_events() {
        let all = |seed| (0..10).flat_map(|b| events(seed, b)).collect::<Vec<_>>();
        assert_eq!(all(5), all(5));
        assert_ne!(all(5), all(6));
        assert!(all(5).iter().all(|e| e.at_iter() < 10 * BLOCK));
    }
}
