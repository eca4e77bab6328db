//! `plan-sweep`: closed loop, one client, certified-plan requests over
//! distinct (model, cluster, parallelism) keys.
//!
//! A request is what a user pays to ask "does it fit, and how fast?":
//! `Engine::initialize` → `lower_iteration` → plan-graph verify →
//! `verify_spmd` → one `train_iteration`. Requests come in cycles: every
//! cycle holds one request of each [`CLASSES`] entry, in a seeded order,
//! with the class's depth, width and fleet drawn along low-discrepancy
//! sequences so that every run covers each class's range evenly.

use crate::heap;
use crate::metrics::{Layers, Outcome};
use crate::tracer::Tracer;
use crate::util::{self, E_FRAC, GOLDEN, SQRT2_FRAC, SQRT3_FRAC};
use crate::Opts;
use angel_core::plan::{lower_schedule, ScheduleLowering};
use angel_core::verify::spmd;
use angel_core::{
    Engine, EngineConfig, Error, IterStats, MemoryPlan, ParallelismPlan, PlanGraph, SchedulePlan,
    ShardPlan, TracePlan, ZeroStage,
};
use angel_hw::DeviceId;
use angel_model::TransformerConfig;
use rand::Rng;
use std::collections::HashSet;
use std::time::Instant;

/// Cycles every run completes, however slow, so the simulated metric has
/// enough plans behind it.
pub const MIN_CYCLES: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// GPT-3 13B geometry (d = 5140).
    Gpt13,
    /// GPT-3 175B geometry (d = 14336).
    Gpt175,
    /// T5-MoE-1.2T geometry with a varying expert count.
    T5Moe,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// ZeRO-3 data parallelism over every GPU.
    Zero3,
    /// dp × tp2 × pp2 with four micro-batches.
    Mesh,
}

pub struct Class {
    pub name: &'static str,
    pub family: Family,
    pub layers: (usize, usize),
    pub experts: (usize, usize),
    pub servers: &'static [usize],
    pub layout: Layout,
    pub ssd: bool,
    pub lock_free: bool,
    /// Whether every request of the class should plan (the rest must get a
    /// typed rejection).
    pub feasible: bool,
}

const fn dense(
    name: &'static str,
    family: Family,
    layers: (usize, usize),
    servers: &'static [usize],
    layout: Layout,
    ssd: bool,
    lock_free: bool,
) -> Class {
    Class {
        name,
        family,
        layers,
        experts: (0, 0),
        servers,
        layout,
        ssd,
        lock_free,
        feasible: true,
    }
}

const fn moe(
    name: &'static str,
    layers: (usize, usize),
    experts: (usize, usize),
    servers: &'static [usize],
    layout: Layout,
) -> Class {
    Class {
        name,
        family: Family::T5Moe,
        layers,
        experts,
        servers,
        layout,
        ssd: false,
        lock_free: false,
        feasible: matches!(layout, Layout::Zero3),
    }
}

use Family::{Gpt13, Gpt175};
use Layout::{Mesh, Zero3};

/// One cycle of requests: 20 feasible classes and 2 infeasible ones
/// (about a tenth of the requests must be rejected).
pub const CLASSES: &[Class] = &[
    dense("gpt13-shallow", Gpt13, (24, 64), &[1], Zero3, false, false),
    dense(
        "gpt13-shallow-mesh",
        Gpt13,
        (24, 64),
        &[1, 2, 4],
        Mesh,
        false,
        false,
    ),
    dense("gpt13-mid-ssd", Gpt13, (80, 130), &[1], Zero3, true, false),
    dense("gpt13-mid", Gpt13, (80, 130), &[8, 16], Zero3, false, false),
    dense(
        "gpt13-mid-mesh",
        Gpt13,
        (80, 130),
        &[8, 16],
        Mesh,
        false,
        false,
    ),
    dense(
        "gpt13-deep-ssd",
        Gpt13,
        (180, 240),
        &[1, 2],
        Zero3,
        true,
        false,
    ),
    dense(
        "gpt13-deep-wide",
        Gpt13,
        (180, 260),
        &[32, 64],
        Zero3,
        false,
        false,
    ),
    dense(
        "gpt13-vdeep-ssd",
        Gpt13,
        (350, 450),
        &[8],
        Zero3,
        true,
        false,
    ),
    dense(
        "gpt13-xdeep-mesh",
        Gpt13,
        (500, 600),
        &[64],
        Mesh,
        false,
        false,
    ),
    dense(
        "gpt175-shallow",
        Gpt175,
        (24, 64),
        &[8, 16],
        Zero3,
        false,
        false,
    ),
    dense(
        "gpt175-shallow-ssd-lf",
        Gpt175,
        (24, 40),
        &[1],
        Zero3,
        true,
        true,
    ),
    dense(
        "gpt175-mid-mesh",
        Gpt175,
        (80, 110),
        &[8, 16],
        Mesh,
        false,
        false,
    ),
    dense("gpt175-mid-ssd", Gpt175, (70, 90), &[1], Zero3, true, false),
    dense(
        "gpt175-lf-ssd",
        Gpt175,
        (60, 100),
        &[4, 8],
        Zero3,
        true,
        true,
    ),
    dense(
        "gpt175-deep-wide-ssd",
        Gpt175,
        (150, 250),
        &[64],
        Zero3,
        true,
        false,
    ),
    dense(
        "gpt175-vdeep-ssd",
        Gpt175,
        (350, 450),
        &[8],
        Zero3,
        true,
        false,
    ),
    dense(
        "gpt175-xdeep",
        Gpt175,
        (480, 560),
        &[32, 64],
        Zero3,
        false,
        false,
    ),
    moe("moe-small", (8, 16), (32, 80), &[1, 8], Zero3),
    moe("moe-wide", (16, 32), (128, 512), &[16, 32, 64], Zero3),
    moe("moe-xl", (8, 12), (1024, 1536), &[64], Zero3),
    Class {
        feasible: false,
        ..dense(
            "gpt175-deep-1srv",
            Gpt175,
            (200, 400),
            &[1],
            Zero3,
            false,
            false,
        )
    },
    moe("moe-mesh", (8, 16), (64, 256), &[1, 2, 4], Mesh),
];

/// Everything that identifies a plan: no two requests of a run share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub family: Family,
    pub layers: usize,
    pub experts: usize,
    pub servers: usize,
    pub batch: u64,
    pub layout: Layout,
    pub ssd: bool,
    pub lock_free: bool,
}

impl Key {
    pub fn model(&self) -> TransformerConfig {
        match self.family {
            Family::Gpt13 => TransformerConfig::gpt3_13b().with_layers(self.layers),
            Family::Gpt175 => TransformerConfig::gpt3_175b().with_layers(self.layers),
            Family::T5Moe => TransformerConfig::t5_moe_1_2t()
                .with_layers(self.layers)
                .with_experts(self.experts),
        }
    }

    pub fn config(&self) -> EngineConfig {
        let config = EngineConfig::servers(self.servers)
            .with_batch_size(self.batch)
            .with_ssd(self.ssd)
            .with_lock_free(self.lock_free);
        match self.layout {
            Layout::Zero3 => config,
            Layout::Mesh => config
                .with_parallelism(ParallelismPlan {
                    dp: self.servers * 8 / 4,
                    tp: 2,
                    pp: 2,
                    zero_stage: ZeroStage::Full,
                })
                .with_micro_batches(4),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    pub class: usize,
    pub key: Key,
}

/// The seeded request stream.
pub struct Generator {
    seed: u64,
    /// Per class: Weyl offsets for depth, width, fleet size and batch.
    offsets: Vec<[f64; 4]>,
    seen: HashSet<Key>,
    cycle: usize,
    next_id: u64,
}

impl Generator {
    pub fn new(seed: u64) -> Self {
        let mut rng = util::rng(seed, 1);
        let offsets = CLASSES
            .iter()
            .map(|_| std::array::from_fn(|_| rng.gen_range(0.0..1.0)))
            .collect();
        Self {
            seed,
            offsets,
            seen: HashSet::new(),
            cycle: 0,
            next_id: 0,
        }
    }

    /// The next cycle: one request per class, in a seeded order.
    pub fn next_cycle(&mut self) -> Vec<Request> {
        let c = self.cycle;
        self.cycle += 1;
        let mut order: Vec<usize> = (0..CLASSES.len()).collect();
        util::shuffle(&mut order, &mut util::rng(self.seed, 100 + c as u64));
        let mut out = Vec::with_capacity(order.len());
        for k in order {
            let class = &CLASSES[k];
            let [o_depth, o_width, o_fleet, o_batch] = self.offsets[k];
            let pick = |offset, step, n: usize| (util::weyl(offset, c, step) * n as f64) as usize;
            let mut key = Key {
                family: class.family,
                layers: util::spread(
                    class.layers.0,
                    class.layers.1,
                    util::weyl(o_depth, c, GOLDEN),
                ),
                experts: if class.experts.1 == 0 {
                    0
                } else {
                    util::spread(
                        class.experts.0,
                        class.experts.1,
                        util::weyl(o_width, c, SQRT2_FRAC),
                    )
                },
                servers: class.servers[pick(o_fleet, SQRT3_FRAC, class.servers.len())],
                batch: 1 + pick(o_batch, E_FRAC, 2) as u64,
                layout: class.layout,
                ssd: class.ssd,
                lock_free: class.lock_free,
            };
            // Distinct keys: step the depth past any key already issued.
            while !self.seen.insert(key) {
                key.layers += 1;
            }
            out.push(Request {
                id: self.next_id,
                class: k,
                key,
            });
            self.next_id += 1;
        }
        out
    }
}

/// What one request returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Admitted {
        /// Tasks of the lowered iteration.
        tasks: usize,
        /// Simulated training throughput of the plan.
        samples_per_sec: f64,
        stats: Option<IterStats>,
    },
    Rejected(String),
}

pub struct Served {
    pub latency_ms: f64,
    pub verdict: Verdict,
    pub failure: Option<String>,
}

fn typed_rejection(e: &Error) -> bool {
    matches!(
        e,
        Error::ModelTooLarge { .. }
            | Error::WorkingSetTooLarge { .. }
            | Error::InvalidParallelism(_)
    )
}

fn rejected(req: &Request, latency_ms: f64, e: &Error) -> Served {
    let failure = if !typed_rejection(e) {
        Some(format!("request {}: untyped rejection {e}", req.id))
    } else if CLASSES[req.class].feasible {
        Some(format!(
            "request {} ({} {:?}): unexpected rejection {e}",
            req.id, CLASSES[req.class].name, req.key
        ))
    } else {
        None
    };
    Served {
        latency_ms,
        verdict: Verdict::Rejected(e.to_string()),
        failure,
    }
}

/// The untraced request: the public engine API, timed as one operation.
/// The coverage check re-runs the verified lowering outside the timing.
pub fn serve_plain(req: &Request) -> Served {
    let model = req.key.model();
    let config = req.key.config();
    let t0 = Instant::now();
    let mut engine = match Engine::initialize(&model, &config) {
        Ok(e) => e,
        Err(e) => return rejected(req, util::ms(t0), &e),
    };
    let lowered = engine.lower_iteration();
    let report = PlanGraph::from_sim(&lowered.sim).verify();
    let spmd = engine.verify_spmd();
    let stats = engine.train_iteration();
    let latency_ms = util::ms(t0);

    let executed = lowered.sim.run();
    let mut failure = None;
    if !report.is_clean() || !report.covers(&executed) {
        failure = Some(format!(
            "request {}: plan verifier unclean or not covering",
            req.id
        ));
    }
    match spmd {
        Ok(s) if s.is_certified() => {}
        Ok(s) => failure = Some(format!("request {}: spmd {}", req.id, s.describe())),
        Err(e) => failure = Some(format!("request {}: spmd error {e}", req.id)),
    }
    if !CLASSES[req.class].feasible {
        failure = Some(format!("request {}: infeasible class planned", req.id));
    }
    Served {
        latency_ms,
        verdict: Verdict::Admitted {
            tasks: lowered.sim.num_tasks(),
            samples_per_sec: stats.samples_per_sec,
            stats: Some(stats),
        },
        failure,
    }
}

/// The traced request: the six stages `Engine::initialize` composes, then
/// the three lowerings, the verifiers and the simulation the untraced
/// request performs, each in its own span, on the same inputs.
pub fn serve_traced(req: &Request, tr: &mut Tracer, layers: &mut Layers) -> Served {
    let model = req.key.model();
    let config = req.key.config();
    let t0 = Instant::now();
    tr.set_op(req.id);
    let span = tr.begin("plan_sweep.request");
    let out = staged(req, &model, &config, tr, layers);
    tr.end(span);
    let latency_ms = util::ms(t0);
    match out {
        Err(e) => {
            if matches!(
                e,
                Error::ModelTooLarge { .. } | Error::WorkingSetTooLarge { .. }
            ) {
                layers.add("plan.memory.rejects", 1.0);
            }
            rejected(req, latency_ms, &e)
        }
        Ok((verdict, failure)) => Served {
            latency_ms,
            verdict,
            failure,
        },
    }
}

fn staged(
    req: &Request,
    model: &TransformerConfig,
    config: &EngineConfig,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> angel_core::Result<(Verdict, Option<String>)> {
    let traced = tr.time("plan.trace", || TracePlan::build(model, config))?;
    layers.add("plan.trace.tensors", traced.trace.tensors.len() as f64);
    let shard = tr.time("plan.shard", || ShardPlan::build(model, config, &traced));
    let pages: usize = shard.input.layers.iter().map(|l| l.shard_pages.len()).sum();
    layers.add("plan.shard.pages", pages as f64);
    let mem = tr.time("plan.memory", || MemoryPlan::build(config, &shard))?;
    let mut planner = None;
    let planned = tr.time("plan.schedule", || {
        SchedulePlan::build_with_planner(config, &shard, &mem, &traced.zero, &mut planner)
    })?;
    layers.add("plan.schedule.tasks", planned.schedule.tasks.len() as f64);
    let placed = tr.time("plan.memory", || mem.place(config, &shard, &planned))?;
    let allocator = tr.time("allocator.materialize", || {
        mem.materialize(config, model.layers, &placed)
    })?;
    let mut pages = allocator.stats(DeviceId::CPU).used_pages;
    if config.use_ssd {
        pages += allocator.stats(DeviceId::SSD).used_pages;
    }
    layers.add("allocator.pages", pages as f64);

    let args = ScheduleLowering {
        model,
        config,
        schedule: &planned.schedule,
        placement: placed.placement,
        cache_plan: planned.cache_plan,
        zero: &traced.zero,
        layer_comm_bytes: &shard.layer_comm_bytes,
    };
    let lower = |tr: &mut Tracer, layers: &mut Layers| {
        let lowered = tr.time("plan.lower", || lower_schedule(&args));
        layers.add("plan.lower.tasks", lowered.sim.num_tasks() as f64);
        lowered
    };
    // lower_iteration + plan-graph verify.
    let lowered = lower(tr, layers);
    let report = tr.time("verify.plan", || PlanGraph::from_sim(&lowered.sim).verify());
    layers.add("verify.plan.tasks", report.task_count as f64);
    // verify_spmd: mesh, lowering, certification.
    let mesh = config.device_mesh()?;
    let for_spmd = lower(tr, layers);
    let spmd = tr.time("verify.spmd", || spmd::certify(&for_spmd.comm_log, &mesh));
    layers.add("verify.spmd.events", spmd.events_checked as f64);
    // train_iteration: lowering and simulation.
    let for_run = lower(tr, layers);
    let executed = tr.time("sim.run", || for_run.sim.run());
    let failed = executed.failed_tasks.len();
    layers.add(
        "sim.tasks_executed",
        (for_run.sim.num_tasks() - failed) as f64,
    );
    layers.add("sim.tasks_failed", failed as f64);

    let clean = report.is_clean() && report.covers(&executed);
    layers.add("verify.plan.clean_ratio", if clean { 1.0 } else { 0.0 });
    let mut failure = None;
    if !clean {
        failure = Some(format!(
            "request {}: plan verifier unclean or not covering",
            req.id
        ));
    }
    if !spmd.is_certified() {
        failure = Some(format!("request {}: spmd {}", req.id, spmd.describe()));
    }
    if !CLASSES[req.class].feasible {
        failure = Some(format!("request {}: infeasible class planned", req.id));
    }
    let slots = config.micro_batches + config.parallelism.pp as u64 - 1;
    let iter_ns = (executed.makespan * slots).max(1);
    Ok((
        Verdict::Admitted {
            tasks: lowered.sim.num_tasks(),
            samples_per_sec: config.global_batch() as f64 / (iter_ns as f64 / 1e9),
            stats: None,
        },
        failure,
    ))
}

/// Run the workload: cycles until the time is up (and at least
/// [`MIN_CYCLES`]). A traced run alternates untraced and traced cycles, so
/// the tracing overhead is measured on the same request mix.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut gen = Generator::new(opts.seed);

    // Set-up: draw the first cycle and warm the pipeline on three small
    // plans, nine times; the median is reported.
    let mut setups = Vec::new();
    let mut first = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        gen = Generator::new(opts.seed);
        first = gen.next_cycle();
        for key in warmup_keys() {
            let req = Request {
                id: u64::MAX,
                class: 0,
                key,
            };
            if let Some(f) = serve_plain(&req).failure {
                out.fail(format!("warm-up: {f}"));
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }

    let mut tr = Tracer::new(false);
    let mut layers = Layers::default();
    let mut latencies = Vec::new();
    let mut rejections = Vec::new();
    let mut sim_sps = Vec::new();
    let mut stats: Vec<IterStats> = Vec::new();
    let mut tasks = Vec::new();
    let mut depths = Vec::new();
    let (mut plain_ms, mut plain_ops, mut traced_ms, mut traced_ops) = (0.0, 0u64, 0.0, 0u64);
    let mut traced_admitted = 0u64;
    let mut infeasible = 0u64;
    let mut heap_peaks = Vec::new();

    let t_loop = Instant::now();
    let mut cycle_idx = 0usize;
    let mut next = Some(first);
    while let Some(cycle) = next.take() {
        let traced = opts.traced && cycle_idx % 2 == 1;
        tr.on = traced;
        heap::reset_peak();
        for req in &cycle {
            let served = if traced {
                serve_traced(req, &mut tr, &mut layers)
            } else {
                serve_plain(req)
            };
            out.attempted += 1;
            depths.push(req.key.layers);
            if let Some(f) = served.failure {
                out.fail(f);
            }
            latencies.push(served.latency_ms);
            if traced {
                traced_ms += served.latency_ms;
                traced_ops += 1;
            } else {
                plain_ms += served.latency_ms;
                plain_ops += 1;
            }
            match served.verdict {
                Verdict::Rejected(_) => {
                    infeasible += 1;
                    rejections.push(served.latency_ms);
                }
                Verdict::Admitted {
                    tasks: n,
                    samples_per_sec,
                    stats: s,
                } => {
                    tasks.push(n);
                    if traced {
                        traced_admitted += 1;
                    }
                    sim_sps.push(samples_per_sec);
                    stats.extend(s);
                }
            }
        }
        heap_peaks.push(heap::peak_mb());
        cycle_idx += 1;
        if opts.more(cycle_idx, t_loop) {
            next = Some(gen.next_cycle());
        }
    }

    let total_ms: f64 = latencies.iter().sum();
    out.e2e.insert("setup_s", util::quantile(&setups, 0.5));
    out.e2e
        .insert("ops_per_s", latencies.len() as f64 / (total_ms / 1e3));
    out.e2e
        .insert("op_p50_ms", util::quantile(&latencies, 0.50));
    out.e2e
        .insert("op_p90_ms", util::quantile(&latencies, 0.90));
    out.e2e.insert("event_mean_ms", util::mean(&rejections));
    out.e2e.insert("sim_throughput", util::geomean(&sim_sps));
    out.e2e
        .insert("peak_heap_mb", util::quantile(&heap_peaks, 0.5));

    if opts.traced {
        let totals = tr.totals();
        let t = |n: &str| totals.get(n).copied().unwrap_or_default();
        for stage in ["plan.trace", "plan.shard", "plan.schedule", "plan.lower"] {
            layers.set(&format!("{stage}.calls"), t(stage).calls as f64);
            layers.set(&format!("{stage}.busy_ms"), t(stage).busy_ms());
        }
        layers.set("plan.memory.busy_ms", t("plan.memory").busy_ms());
        layers.set(
            "allocator.materialize_ms",
            t("allocator.materialize").busy_ms(),
        );
        layers.set("sim.runs", t("sim.run").calls as f64);
        layers.set("sim.busy_ms", t("sim.run").busy_ms());
        let v = t("verify.plan");
        layers.set("verify.plan.calls", v.calls as f64);
        layers.set("verify.plan.busy_ms", v.busy_ms());
        let vt = layers.get("verify.plan.tasks");
        layers.set(
            "verify.plan.us_per_task",
            if vt > 0.0 {
                v.busy_ns as f64 / 1e3 / vt
            } else {
                0.0
            },
        );
        let clean = layers.get("verify.plan.clean_ratio");
        layers.set(
            "verify.plan.clean_ratio",
            if v.calls > 0 {
                clean / v.calls as f64
            } else {
                0.0
            },
        );
        layers.set("verify.spmd.calls", t("verify.spmd").calls as f64);
        layers.set("verify.spmd.busy_ms", t("verify.spmd").busy_ms());
        layers.set_sim(&stats);
        layers.set_overhead((plain_ms, plain_ops), (traced_ms, traced_ops));

        // The traced cycles must make exactly the calls the untraced
        // requests make: one trace per request, three lowerings, one
        // verify, one certification and one simulation per plan.
        let expect = [
            ("plan.trace.calls", traced_ops),
            ("plan.lower.calls", 3 * traced_admitted),
            ("verify.plan.calls", traced_admitted),
            ("verify.spmd.calls", traced_admitted),
            ("sim.runs", traced_admitted),
        ];
        for (name, want) in expect {
            if layers.get(name) != want as f64 {
                out.fail(format!(
                    "{name} = {} but the traced cycles made {want} calls",
                    layers.get(name)
                ));
            }
        }
        out.trace_events = tr.chrome_events(1);
    }
    out.layers = layers;

    let n = out.attempted as f64;
    out.inputs
        .insert("workload".into(), serde_json::json!("plan-sweep"));
    out.inputs
        .insert("requests".into(), serde_json::json!(out.attempted));
    out.inputs
        .insert("cycles".into(), serde_json::json!(cycle_idx as u64));
    out.inputs
        .insert("repeated_key_share".into(), serde_json::json!(0.0));
    out.inputs.insert(
        "infeasible_share".into(),
        serde_json::json!(infeasible as f64 / n),
    );
    out.inputs.insert(
        "depth_histogram".into(),
        util::histogram(&depths, &[0, 50, 100, 200, 400, 800]),
    );
    out.inputs
        .insert("lowered_tasks".into(), util::distribution(&tasks));
    out
}

/// Three small plans (one per model family) that warm the pipeline.
fn warmup_keys() -> [Key; 3] {
    let base = Key {
        family: Family::Gpt13,
        layers: 24,
        experts: 0,
        servers: 1,
        batch: 1,
        layout: Layout::Zero3,
        ssd: false,
        lock_free: false,
    };
    [
        base,
        Key {
            family: Family::Gpt175,
            servers: 8,
            ..base
        },
        Key {
            family: Family::T5Moe,
            layers: 8,
            experts: 64,
            ..base
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let keys = |seed| {
            let mut g = Generator::new(seed);
            (0..3)
                .flat_map(|_| g.next_cycle())
                .map(|r| r.key)
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(7), keys(7));
        assert_ne!(keys(7), keys(8));
    }

    #[test]
    fn keys_are_distinct_and_a_tenth_infeasible() {
        let mut g = Generator::new(3);
        let reqs: Vec<Request> = (0..40).flat_map(|_| g.next_cycle()).collect();
        let keys: HashSet<Key> = reqs.iter().map(|r| r.key).collect();
        assert_eq!(keys.len(), reqs.len());
        let infeasible = CLASSES.iter().filter(|c| !c.feasible).count();
        assert_eq!(infeasible * 11, CLASSES.len());
    }

    #[test]
    fn traced_and_untraced_requests_agree() {
        let mut g = Generator::new(11);
        let cycle = g.next_cycle();
        let mut tr = Tracer::new(true);
        let mut layers = Layers::default();
        for req in cycle.iter().filter(|r| CLASSES[r.class].layers.1 <= 130) {
            let a = serve_plain(req);
            let b = serve_traced(req, &mut tr, &mut layers);
            assert_eq!(a.failure, None, "{}", CLASSES[req.class].name);
            assert_eq!(b.failure, None, "{}", CLASSES[req.class].name);
            match (a.verdict, b.verdict) {
                (
                    Verdict::Admitted {
                        tasks: ta,
                        samples_per_sec: sa,
                        ..
                    },
                    Verdict::Admitted {
                        tasks: tb,
                        samples_per_sec: sb,
                        ..
                    },
                ) => {
                    assert_eq!(ta, tb);
                    assert_eq!(sa, sb);
                }
                (Verdict::Rejected(ea), Verdict::Rejected(eb)) => assert_eq!(ea, eb),
                (a, b) => panic!("verdicts differ: {a:?} vs {b:?}"),
            }
        }
    }
}

#[cfg(test)]
mod feasibility {
    use super::*;

    /// Every class plans (or is rejected) across its whole range: depth
    /// ends and middle, width ends, each fleet size, both batch sizes.
    #[test]
    fn classes_keep_their_feasibility() {
        let mut wrong = Vec::new();
        for class in CLASSES {
            let (lo, hi) = class.layers;
            for layers in [
                lo,
                (3 * lo + hi) / 4,
                (lo + hi) / 2,
                (lo + 3 * hi) / 4,
                hi,
                hi + 4,
            ] {
                for experts in [class.experts.0, class.experts.1] {
                    for &servers in class.servers {
                        for batch in [1, 2] {
                            let key = Key {
                                family: class.family,
                                layers,
                                experts,
                                servers,
                                batch,
                                layout: class.layout,
                                ssd: class.ssd,
                                lock_free: class.lock_free,
                            };
                            let ok = Engine::initialize(&key.model(), &key.config()).is_ok();
                            if ok != class.feasible {
                                wrong.push(format!("{} {key:?}", class.name));
                            }
                        }
                    }
                }
            }
        }
        assert!(wrong.is_empty(), "{wrong:#?}");
    }
}
