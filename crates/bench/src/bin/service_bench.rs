//! Multi-job training service under open-loop load.
//!
//! Angel-PTM is operated as a shared service: many teams stream jobs at one
//! GPU fleet and the control plane decides admission, placement and
//! preemption. This harness drives the `angel-service` control plane with a
//! synthetic open-loop submission generator (seeded exponential
//! inter-arrivals, so the arrival process never waits on the system) at
//! increasing offered loads, and reports the service-level metrics:
//! completed jobs/hour, p50/p99 time-to-first-iteration, cluster
//! utilization, and preemption counts. Every admission is justified by the
//! §8 plan-graph verifier's provable peak-memory bound — the bench asserts
//! the certificates fit.
//!
//! A deterministic acceptance scenario (fixed submissions, no RNG) pins the
//! service-level properties the sweep's stochastic mix merely exercises:
//! ≥3 concurrently admitted jobs, with at least one preemption/resume
//! cycle, all admissions certificate-backed.
//!
//! Writes the machine-readable baseline `BENCH_service.json` at the repo
//! root (or to the first non-flag argument).

use angel_bench::Experiment;
use angel_core::{ObsThread, Recorder};
use angel_model::TransformerConfig;
use angel_service::{admit_at, ControlPlane, JobSpec, ServiceConfig, ServiceReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shared-cluster size for every sweep point.
const SERVERS: usize = 4;

fn small_model() -> TransformerConfig {
    TransformerConfig::gpt3_1_7b()
        .with_layers(2)
        .with_seq_len(256)
}

fn medium_model() -> TransformerConfig {
    TransformerConfig::gpt3_1_7b()
        .with_layers(4)
        .with_seq_len(256)
}

/// A model no slice of this cluster can certify — exercises the
/// rejection path at every load.
fn whale_model() -> TransformerConfig {
    TransformerConfig::gpt3_28b().with_layers(3000)
}

/// Draw the next job from the mix. Weights: mostly small 1-server jobs,
/// some elastic 2-server jobs, occasional urgent preemptors, rare whales.
fn draw_job(rng: &mut StdRng, k: usize) -> JobSpec {
    let pick = rng.gen_range(0u32..100);
    if pick < 50 {
        JobSpec::new(format!("small-{k}"), small_model(), 5)
    } else if pick < 75 {
        JobSpec::new(format!("elastic-{k}"), medium_model(), 4).with_servers(2, 1)
    } else if pick < 90 {
        JobSpec::new(format!("urgent-{k}"), small_model(), 2)
            .with_servers(2, 2)
            .with_priority(5)
    } else {
        JobSpec::new(format!("whale-{k}"), whale_model(), 1)
    }
}

/// One sweep point: `jobs` open-loop submissions at `load` offered
/// utilization (arrival rate × mean service time ÷ servers).
fn run_point(load: f64, jobs: usize, mean_job_ns: u64, seed: u64) -> ServiceReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cp = ControlPlane::new(&ServiceConfig::new(SERVERS).with_max_queue(jobs));
    let mean_gap_ns = mean_job_ns as f64 / (load * SERVERS as f64);
    let mut t_ns = 0u64;
    for k in 0..jobs {
        // Exponential inter-arrival via inverse CDF on a uniform draw.
        let u: f64 = rng.gen_range(0.0f64..1.0);
        let gap = (-(1.0 - u).ln() * mean_gap_ns).max(1.0) as u64;
        t_ns += gap;
        cp.submit(draw_job(&mut rng, k), t_ns);
    }
    cp.into_report()
}

/// The deterministic acceptance scenario, with the obs layer attached so
/// job events also land on the Perfetto `service` track.
fn acceptance_scenario() -> (ServiceReport, u64) {
    let recorder = Recorder::enabled();
    let mut cp = ControlPlane::new(&ServiceConfig::new(SERVERS).with_recorder(recorder.clone()));
    cp.submit(
        JobSpec::new("alpha", small_model(), 6).with_servers(2, 1),
        0,
    );
    cp.submit(JobSpec::new("beta", small_model(), 6), 0);
    cp.submit(JobSpec::new("gamma", small_model(), 6), 0);
    // All four servers are now held (2+1+1); the urgent job's rigid
    // 2-server demand forces a preemption at a victim boundary, and the
    // victim grows back once the urgent job departs.
    cp.submit(
        JobSpec::new("urgent", small_model(), 2)
            .with_servers(2, 2)
            .with_priority(7),
        1,
    );
    let report = cp.into_report();
    let obs_events = recorder
        .events()
        .iter()
        .filter(|e| e.thread == ObsThread::Service)
        .count() as u64;
    (report, obs_events)
}

fn point_json(load: f64, r: &ServiceReport) -> serde_json::Value {
    let hours = r.makespan_ns as f64 / 3.6e12;
    let all_verified = r
        .admissions
        .iter()
        .all(|a| a.certificate.peak_bound_bytes <= a.certificate.gpu_budget_bytes);
    serde_json::json!({
        "offered_load": load,
        "submitted": r.submitted as u64,
        "admitted": r.admitted as u64,
        "rejected": r.rejected as u64,
        "completed": r.completed as u64,
        "preemptions": r.preemptions as u64,
        "resumes": r.resumes as u64,
        "max_concurrent": r.max_concurrent as u64,
        "jobs_per_hour": r.completed as f64 / hours.max(1e-12),
        "ttfi_p50_ms": r.ttfi_percentile_ns(0.50) as f64 / 1e6,
        "ttfi_p99_ms": r.ttfi_percentile_ns(0.99) as f64 / 1e6,
        "utilization": r.utilization,
        "admissions_all_verified": all_verified,
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // Calibrate mean service time from one admitted small job: iterations ×
    // simulated iteration time (the virtual-clock unit of the whole bench).
    let probe = JobSpec::new("probe", small_model(), 5);
    let (mut engine, cert) = admit_at(&probe, 1).expect("probe job admits");
    assert!(
        cert.peak_bound_bytes <= cert.gpu_budget_bytes,
        "probe certificate must fit"
    );
    let iter_ns = engine.train_iteration().iter_time_ns;
    let mean_job_ns = iter_ns * probe.iters as u64;

    let loads: &[f64] = if quick {
        &[1.5, 3.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0]
    };
    let jobs_per_point = if quick { 8 } else { 16 };

    let mut table = Experiment::new(
        "service",
        "Multi-job training service under open-loop synthetic load on a shared \
         4-server cluster: verified admission (plan-graph peak bound vs slice \
         budget), priority preemption with splice-based shrink/grow, time-to-first- \
         iteration percentiles over the virtual timeline",
        &[
            "Load",
            "Jobs",
            "Admitted",
            "Rejected",
            "Done",
            "Jobs/h",
            "TTFI p50 (ms)",
            "TTFI p99 (ms)",
            "Util",
            "Preempt",
            "Resume",
            "MaxConc",
        ],
    );

    let mut points = Vec::new();
    for (i, &load) in loads.iter().enumerate() {
        let r = run_point(load, jobs_per_point, mean_job_ns, 0xA11CE + i as u64);
        let p = point_json(load, &r);
        table.row(vec![
            format!("{load:.1}"),
            r.submitted.to_string(),
            r.admitted.to_string(),
            r.rejected.to_string(),
            r.completed.to_string(),
            format!("{:.0}", p["jobs_per_hour"].as_f64().unwrap_or(0.0)),
            format!("{:.2}", p["ttfi_p50_ms"].as_f64().unwrap_or(0.0)),
            format!("{:.2}", p["ttfi_p99_ms"].as_f64().unwrap_or(0.0)),
            format!("{:.2}", r.utilization),
            r.preemptions.to_string(),
            r.resumes.to_string(),
            r.max_concurrent.to_string(),
        ]);
        assert_eq!(
            r.admitted + r.rejected,
            r.submitted,
            "every submission must be decided"
        );
        assert_eq!(r.completed, r.admitted, "every admitted job must finish");
        assert_eq!(
            p["admissions_all_verified"].as_bool(),
            Some(true),
            "an admission escaped the verifier's bound"
        );
        points.push(p);
    }

    // Deterministic acceptance scenario (no RNG): the service-level
    // properties the PR is accepted on.
    let (acc, obs_events) = acceptance_scenario();
    assert!(acc.max_concurrent >= 3, "need ≥3 concurrent admitted jobs");
    assert!(acc.preemptions >= 1, "need ≥1 preemption");
    assert!(acc.resumes >= 1, "need ≥1 resume");
    assert_eq!(acc.completed, 4);
    assert!(obs_events >= 4, "job events must reach the obs layer");
    table.note(format!(
        "Acceptance scenario (deterministic): {} jobs admitted with verified peak \
         bounds, {} running concurrently at peak, {} preemption(s) and {} \
         resume(s) via boundary splices, {} job events mirrored onto the Perfetto \
         `service` track.",
        acc.admitted, acc.max_concurrent, acc.preemptions, acc.resumes, obs_events,
    ));
    table.note(
        "Whale submissions are rejected at admission time: the engine's closed-form \
         capacity precheck proves their states cannot fit any slice's CPU page pool, \
         so they are never planned and never occupy the queue (typed RejectReason in \
         the event stream).",
    );
    table.emit();

    let out = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_else(|| format!("{}/../../BENCH_service.json", env!("CARGO_MANIFEST_DIR")));
    let acc_events: Vec<serde_json::Value> = acc.events.iter().map(|e| e.to_json()).collect();
    let doc = serde_json::json!({
        "id": "service_bench",
        "generated_by": "cargo run --release -p angel-bench --bin service_bench",
        "quick": quick,
        "servers": SERVERS as u64,
        "mean_job_ms": mean_job_ns as f64 / 1e6,
        "points": points,
        "acceptance": {
            "max_concurrent": acc.max_concurrent as u64,
            "preemptions": acc.preemptions as u64,
            "resumes": acc.resumes as u64,
            "completed": acc.completed as u64,
            "admitted": acc.admitted as u64,
            "utilization": acc.utilization,
            "obs_events": obs_events,
            "admissions_all_verified": acc
                .admissions
                .iter()
                .all(|a| a.certificate.peak_bound_bytes <= a.certificate.gpu_budget_bytes),
            "events": acc_events,
        },
    });
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&doc).expect("serializable") + "\n",
    )
    .expect("write BENCH_service.json");
    println!("\nwrote {out}");
}
