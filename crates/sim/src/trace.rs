//! Trace-event export: turn an executed schedule into Chrome trace events
//! loadable in `chrome://tracing` / Perfetto, with one track per resource.
//! The one file writer is `angel_core::obs::merged_perfetto`, which places
//! these events under its simulated-hardware process.
//!
//! This is the visualization story for the paper's overlap claims: the
//! exported timeline shows computes, page movements, collectives and
//! optimizer updates side by side, making "maximizing the overlapping of
//! different resources" (Section 4.2) literally visible. Memory domains
//! additionally export resident-bytes counter tracks (`C` events) replayed
//! from each task's `MemEffect`s — the Table 4 hierarchical-memory story.
//!
//! Thread ids: the *one* authoritative mapping from a resource to its
//! Perfetto `tid` is [`resource_tid`]. Both the thread-name metadata (built
//! from [`Resources::iter`]) and the per-task `X` events go through it, so
//! the two can never disagree — previously the metadata used a separate
//! `enumerate()` index that was equal only by construction.

use std::collections::HashSet;

use crate::engine::{ExecutionReport, ResourceId, Simulation};

/// The Perfetto `tid` for a simulated resource. Single source of truth for
/// every event kind in this module.
pub fn resource_tid(r: ResourceId) -> u64 {
    r.0 as u64
}

/// Thread-name metadata plus one complete (`X`) event per *completed* task,
/// all under process `pid`.
///
/// Tasks killed in flight by a permanent fault have a start time but no
/// finish time; their duration is undefined (computing it underflowed
/// before this was caught), so they are skipped — `ExecutionReport::
/// failed_tasks` still reports them.
pub fn trace_events(
    sim: &Simulation,
    report: &ExecutionReport,
    pid: u64,
) -> Vec<serde_json::Value> {
    let failed: HashSet<usize> = report.failed_tasks.iter().copied().collect();
    let mut events = Vec::new();
    // Thread name metadata — same tid mapping as the task events below.
    for (id, name) in sim.resources().iter() {
        events.push(serde_json::json!({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": resource_tid(id),
            "args": {"name": name},
        }));
    }
    for (i, task) in sim.tasks().enumerate() {
        if failed.contains(&i) {
            continue;
        }
        let start_us = report.start_times[i] as f64 / 1e3;
        let dur_us = (report.finish_times[i] - report.start_times[i]) as f64 / 1e3;
        let name = if task.label.is_empty() {
            format!("task{i}")
        } else {
            task.label.clone()
        };
        events.push(serde_json::json!({
            "name": name,
            "ph": "X",
            "pid": pid,
            "tid": resource_tid(task.resource),
            "ts": start_us,
            "dur": dur_us,
        }));
    }
    events
}

/// One resident-bytes counter (`C`) track per memory domain, replayed from
/// the completed tasks' `MemEffect`s: bytes are acquired at task start and
/// released at task finish, exactly as the executor accounts them. Killed
/// tasks are skipped (their duration is undefined), so the final counter
/// value can differ from `final_mem` under permanent faults.
pub fn counter_events(
    sim: &Simulation,
    report: &ExecutionReport,
    pid: u64,
) -> Vec<serde_json::Value> {
    let failed: HashSet<usize> = report.failed_tasks.iter().copied().collect();
    let domains = sim.resources().num_mem_domains();
    // Per domain: (time, signed delta) change points.
    let mut deltas: Vec<Vec<(u64, i64)>> = vec![Vec::new(); domains];
    for (i, task) in sim.tasks().enumerate() {
        if failed.contains(&i) {
            continue;
        }
        for e in &task.mem {
            if e.acquire > 0 {
                deltas[e.domain.0].push((report.start_times[i], e.acquire as i64));
            }
            if e.release > 0 {
                deltas[e.domain.0].push((report.finish_times[i], -(e.release as i64)));
            }
        }
    }
    let mut events = Vec::new();
    for (domain, name) in sim.resources().mem_domains() {
        let points = &mut deltas[domain.0];
        if points.is_empty() {
            continue;
        }
        points.sort_unstable();
        let track = format!("{name} resident bytes");
        let mut resident: i64 = 0;
        let mut idx = 0;
        while idx < points.len() {
            let ts = points[idx].0;
            // Coalesce all deltas at the same timestamp into one sample.
            while idx < points.len() && points[idx].0 == ts {
                resident += points[idx].1;
                idx += 1;
            }
            debug_assert!(resident >= 0, "negative resident bytes in {name}");
            events.push(serde_json::json!({
                "name": track.clone(),
                "ph": "C",
                "pid": pid,
                "tid": resource_tid(ResourceId(0)),
                "ts": ts as f64 / 1e3,
                "args": {"value": resident.max(0)},
            }));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use crate::engine::{FaultEvent, FaultKind, MemEffect};
    use crate::{Resources, SimTask, Simulation, Work};

    /// The simulation's trace events as one JSON document, serialized and
    /// re-parsed so every test also checks the output is valid JSON.
    fn trace_json(sim: &Simulation, report: &crate::ExecutionReport) -> serde_json::Value {
        let events = super::trace_events(sim, report, 1);
        let text = serde_json::to_string(&serde_json::json!({ "traceEvents": events })).unwrap();
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn trace_contains_every_task_and_resource() {
        let mut r = Resources::new();
        let gpu = r.add_compute("gpu");
        let pcie = r.add_link("pcie", 1_000_000_000, 0);
        let mut sim = Simulation::new(r);
        let m = sim.submit(SimTask::new(pcie, Work::Bytes(1000)).with_label("move"));
        sim.submit(
            SimTask::new(gpu, Work::Duration(500))
                .with_deps([m])
                .with_label("kernel"),
        );
        let report = sim.run();
        let parsed = trace_json(&sim, &report);
        let events = parsed["traceEvents"].as_array().unwrap();
        let names: Vec<&str> = events
            .iter()
            .map(|e| match e["ph"].as_str() {
                Some("M") => e["args"]["name"].as_str().unwrap(),
                _ => e["name"].as_str().unwrap(),
            })
            .collect();
        for expect in ["kernel", "move", "gpu", "pcie"] {
            assert!(names.contains(&expect), "missing {expect}");
        }
        // The right event count: 2 metadata + 2 tasks.
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn event_times_match_report() {
        let mut r = Resources::new();
        let gpu = r.add_compute("gpu");
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(gpu, Work::Duration(2_000)).with_label("a"));
        sim.submit(SimTask::new(gpu, Work::Duration(3_000)).with_label("b"));
        let report = sim.run();
        let parsed = trace_json(&sim, &report);
        let b = &parsed["traceEvents"][2]; // metadata, a, b
        assert_eq!(b["ts"].as_f64().unwrap(), 2.0); // µs
        assert_eq!(b["dur"].as_f64().unwrap(), 3.0);
    }

    /// Regression: the metadata tids came from `enumerate()` while task
    /// tids came from `task.resource.0` — two independent code paths. With
    /// tasks on a non-dense subset of resources, every X event's tid must
    /// still have thread-name metadata carrying the right resource name.
    #[test]
    fn tids_consistent_with_non_dense_resource_usage() {
        let mut r = Resources::new();
        let r0 = r.add_compute("gpu0");
        let _r1 = r.add_compute("gpu1"); // never used by a task
        let _r2 = r.add_link("pcie", 1_000_000_000, 0); // never used
        let r3 = r.add_compute("cpu");
        let mut sim = Simulation::new(r);
        sim.submit(SimTask::new(r3, Work::Duration(100)).with_label("on_cpu"));
        sim.submit(SimTask::new(r0, Work::Duration(100)).with_label("on_gpu0"));
        let report = sim.run();
        let parsed = trace_json(&sim, &report);
        let events = parsed["traceEvents"].as_array().unwrap();
        // tid → name from metadata.
        let mut names = std::collections::HashMap::new();
        for e in events {
            if e["ph"].as_str() == Some("M") {
                names.insert(
                    e["tid"].as_u64().unwrap(),
                    e["args"]["name"].as_str().unwrap().to_string(),
                );
            }
        }
        let mut seen = Vec::new();
        for e in events {
            if e["ph"].as_str() == Some("X") {
                let tid = e["tid"].as_u64().unwrap();
                let label = e["name"].as_str().unwrap();
                let expect = match label {
                    "on_cpu" => "cpu",
                    "on_gpu0" => "gpu0",
                    other => panic!("unexpected task {other}"),
                };
                assert_eq!(names[&tid], expect, "task {label} landed on wrong track");
                seen.push(tid);
            }
        }
        assert_eq!(seen.len(), 2);
        assert_ne!(seen[0], seen[1]);
    }

    /// Regression: a task killed in flight by a permanent fault has
    /// `start_times > 0` but `finish_times == 0`; computing its duration
    /// underflowed. Killed tasks are now skipped.
    #[test]
    fn killed_in_flight_task_is_skipped_not_underflowed() {
        let mut r = Resources::new();
        let gpu = r.add_compute("gpu");
        let mut sim = Simulation::new(r);
        let a = sim.submit(SimTask::new(gpu, Work::Duration(1_000)).with_label("ok"));
        sim.submit(
            SimTask::new(gpu, Work::Duration(10_000))
                .with_deps([a])
                .with_label("killed"),
        );
        let report = sim.run_with_faults(&[FaultEvent {
            resource: gpu,
            at: 2_000,
            kind: FaultKind::Permanent,
        }]);
        assert!(!report.failed_tasks.is_empty());
        let parsed = trace_json(&sim, &report);
        for e in parsed["traceEvents"].as_array().unwrap() {
            if e["ph"].as_str() == Some("X") {
                assert_eq!(e["name"].as_str(), Some("ok"));
                assert!(e["dur"].as_f64().unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn counter_track_replays_resident_bytes() {
        let mut r = Resources::new();
        let gpu = r.add_compute("gpu");
        let dom = r.add_mem_domain("HBM", 1 << 30);
        let mut sim = Simulation::new(r);
        let a = sim.submit(
            SimTask::new(gpu, Work::Duration(1_000))
                .with_label("alloc")
                .with_mem(MemEffect {
                    domain: dom,
                    acquire: 600,
                    release: 0,
                }),
        );
        sim.submit(
            SimTask::new(gpu, Work::Duration(1_000))
                .with_deps([a])
                .with_label("free")
                .with_mem(MemEffect {
                    domain: dom,
                    acquire: 0,
                    release: 600,
                }),
        );
        let report = sim.run();
        let events = super::counter_events(&sim, &report, 1);
        assert!(!events.is_empty());
        let values: Vec<i64> = events
            .iter()
            .map(|e| e["args"]["value"].as_i64().unwrap())
            .collect();
        assert_eq!(*values.first().unwrap(), 600);
        assert_eq!(*values.last().unwrap(), 0);
        for e in &events {
            assert_eq!(e["ph"].as_str(), Some("C"));
            assert!(e["name"].as_str().unwrap().contains("HBM"));
        }
    }
}
