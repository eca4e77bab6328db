//! Shared report helpers for the experiment harnesses.
//!
//! Every `src/bin/*` binary reproduces one table or figure of the paper and
//! prints (a) a human-readable table with the paper's reference values next
//! to ours, and (b) a JSON record on request (`--json`), consumed when
//! regenerating EXPERIMENTS.md.

use serde::Serialize;

/// A reproduced experiment: id (e.g. "table5"), caption, and rows.
#[derive(Debug, Clone, Serialize)]
pub struct Experiment {
    pub id: &'static str,
    pub caption: &'static str,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (calibration caveats,
    /// substitutions).
    pub notes: Vec<String>,
}

impl Experiment {
    pub fn new(id: &'static str, caption: &'static str, columns: &[&str]) -> Self {
        Self {
            id,
            caption,
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Render as an aligned text table (also valid GitHub markdown).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n\n", self.id, self.caption));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out
    }

    /// The JSON record for this experiment (the `--json` output).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "id": self.id,
            "caption": self.caption,
            "columns": self.columns.clone(),
            "rows": self
                .rows
                .iter()
                .map(|r| serde_json::Value::from(r.clone()))
                .collect::<Vec<_>>(),
            "notes": self.notes.clone(),
        })
    }

    /// Print to stdout; with `--json` in argv also emit the JSON record.
    pub fn emit(&self) {
        println!("{}", self.render());
        if std::env::args().any(|a| a == "--json") {
            println!(
                "{}",
                serde_json::to_string_pretty(&self.to_json()).expect("serializable")
            );
        }
    }
}

/// Format a throughput number the way the paper's tables do.
pub fn fmt_sps(samples_per_sec: f64) -> String {
    format!("{samples_per_sec:.2}")
}

/// Format a parameter count in billions/trillions.
pub fn fmt_params(params: u64) -> String {
    if params >= 1_000_000_000_000 {
        format!("{:.2}T", params as f64 / 1e12)
    } else {
        format!("{:.1}B", params as f64 / 1e9)
    }
}

/// Format a speedup/ratio.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut e = Experiment::new("t", "caption", &["a", "bee"]);
        e.row(vec!["1".into(), "2".into()]);
        e.row(vec!["longer".into(), "x".into()]);
        e.note("a note");
        let r = e.render();
        assert!(r.contains("## t — caption"));
        assert!(r.contains("| longer | x   |"));
        assert!(r.contains("> a note"));
        let lines: Vec<&str> = r.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(lines.len(), 4); // header + sep + 2 rows
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut e = Experiment::new("t", "c", &["a", "b"]);
        e.row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_params(1_700_000_000), "1.7B");
        assert_eq!(fmt_params(1_200_000_000_000), "1.20T");
        assert_eq!(fmt_sps(10.987), "10.99");
        assert_eq!(fmt_ratio(2.959), "2.96x");
    }

    /// The checked-in planning-cost baseline must stay parseable and keep
    /// its acceptance property: ≥10x speedup over the per-page oracle on
    /// the 10⁵-page synthetic input, with byte-identical schedules.
    /// Regenerate with `cargo run --release -p angel-bench --bin planning_cost`.
    #[test]
    fn bench_plan_baseline_parses() {
        let path = format!("{}/../../BENCH_plan.json", env!("CARGO_MANIFEST_DIR"));
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing planning baseline {path}: {e}"));
        let doc: serde_json::Value = serde_json::from_str(&raw).expect("valid JSON");
        assert_eq!(doc["id"].as_str(), Some("plan_bench"));
        let inputs = doc["inputs"].as_array().expect("inputs array");
        assert!(!inputs.is_empty());
        for rec in inputs {
            for key in [
                "name",
                "layers",
                "steps",
                "pages",
                "optimized_ms",
                "oracle_ms",
            ] {
                assert!(!rec[key].is_null(), "record missing {key}");
            }
            assert_eq!(rec["identical"].as_bool(), Some(true));
        }
        let synth = inputs
            .iter()
            .find(|r| r["name"].as_str() == Some("synthetic-100k-pages"))
            .expect("synthetic acceptance row");
        assert!(synth["pages"].as_u64().unwrap() >= 100_000);
        assert!(synth["steps"].as_u64().unwrap() >= 192);
        let speedup = synth["speedup"].as_f64().unwrap();
        assert!(
            speedup >= 10.0,
            "recorded speedup regressed below the 10x acceptance bar: {speedup}"
        );
    }

    /// The checked-in allocation-churn baseline must stay parseable and
    /// keep its acceptance properties: the size-class pool hits in steady
    /// state, pooled page reuse beats the no-pool baseline on backed
    /// churn, and the compaction pass reclaims whole frames. Regenerate
    /// with `cargo run --release -p angel-bench --bin alloc_bench`.
    #[test]
    fn bench_alloc_baseline_parses() {
        let path = format!("{}/../../BENCH_alloc.json", env!("CARGO_MANIFEST_DIR"));
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing alloc baseline {path}: {e}"));
        let doc: serde_json::Value = serde_json::from_str(&raw).expect("valid JSON");
        assert_eq!(doc["id"].as_str(), Some("alloc_bench"));

        let memsim = doc["memsim_churn"].as_array().expect("memsim_churn array");
        assert!(memsim.len() >= 5, "pooled + four baseline policies");
        let pooled = memsim
            .iter()
            .find(|r| r["name"].as_str() == Some("pooled (size-class reuse)"))
            .expect("pooled policy row");
        assert_eq!(pooled["failures"].as_u64(), Some(0));
        let hit_rate = pooled["hit_rate"].as_f64().unwrap();
        assert!(
            hit_rate > 0.9,
            "recurring-shape churn must hit in steady state: {hit_rate}"
        );

        let page = doc["page_churn"].as_array().expect("page_churn array");
        for mode in ["backed", "virtual"] {
            let rec = page
                .iter()
                .find(|r| r["mode"].as_str() == Some(mode))
                .unwrap_or_else(|| panic!("missing {mode} A/B row"));
            assert!(rec["pages_reused"].as_u64().unwrap() > 0);
            assert!(rec["pooled_ms"].as_f64().unwrap() > 0.0);
        }
        let backed = page
            .iter()
            .find(|r| r["mode"].as_str() == Some("backed"))
            .unwrap();
        let speedup = backed["speedup"].as_f64().unwrap();
        assert!(
            speedup >= 1.0,
            "pooled reuse must win backed steady-state churn: {speedup}"
        );

        let compaction = &doc["compaction"];
        let before = compaction["frag_ppm_before"].as_u64().unwrap();
        let after = compaction["frag_ppm_after"].as_u64().unwrap();
        assert!(before > 0, "fixture must actually fragment");
        assert!(after <= before, "compaction may not worsen fragmentation");
        assert!(
            compaction["pages_reclaimed"].as_u64().unwrap() >= 1,
            "consolidation must free at least one frame"
        );
    }

    /// The checked-in cluster-scaling baseline must stay parseable and keep
    /// its acceptance properties: a weak-scaling curve out to ≥1024
    /// simulated GPUs with per-point throughput and plan-graph and SPMD
    /// certificates, a verified composed mesh plan, and a ≥10⁶-page
    /// planner-stress record. Regenerate with
    /// `cargo run --release -p angel-bench --bin figure9_cluster`.
    #[test]
    fn bench_scale_baseline_parses() {
        let path = format!("{}/../../BENCH_scale.json", env!("CARGO_MANIFEST_DIR"));
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing scaling baseline {path}: {e}"));
        let doc: serde_json::Value = serde_json::from_str(&raw).expect("valid JSON");
        assert_eq!(doc["id"].as_str(), Some("scale_bench"));
        let points = doc["points"].as_array().expect("points array");
        assert!(points.len() >= 2);
        for p in points {
            assert!(p["gpus"].as_u64().unwrap() >= 8);
            for curve in ["fixed", "scaled"] {
                assert!(p[curve]["samples_per_sec"].as_f64().unwrap() > 0.0);
                assert!(p[curve]["planning_ms"].as_f64().unwrap() >= 0.0);
                // Every point's lowering passed the plan-graph verifier.
                assert_eq!(p[curve]["plan_verified"].as_bool(), Some(true));
                assert!(p[curve]["tasks"].as_u64().unwrap() > 0);
                assert!(p[curve]["plan_verify_ms"].as_f64().unwrap() >= 0.0);
                // Every point carries its SPMD certificate: the lowered
                // plan's collective traffic matched across the mesh.
                let spmd = &p[curve]["spmd"];
                assert_eq!(spmd["certified"].as_bool(), Some(true));
                assert!(spmd["reduced_events"].as_u64().unwrap() > 0);
                assert!(spmd["reduced_ms"].as_f64().unwrap() >= 0.0);
            }
        }
        let last = points.last().unwrap();
        assert!(
            last["gpus"].as_u64().unwrap() >= 1024,
            "curve must reach 1024 simulated GPUs"
        );
        // Strong scaling: the fixed model's global throughput grows with
        // the fleet.
        let first = points.first().unwrap();
        assert!(
            last["fixed"]["samples_per_sec"].as_f64().unwrap()
                > first["fixed"]["samples_per_sec"].as_f64().unwrap()
        );
        // Weak scaling: once collectives cross the NIC (≥2 servers), the
        // scaled curve holds ≥50% efficiency out to the largest fleet.
        let multi: Vec<f64> = points
            .iter()
            .filter(|p| p["servers"].as_u64().unwrap() >= 2)
            .map(|p| p["scaled"]["samples_per_sec"].as_f64().unwrap())
            .collect();
        if let (Some(first_multi), Some(last_multi)) = (multi.first(), multi.last()) {
            assert!(
                *last_multi >= 0.5 * first_multi,
                "weak-scaling efficiency regressed: {last_multi} vs {first_multi}"
            );
        }
        let composed = &doc["composed"];
        assert_eq!(composed["verified"].as_bool(), Some(true));
        assert!(composed["tasks"].as_u64().unwrap() > 0);
        // The composed mesh plan is certified both exhaustively and under
        // symmetry reduction; both passes are recorded.
        let spmd = &composed["spmd"];
        assert_eq!(spmd["certified"].as_bool(), Some(true));
        assert!(spmd["full_events"].as_u64().unwrap() > spmd["reduced_events"].as_u64().unwrap());
        let stress = &doc["planner_stress"];
        assert!(
            stress["pages"].as_u64().unwrap() >= 1_000_000,
            "planner stress input must stay ~10x BENCH_plan.json's max"
        );
        assert!(stress["planning_ms"].as_f64().unwrap() > 0.0);
    }

    /// The checked-in multi-job service baseline must stay parseable and
    /// keep its acceptance properties: a full (non-quick) open-loop sweep
    /// with throughput and TTFI percentiles per point, and a deterministic
    /// acceptance scenario with ≥3 concurrent admitted jobs, at least one
    /// preemption/resume cycle, and every admission certificate-backed.
    /// Regenerate with `cargo run --release -p angel-bench --bin service_bench`.
    #[test]
    fn bench_service_baseline_parses() {
        let path = format!("{}/../../BENCH_service.json", env!("CARGO_MANIFEST_DIR"));
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing service baseline {path}: {e}"));
        let doc: serde_json::Value = serde_json::from_str(&raw).expect("valid JSON");
        assert_eq!(doc["id"].as_str(), Some("service_bench"));
        assert_eq!(
            doc["quick"].as_bool(),
            Some(false),
            "checked-in baseline must be the full sweep, not --quick"
        );
        let points = doc["points"].as_array().expect("points array");
        assert!(points.len() >= 3, "need a multi-point load sweep");
        for p in points {
            assert!(p["offered_load"].as_f64().unwrap() > 0.0);
            assert_eq!(
                p["submitted"].as_u64(),
                Some(p["admitted"].as_u64().unwrap() + p["rejected"].as_u64().unwrap()),
                "every submission must be decided"
            );
            assert_eq!(p["completed"].as_u64(), p["admitted"].as_u64());
            assert!(p["jobs_per_hour"].as_f64().unwrap() > 0.0);
            let p50 = p["ttfi_p50_ms"].as_f64().unwrap();
            let p99 = p["ttfi_p99_ms"].as_f64().unwrap();
            assert!(p99 >= p50, "TTFI p99 below p50: {p99} < {p50}");
            let util = p["utilization"].as_f64().unwrap();
            assert!(util > 0.0 && util <= 1.0);
            assert_eq!(p["admissions_all_verified"].as_bool(), Some(true));
        }
        let acc = &doc["acceptance"];
        assert!(
            acc["max_concurrent"].as_u64().unwrap() >= 3,
            "acceptance scenario must time-share ≥3 admitted jobs"
        );
        assert!(acc["preemptions"].as_u64().unwrap() >= 1);
        assert!(acc["resumes"].as_u64().unwrap() >= 1);
        assert_eq!(acc["completed"].as_u64(), acc["admitted"].as_u64());
        assert_eq!(acc["admissions_all_verified"].as_bool(), Some(true));
        assert!(
            acc["obs_events"].as_u64().unwrap() >= 4,
            "job events must land on the Perfetto service track"
        );
        let events = acc["events"].as_array().expect("acceptance event log");
        // The event log itself proves the cycle: a preemption down to zero
        // servers followed by a resume of the same job.
        let suspended = events.iter().find(|e| {
            e["kind"].as_str() == Some("job_preempted") && e["to_servers"].as_u64() == Some(0)
        });
        let victim = suspended.expect("a full suspension in the log")["job"].as_u64();
        assert!(
            events.iter().any(|e| {
                e["kind"].as_str() == Some("job_resumed") && e["job"].as_u64() == victim
            }),
            "the suspended victim must resume"
        );
    }
}
