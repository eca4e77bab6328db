//! The paper-facing numbers under a golden guard: the tables each paper
//! binary prints are checked in under `tests/golden/paper/<binary>.md`, a
//! fresh run must reproduce them byte for byte, and every checked-in table
//! must appear verbatim in EXPERIMENTS.md. A change that moves a paper
//! number regenerates the goldens with
//! `ANGEL_REGEN_GOLDEN=1 cargo test --release -p angel-bench --test paper_golden`
//! and updates EXPERIMENTS.md to match.
//!
//! The binaries take about 4 s in a release build and about 20 s in a debug
//! build, run two at a time. `table6_convergence` is left out: it trains on
//! real threads and its lock-free rows differ from run to run.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Every deterministic binary whose tables EXPERIMENTS.md reproduces.
const PAPER_BINARIES: [(&str, &str); 11] = [
    ("table1_footprints", env!("CARGO_BIN_EXE_table1_footprints")),
    (
        "table2_tensor_sizes",
        env!("CARGO_BIN_EXE_table2_tensor_sizes"),
    ),
    (
        "motivation_fragmentation",
        env!("CARGO_BIN_EXE_motivation_fragmentation"),
    ),
    (
        "table5_model_scale",
        env!("CARGO_BIN_EXE_table5_model_scale"),
    ),
    (
        "figure7_throughput",
        env!("CARGO_BIN_EXE_figure7_throughput"),
    ),
    (
        "figure8_gpt_scalability",
        env!("CARGO_BIN_EXE_figure8_gpt_scalability"),
    ),
    (
        "figure9_moe_scalability",
        env!("CARGO_BIN_EXE_figure9_moe_scalability"),
    ),
    (
        "table6_ssd_lockfree",
        env!("CARGO_BIN_EXE_table6_ssd_lockfree"),
    ),
    (
        "ablation_page_size",
        env!("CARGO_BIN_EXE_ablation_page_size"),
    ),
    (
        "ablation_scheduler",
        env!("CARGO_BIN_EXE_ablation_scheduler"),
    ),
    ("recovery_analysis", env!("CARGO_BIN_EXE_recovery_analysis")),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The rendered tables in a binary's stdout: each `## ` heading with its
/// table rows and `> ` notes, one blank line between parts. Any other line
/// (such as a note that a metrics file was written) is dropped.
fn tables(stdout: &str) -> String {
    let mut out = String::new();
    for line in stdout.lines() {
        let kept = line.starts_with("## ") || line.starts_with('|') || line.starts_with("> ");
        if kept {
            out.push_str(line);
            out.push('\n');
        } else if line.trim().is_empty() && !out.is_empty() && !out.ends_with("\n\n") {
            out.push('\n');
        }
    }
    format!("{}\n", out.trim_end())
}

/// One table per `## ` heading, without trailing blank lines.
fn blocks(tables: &str) -> Vec<&str> {
    let mut starts: Vec<usize> = tables.match_indices("## ").map(|(i, _)| i).collect();
    starts.retain(|&i| i == 0 || tables.as_bytes()[i - 1] == b'\n');
    starts
        .iter()
        .zip(starts.iter().skip(1).chain([&tables.len()]))
        .map(|(&a, &b)| tables[a..b].trim_end())
        .collect()
}

fn run(binary: &str) -> String {
    // Binaries that write side files (figure7's metrics snapshot) write
    // them under the test's scratch directory.
    let output = Command::new(binary)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap_or_else(|e| panic!("cannot run {binary}: {e}"));
    assert!(output.status.success(), "{binary} failed: {output:?}");
    tables(&String::from_utf8(output.stdout).expect("utf-8 stdout"))
}

/// The tables of every paper binary, in [`PAPER_BINARIES`] order, from
/// two binaries running at a time.
fn run_all() -> Vec<String> {
    let next = AtomicUsize::new(0);
    let outputs = Mutex::new(vec![String::new(); PAPER_BINARIES.len()]);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, binary)) = PAPER_BINARIES.get(i) else {
                    break;
                };
                let tables = run(binary);
                outputs.lock().unwrap()[i] = tables;
            });
        }
    });
    outputs.into_inner().unwrap()
}

#[test]
fn paper_tables_match_their_goldens_and_experiments_md() {
    let dir = repo_root().join("tests/golden/paper");
    let experiments = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md present");
    let regen = std::env::var_os("ANGEL_REGEN_GOLDEN").is_some();
    let mut failures = Vec::new();
    for ((name, _), fresh) in PAPER_BINARIES.iter().zip(run_all()) {
        let path = dir.join(format!("{name}.md"));
        if regen {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &fresh).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!("golden {path:?} missing (regenerate with ANGEL_REGEN_GOLDEN=1)")
        });
        if fresh != golden {
            failures.push(format!("{name}: output drifted from its golden:\n{fresh}"));
        }
        for block in blocks(&golden) {
            if !experiments.contains(block) {
                failures.push(format!(
                    "{name}: table not verbatim in EXPERIMENTS.md:\n{block}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn tables_keep_headings_rows_and_notes_only() {
    let stdout = "## t — caption\n\n| a |\n|---|\n| 1 |\n\n> note\n\n\n\nwrote x.json\n";
    let t = tables(stdout);
    assert_eq!(t, "## t — caption\n\n| a |\n|---|\n| 1 |\n\n> note\n");
    let two = format!("{t}\n{t}");
    assert_eq!(blocks(&two), vec![t.trim_end(), t.trim_end()]);
}
