//! Export one training iteration's simulated timeline as a Chrome trace —
//! computes, page movements, collectives and optimizer updates on separate
//! tracks, making the Unified Scheduler's overlap visible.
//!
//! ```text
//! cargo run -p angel-examples --bin timeline_export
//! # then open chrome://tracing (or https://ui.perfetto.dev) and load
//! # target/angel_iteration_trace.json
//! ```

use angel_core::{Engine, EngineConfig};
use angel_model::TransformerConfig;

fn main() {
    let model = TransformerConfig::gpt3_13b();
    let config = EngineConfig::single_server().with_batch_size(4);
    let engine = Engine::initialize(&model, &config).expect("13B fits on one server");

    // No recorder is attached, so the merged trace's runtime process stays
    // empty: the file is the simulated-hardware timeline alone.
    let trace = engine.export_merged_trace();
    let path = "target/angel_iteration_trace.json";
    std::fs::create_dir_all("target").ok();
    std::fs::write(path, &trace).expect("write trace");

    let events = trace.matches("\"ph\": \"X\"").count();
    println!("wrote {path}: {events} events ({} bytes)", trace.len());
    println!("open chrome://tracing or https://ui.perfetto.dev and load the file.");
    println!("tracks: executor:gpu-stream, executor:cpu-stream, pcie-h2d/d2h,");
    println!("        communicator:dp-channel, ssd-channel");
    println!("(mesh configs add communicator:tp-channel / pp-channel tracks)");
}
