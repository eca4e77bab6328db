//! Criterion micro-benchmark: Unified Scheduler (Algorithm 1) planning cost
//! as model depth grows. Planning happens once per training job, but the
//! phase-2 peak-memory analysis must stay cheap even for hundred-layer,
//! 10⁵-page models — this guards the incremental-timeline complexity.

use angel_core::scheduler::{input_from_trace, oracle, UnifiedScheduler};
use angel_core::Tracer;
use angel_hw::GIB;
use angel_model::TransformerConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_schedule");
    for layers in [8usize, 32, 96] {
        let cfg = TransformerConfig::gpt3_13b().with_layers(layers);
        let trace = Tracer::default().trace(&cfg, 4, true);
        let input = input_from_trace(&trace, 4 * 1024 * 1024, 8, 30 * GIB);
        group.bench_with_input(BenchmarkId::from_parameter(layers), &input, |b, input| {
            b.iter(|| black_box(UnifiedScheduler::default().schedule(input).unwrap()))
        });
    }
    group.finish();
}

/// `UnifiedScheduler::schedule` (the one from-scratch Algorithm 1) vs. the
/// per-page `oracle` (enabled by angel-core's `verify-extras` feature) on
/// the same input — the criterion-visible version of the `planning_cost`
/// binary's headline comparison (which records `BENCH_plan.json`).
fn bench_scheduler_vs_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_vs_oracle");
    group.sample_size(10);
    let cfg = TransformerConfig::gpt3_13b().with_layers(32);
    let trace = Tracer::default().trace(&cfg, 4, true);
    let input = input_from_trace(&trace, 4 * 1024 * 1024, 8, 30 * GIB);
    group.bench_with_input(BenchmarkId::new("optimized", 32), &input, |b, input| {
        b.iter(|| black_box(UnifiedScheduler::default().schedule(input).unwrap()))
    });
    group.bench_with_input(BenchmarkId::new("oracle", 32), &input, |b, input| {
        b.iter(|| black_box(oracle::schedule(&UnifiedScheduler::default(), input).unwrap()))
    });
    group.finish();
}

fn bench_tracer(c: &mut Criterion) {
    let cfg = TransformerConfig::gpt3_13b().with_layers(40);
    c.bench_function("tracer_symbolic_iteration", |b| {
        b.iter(|| black_box(Tracer::default().trace(&cfg, 4, true)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scheduler, bench_scheduler_vs_oracle, bench_tracer
}
criterion_main!(benches);
