//! Criterion bench for E7/E10: naive vs optimized discovery.

use criterion::{criterion_group, criterion_main, Criterion};
use tgm_bench::workloads::planted_stock_workload;
use tgm_core::VarId;
use tgm_mining::pipeline::{mine_with, PipelineOptions};
use tgm_mining::{naive, DiscoveryProblem};

fn bench_mining(c: &mut Criterion) {
    let w = planted_stock_workload(90, &[], 9, 7);
    let problem = DiscoveryProblem::new(w.cet.structure().clone(), 0.6, w.types.ibm_rise)
        .with_candidates(VarId(3), [w.types.ibm_fall]);

    let mut group = c.benchmark_group("mining");
    group.sample_size(10);
    group.bench_function("naive", |b| {
        b.iter(|| naive::mine(&problem, &w.sequence))
    });
    group.bench_function("pipeline", |b| {
        b.iter(|| mine_with(&problem, &w.sequence, &PipelineOptions::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_mining);
criterion_main!(benches);
