//! Criterion bench for E6: TAG matching over event streams (Theorem 4),
//! including the engine ablation (reference per-`Config` engine vs the
//! lane engine with a reused scratch) on both the Example 1 workload and
//! the grouped-granularity chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tgm_bench::workloads::planted_stock_workload;
use tgm_core::{ComplexEventType, StructureBuilder, Tcg};
use tgm_events::TickColumns;
use tgm_granularity::{periodic, Calendar};
use tgm_tag::{build_tag, Matcher, MatcherScratch, RunCtx};

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("tag_matching");
    for days in [30i64, 120, 480] {
        let w = planted_stock_workload(days, &[], (days / 30) as usize, 42);
        let tag = build_tag(&w.cet);
        let events = w.sequence.events();
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("example1_full_scan", events.len()),
            &events.len(),
            |b, _| {
                let m = Matcher::new(&tag);
                let mut scratch = MatcherScratch::new();
                let mut ctx = RunCtx::new(&mut scratch);
                b.iter(|| m.run_in(events, false, &mut ctx).stats.accepted)
            },
        );
        group.bench_with_input(
            BenchmarkId::new("example1_full_scan_reference", events.len()),
            &events.len(),
            |b, _| {
                let m = Matcher::new(&tag);
                b.iter(|| m.run_reference(events, false).accepted)
            },
        );
        group.bench_with_input(
            BenchmarkId::new("example1_full_scan_raw", events.len()),
            &events.len(),
            |b, _| {
                periodic::set_enabled(false);
                let m = Matcher::new(&tag);
                let mut scratch = MatcherScratch::new();
                let mut ctx = RunCtx::new(&mut scratch);
                b.iter(|| m.run_in(events, false, &mut ctx).stats.accepted);
                periodic::set_enabled(true);
            },
        );
        group.bench_with_input(
            BenchmarkId::new("example1_full_scan_columns", events.len()),
            &events.len(),
            |b, _| {
                let grans: Vec<_> =
                    tag.clocks().iter().map(|(_, g)| g.clone()).collect();
                let cols = TickColumns::build(events, &grans);
                let m = Matcher::new(&tag);
                let mut scratch = MatcherScratch::new();
                let mut ctx = RunCtx {
                    cols: Some((&cols, 0)),
                    ..RunCtx::new(&mut scratch)
                };
                b.iter(|| m.run_in(events, false, &mut ctx).stats.accepted)
            },
        );
    }
    group.finish();

    // The acceptance-criterion workload: the E6 grouped-granularity chain
    // ([0,1] business-week -> [0,1] business-month), engine on vs off.
    let cal = Calendar::standard();
    let mut group = c.benchmark_group("tag_matching_grouped");
    for days in [30i64, 90, 270] {
        let w = planted_stock_workload(days, &[], 0, 44);
        let ibm_rise = w.registry.get("IBM-rise").unwrap();
        let ibm_fall = w.registry.get("IBM-fall").unwrap();
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        let x2 = sb.var("X2");
        sb.constrain(x0, x1, Tcg::new(0, 1, cal.get("business-week").unwrap()));
        sb.constrain(x1, x2, Tcg::new(0, 1, cal.get("business-month").unwrap()));
        let cet =
            ComplexEventType::new(sb.build().unwrap(), vec![ibm_rise, ibm_fall, ibm_rise]);
        let tag = build_tag(&cet);
        let events = w.sequence.events();
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("lane_scratch", events.len()),
            &events.len(),
            |b, _| {
                let m = Matcher::new(&tag);
                let mut scratch = MatcherScratch::new();
                let mut ctx = RunCtx::new(&mut scratch);
                b.iter(|| m.run_in(events, false, &mut ctx).stats.accepted)
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reference", events.len()),
            &events.len(),
            |b, _| {
                let m = Matcher::new(&tag);
                b.iter(|| m.run_reference(events, false).accepted)
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
