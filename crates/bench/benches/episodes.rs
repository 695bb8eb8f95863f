//! Criterion bench for the [MTV95] episode baseline and the streaming TAG
//! matcher on the same data.

use criterion::{criterion_group, criterion_main, Criterion};
use tgm_bench::workloads::daily_stock_workload;
use tgm_mining::episodes::{Episode, EpisodeMiner};
use tgm_tag::{build_tag, MatchSession};

fn bench_episodes(c: &mut Criterion) {
    let w = daily_stock_workload(365, &[], 0.85, 7);
    let seq = &w.sequence;

    let mut group = c.benchmark_group("episodes");
    group.sample_size(10);
    let miner = EpisodeMiner {
        window: 3 * 86_400,
        shift: 3_600,
        min_frequency: 0.05,
        max_len: 3,
    };
    group.bench_function("winepi_mine_serial", |b| b.iter(|| miner.mine_serial(seq)));
    let ep = Episode::Serial(vec![w.types.ibm_rise, w.types.ibm_fall]);
    group.bench_function("winepi_frequency_one", |b| {
        b.iter(|| miner.frequency(seq, &ep))
    });
    group.bench_function("minepi_minimal_occurrences", |b| {
        b.iter(|| {
            tgm_mining::episodes::minimal_occurrences_serial(
                seq,
                &[w.types.ibm_rise, w.types.ibm_fall],
            )
        })
    });
    group.finish();

    let mut group = c.benchmark_group("streaming");
    let tag = build_tag(&w.cet);
    group.bench_function("session_full_year", |b| {
        b.iter(|| {
            let mut session = MatchSession::new(&tag);
            session.push_batch(seq.events());
            session.stats().completions
        })
    });
    group.finish();
}

criterion_group!(benches, bench_episodes);
criterion_main!(benches);
