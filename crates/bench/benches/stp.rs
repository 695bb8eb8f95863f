//! Criterion bench for the constraint-network substrate: STP minimal
//! networks and incremental tightening.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tgm_stp::{Range, Stp};

fn chain_stp(n: usize) -> Stp {
    let mut stp = Stp::new(n);
    for i in 1..n {
        stp.constrain(i - 1, i, Range::new(1, 10));
        if i >= 2 {
            stp.constrain(i - 2, i, Range::new(2, 18));
        }
    }
    stp
}

fn bench_stp(c: &mut Criterion) {
    let mut group = c.benchmark_group("stp");
    for n in [8usize, 32, 128] {
        let stp = chain_stp(n);
        group.bench_with_input(BenchmarkId::new("minimize", n), &n, |b, _| {
            b.iter(|| stp.minimize().unwrap())
        });
    }
    let stp = chain_stp(64);
    let minimal = stp.minimize().unwrap();
    group.bench_function("incremental_tighten_64", |b| {
        b.iter(|| {
            let mut m = minimal.clone();
            m.tighten(0, 63, Range::new(100, 200)).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stp);
criterion_main!(benches);
