//! Bipartite matching benchmarks (stage-2 shapes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcl_flow::min_cost_matching;

fn matching_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    group.sample_size(10);
    for n in [32usize, 128, 512] {
        // Dense-ish: K=32 nearest neighbours per left vertex.
        let k = 32.min(n);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..k {
                let jj = (i + j) % n;
                let cost = ((i as i64 - jj as i64).abs()) * 10;
                edges.push((i, jj, cost));
            }
        }
        group.bench_with_input(BenchmarkId::new("sparse_k32", n), &edges, |b, e| {
            b.iter(|| std::hint::black_box(min_cost_matching(n, n, e).unwrap().0.cost));
        });
    }
    group.finish();
}

criterion_group!(benches, matching_benches);
criterion_main!(benches);
