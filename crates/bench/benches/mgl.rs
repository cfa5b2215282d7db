//! End-to-end legalization benchmark on a generated design.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcl_core::{Engine, LegalizerConfig, RunSpec};
use mcl_gen::{generate, GeneratorConfig};

fn mgl_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("legalize");
    group.sample_size(10);
    for n in [1_000usize, 4_000] {
        let cfg = GeneratorConfig {
            num_cells: n,
            density: 0.7,
            ..GeneratorConfig::small(7)
        };
        let g = generate(&cfg).unwrap();
        group.bench_with_input(BenchmarkId::new("contest_flow", n), &g.design, |b, d| {
            b.iter(|| {
                let out = Engine::new(LegalizerConfig::contest())
                    .run_one(d, &RunSpec::default())
                    .unwrap();
                std::hint::black_box(out.design.cells.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, mgl_benches);
criterion_main!(benches);
