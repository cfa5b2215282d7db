//! Network simplex scaling on stage-3-shaped flow graphs (row chains).
//!
//! `chain` is one row of cells in random GP order; `rows` is many short rows
//! in GP order at half density, the shape of a whole design's stage 3. At
//! 50k cells `rows` shows whether the solver stays linear in the number of
//! cells hung off the cold-start root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcl_flow::{FlowGraph, NodeId, INF_CAP};

/// Builds the dual-MCF of a row of `n` cells with random-ish GPs. The row
/// is 20,000 sites wide, so it holds at most 10,000 width-2 cells; beyond
/// that the dual is unbounded.
fn chain_graph(n: usize) -> FlowGraph {
    let mut g = FlowGraph::with_nodes(n + 1);
    let z = NodeId(0);
    let mut seed = 0x2545F4914F6CDD1Du64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for i in 0..n {
        let node = NodeId(1 + i);
        let xp = (rng() % 10_000) as i64;
        g.add_arc(z, node, 1, -xp);
        g.add_arc(node, z, 1, xp);
        g.add_arc(z, node, INF_CAP, 0); // l_i = 0
        g.add_arc(node, z, INF_CAP, 20_000); // r_i
        if i > 0 {
            g.add_arc(NodeId(i), node, INF_CAP, -2);
        }
    }
    g
}

/// Builds the dual-MCF of `n` width-2 cells in rows of 200, each row in GP
/// order with GPs spread over a row twice as wide as its cells, one chain of
/// separation arcs per row and all rows sharing the origin node.
fn rows_graph(n: usize) -> FlowGraph {
    const PER_ROW: usize = 200;
    const WIDTH: i64 = 4 * PER_ROW as i64;
    let mut g = FlowGraph::with_nodes(n + 1);
    let z = NodeId(0);
    let mut seed = 0x2545F4914F6CDD1Du64;
    for row in 0..n.div_ceil(PER_ROW) {
        let first = 1 + row * PER_ROW;
        let mut xps: Vec<i64> = (first..(first + PER_ROW).min(n + 1))
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed % (WIDTH as u64 - 2)) as i64
            })
            .collect();
        xps.sort_unstable();
        for (i, &xp) in xps.iter().enumerate() {
            let node = NodeId(first + i);
            g.add_arc(z, node, 1, -xp);
            g.add_arc(node, z, 1, xp);
            g.add_arc(z, node, INF_CAP, 0); // l_i = 0
            g.add_arc(node, z, INF_CAP, WIDTH - 2); // r_i
            if i > 0 {
                g.add_arc(NodeId(first + i - 1), node, INF_CAP, -2);
            }
        }
    }
    g
}

fn mcf_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_simplex");
    group.sample_size(10);
    for n in [100usize, 1_000, 5_000] {
        let g = chain_graph(n);
        group.bench_with_input(BenchmarkId::new("chain", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(mcl_flow::solve(g).unwrap().0.cost));
        });
    }
    for n in [5_000usize, 50_000] {
        let g = rows_graph(n);
        group.bench_with_input(BenchmarkId::new("rows", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(mcl_flow::solve(g).unwrap().0.cost));
        });
    }
    group.finish();
}

criterion_group!(benches, mcf_benches);
criterion_main!(benches);
