//! Pins the network simplex's pivot sequence on a 20k-cell stage-3-shaped
//! graph: 100 rows of 200 cells hung off one origin node, so the cold-start
//! tree is a 20k-node star whose child lists change order as cells leave it.
//!
//! The first-eligible rule plus Cunningham's leaving rule fully determine the
//! pivots, so the optimal flow, the potentials and the pivot count are all
//! fixed for a given graph. A change to the spanning-tree bookkeeping must
//! keep them; a change that alters any of them changes the pivot sequence.

use mcl_flow::{FlowGraph, NodeId, INF_CAP};

/// Dual MCF of `n` width-2 cells in rows of 200, each row in GP order with
/// pseudo-random GPs (xorshift64) spread over a row twice as wide as its
/// cells, one chain of separation arcs per row and all rows sharing the
/// origin node. The same graph as `rows_graph` in the `mcf` bench.
fn rows_graph(n: usize) -> FlowGraph {
    const PER_ROW: usize = 200;
    const WIDTH: i64 = 4 * PER_ROW as i64;
    let mut g = FlowGraph::with_nodes(n + 1);
    let z = NodeId(0);
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
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

/// FNV-1a over the little-endian bytes of `xs`.
fn digest(xs: &[i64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn rows_20k_pivot_sequence_is_pinned() {
    let g = rows_graph(20_000);
    let (sol, pivots) = mcl_flow::solve(&g).expect("chain graph is solvable");
    assert_eq!(sol.verify(&g), None);
    let got = (sol.cost, digest(&sol.flow), digest(&sol.potential), pivots);
    assert_eq!(
        got,
        (
            -11_937,
            17_798_741_598_276_477_300,
            2_665_571_134_410_287_548,
            42_983
        ),
        "cost, flow digest, potential digest, pivots"
    );
}
