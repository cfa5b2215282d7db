//! # mcl-flow — min-cost flow
//!
//! Self-contained network optimization used by the legalizer, with one
//! solver behind both of its flow problems:
//!
//! - [`solve`]: primal network simplex with the first-eligible pivot rule
//!   (the solver configuration the paper uses through LEMON), solving
//!   stage 3's dual flow.
//! - [`min_cost_matching`]: min-cost bipartite matching on the same
//!   simplex, solving stage 2's matchings.
//!
//! Both return their pivot count; the calling stage books it (and its own
//! spans) under its own counter, so this crate records nothing and depends
//! on nothing. The tests cross-check the simplex against an independent
//! successive-shortest-paths solver kept in `tests/support/ssp.rs`.
//!
//! ```
//! use mcl_flow::{FlowGraph, NodeId};
//!
//! let mut g = FlowGraph::with_nodes(2);
//! g.set_supply(NodeId(0), 1);
//! g.set_supply(NodeId(1), -1);
//! g.add_arc(NodeId(0), NodeId(1), 1, 42);
//! let (sol, pivots) = mcl_flow::solve(&g)?;
//! assert_eq!(sol.cost, 42);
//! assert!(pivots > 0);
//! # Ok::<(), mcl_flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]

// Unit tests include the tests' support files, which name this crate.
#[cfg(test)]
extern crate self as mcl_flow;

mod graph;
#[cfg(test)]
#[path = "../tests/support/instances.rs"]
mod instances;
mod matching;
mod network_simplex;

pub use graph::{Arc, ArcId, FlowError, FlowGraph, FlowSolution, NodeId, INF_CAP};
pub use matching::{min_cost_matching, Matching, MatchingWitness};
pub use network_simplex::solve;
