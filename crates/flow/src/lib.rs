//! # mcl-flow — min-cost flow solvers
//!
//! Self-contained network optimization used by the legalizer:
//!
//! - [`NetworkSimplex`]: primal network simplex with the first-eligible
//!   pivot rule (the solver configuration the paper uses through LEMON).
//!   The one production solver: stage 2's matchings and stage 3's dual flow.
//! - [`ssp`]: successive shortest paths, an independent solver kept only as
//!   the tests' cross-check of the simplex.
//! - [`matching`]: min-cost bipartite perfect matching.
//!
//! The production entry points have a `*_metered` variant that records
//! their pivots into an [`mcl_obs::Meter`]: stage 3's solve under
//! `flow.simplex` / `flow.simplex_pivots`, stage 2's matchings under
//! `maxdisp.simplex_pivots`. The plain entry points record nothing.
//!
//! ```
//! use mcl_flow::{FlowGraph, NodeId, NetworkSimplex};
//!
//! let mut g = FlowGraph::with_nodes(2);
//! g.set_supply(NodeId(0), 1);
//! g.set_supply(NodeId(1), -1);
//! g.add_arc(NodeId(0), NodeId(1), 1, 42);
//! let sol = NetworkSimplex::new().solve(&g)?;
//! assert_eq!(sol.cost, 42);
//! # Ok::<(), mcl_flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]

pub mod dimacs;
pub mod graph;
pub mod matching;
pub mod network_simplex;
pub mod ssp;

pub use dimacs::{read_dimacs, write_dimacs, DimacsError};
pub use graph::{Arc, ArcId, FlowError, FlowGraph, FlowSolution, NodeId, INF_CAP};
pub use matching::{min_cost_matching, min_cost_matching_dense, Matching};
pub use network_simplex::NetworkSimplex;
