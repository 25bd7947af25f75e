//! Join trees, shapes, the paper's cost model, and phase-1 optimization.
//!
//! The paper adopts two-phase optimization (§1.2): phase 1 picks the join
//! tree with minimal *total* cost using a classical optimizer; phase 2 —
//! the paper's actual subject, implemented in `mj-core` — parallelizes that
//! tree. This crate owns everything about phase 1 and about tree structure:
//!
//! * [`tree`]: an arena-based binary join tree with stable node ids;
//! * [`shapes`]: the five experimental tree shapes of Fig. 8;
//! * [`cost`]: the paper's cost function `a·n1 + b·n2 + c·r` (§4.3);
//! * [`cardinality`]: cardinality models, including the regular Wisconsin
//!   query's "every intermediate is again an N-tuple relation" invariant;
//! * [`optimize`]: bushy DP over query graphs, and a greedy heuristic for
//!   graphs too dense to enumerate;
//! * [`segment`]: decomposition of bushy trees into right-deep segments
//!   (\[CLY92\], §3.3);
//! * [`transform`]: tree mirroring ("it is possible without cost penalty to
//!   mirror (parts of) a query to make it more right-oriented", §5);
//! * [`query`]: lowering a tree to the logical XRA plan of the regular
//!   Wisconsin query;
//! * [`parse`]: the spanned text frontend (`SELECT ... FROM ... JOIN ... ON
//!   ...`) producing a syntactic [`QueryAst`] for the session layer to bind;
//! * [`render`]: ASCII tree rendering (Fig. 8 regeneration).

#![warn(missing_docs)]

pub mod cardinality;
pub mod cost;
pub mod optimize;
pub mod parse;
pub mod query;
pub mod render;
pub mod segment;
pub mod shapes;
pub mod transform;
pub mod tree;

pub use cardinality::{CardModel, SelectivityModel, UniformOneToOne};
pub use cost::{CostModel, TreeCosts};
pub use optimize::{
    greedy_tree, optimize_bushy, OptimizedPlan, QueryGraph, MAX_GRAPH_RELATIONS, PAIR_BUDGET,
};
pub use parse::{parse_query, ParseError, QueryAst, Span};
pub use query::{
    inject_scan_filters, lower, JoinQuery, LoweredQuery, RelFilter, SelectItemSpec, SelectSpec,
};
pub use segment::{segments, Segment, Segmentation};
pub use shapes::Shape;
pub use transform::{mirror, right_orient};
pub use tree::{JoinTree, NodeId, TreeNode};
