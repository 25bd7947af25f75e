//! Warehouse pipeline: a non-regular, star/snowflake-ish analytic query —
//! the kind of "complex queries with larger numbers of joins" the paper's
//! introduction motivates.
//!
//! ```text
//! cargo run --release --example warehouse_pipeline
//! ```
//!
//! Five relations with *different* cardinalities and selectivities:
//!
//! ```text
//! lineitems(order_key, part_key, qty)   200 000 rows
//! orders(order_key, cust_key, date_key)  50 000 rows
//! customers(cust_key, nation)             5 000 rows
//! parts(part_key, brand)                  2 000 rows
//! dates(date_key, month)                    365 rows
//! ```
//!
//! Costs phase 1's bushy DP against its greedy fallback on a non-regular
//! graph, builds a custom [`QueryBinding`] with provenance-tracked join
//! keys, executes the DP's tree with SE and FP on the threaded engine,
//! checks both against the sequential oracle, and aggregates the result.

use std::collections::HashMap;
use std::sync::Arc;

use multijoin::plan::cost::join_costs_bottom_up;
use multijoin::plan::tree::{JoinTree, NodeId, TreeNode};
use multijoin::prelude::*;
use multijoin::relalg::ops::{aggregate, AggFunc, AggSpec};

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Rows per relation. Each join key is uniform over the referenced
/// relation's keys, so a predicate's selectivity is one over its size.
const LINEITEMS: i64 = 200_000;
const ORDERS: i64 = 50_000;
const CUSTOMERS: i64 = 5_000;
const PARTS: i64 = 2_000;
const DATES: i64 = 365;

/// One equi-join predicate of the warehouse query.
struct Pred {
    a: &'static str,
    a_col: usize,
    b: &'static str,
    b_col: usize,
    selectivity: f64,
}

fn build_data(catalog: &Catalog) {
    let mut rng = StdRng::seed_from_u64(99);
    let li_schema = Schema::new(vec![
        Attribute::int("order_key"),
        Attribute::int("part_key"),
        Attribute::int("qty"),
    ])
    .shared();
    let orders_schema = Schema::new(vec![
        Attribute::int("order_key"),
        Attribute::int("cust_key"),
        Attribute::int("date_key"),
    ])
    .shared();
    let cust_schema =
        Schema::new(vec![Attribute::int("cust_key"), Attribute::int("nation")]).shared();
    let part_schema =
        Schema::new(vec![Attribute::int("part_key"), Attribute::int("brand")]).shared();
    let date_schema =
        Schema::new(vec![Attribute::int("date_key"), Attribute::int("month")]).shared();

    let lineitems: Vec<Tuple> = (0..LINEITEMS)
        .map(|_| {
            Tuple::from_ints(&[
                rng.gen_range(0..ORDERS),
                rng.gen_range(0..PARTS),
                rng.gen_range(1..50),
            ])
        })
        .collect();
    let orders: Vec<Tuple> = (0..ORDERS)
        .map(|k| Tuple::from_ints(&[k, rng.gen_range(0..CUSTOMERS), rng.gen_range(0..DATES)]))
        .collect();
    let customers: Vec<Tuple> = (0..CUSTOMERS)
        .map(|k| Tuple::from_ints(&[k, rng.gen_range(0..25)]))
        .collect();
    let parts: Vec<Tuple> = (0..PARTS)
        .map(|k| Tuple::from_ints(&[k, rng.gen_range(0..40)]))
        .collect();
    let dates: Vec<Tuple> = (0..DATES).map(|k| Tuple::from_ints(&[k, k % 12])).collect();

    catalog.register(
        "lineitems",
        Arc::new(Relation::new_unchecked(li_schema, lineitems)),
    );
    catalog.register(
        "orders",
        Arc::new(Relation::new_unchecked(orders_schema, orders)),
    );
    catalog.register(
        "customers",
        Arc::new(Relation::new_unchecked(cust_schema, customers)),
    );
    catalog.register(
        "parts",
        Arc::new(Relation::new_unchecked(part_schema, parts)),
    );
    catalog.register(
        "dates",
        Arc::new(Relation::new_unchecked(date_schema, dates)),
    );
}

/// Leaf relation names under each node, in left-to-right order, with the
/// starting column offset of each relation in the node's concat schema.
fn provenance(tree: &JoinTree, arities: &HashMap<String, usize>) -> Vec<Vec<(String, usize)>> {
    let mut prov: Vec<Vec<(String, usize)>> = vec![Vec::new(); tree.nodes().len()];
    for (id, node) in tree.nodes().iter().enumerate() {
        match node {
            TreeNode::Leaf { relation } => {
                prov[id] = vec![(relation.clone(), 0)];
            }
            TreeNode::Join { left, right } => {
                let mut v = prov[*left].clone();
                let left_width: usize = v.iter().map(|(r, _)| arities[r]).sum();
                for (r, off) in &prov[*right] {
                    v.push((r.clone(), off + left_width));
                }
                prov[id] = v;
            }
        }
    }
    prov
}

/// Finds the predicate connecting the two subtrees of `join` and returns
/// the equi-join spec with identity projection over the concatenation.
fn spec_for_join(
    tree: &JoinTree,
    join: NodeId,
    preds: &[Pred],
    prov: &[Vec<(String, usize)>],
    arities: &HashMap<String, usize>,
) -> EquiJoin {
    let (l, r) = tree.children(join).expect("join node");
    let find = |side: &[(String, usize)], rel: &str| -> Option<usize> {
        side.iter()
            .find(|(name, _)| name == rel)
            .map(|(_, off)| *off)
    };
    let left_width: usize = prov[l].iter().map(|(r, _)| arities[r]).sum();
    for p in preds {
        // Try predicate in both orientations.
        if let (Some(loff), Some(roff)) = (find(&prov[l], p.a), find(&prov[r], p.b)) {
            let arity = left_width + prov[r].iter().map(|(r, _)| arities[r]).sum::<usize>();
            return EquiJoin::new(loff + p.a_col, roff + p.b_col, Projection::identity(arity));
        }
        if let (Some(loff), Some(roff)) = (find(&prov[l], p.b), find(&prov[r], p.a)) {
            let arity = left_width + prov[r].iter().map(|(r, _)| arities[r]).sum::<usize>();
            return EquiJoin::new(loff + p.b_col, roff + p.a_col, Projection::identity(arity));
        }
    }
    panic!("no predicate connects the subtrees of join {join} (cartesian product?)");
}

fn main() {
    let catalog = Arc::new(Catalog::new());
    build_data(&catalog);

    let preds = [
        Pred {
            a: "lineitems",
            a_col: 0,
            b: "orders",
            b_col: 0,
            selectivity: 1.0 / ORDERS as f64,
        },
        Pred {
            a: "lineitems",
            a_col: 1,
            b: "parts",
            b_col: 0,
            selectivity: 1.0 / PARTS as f64,
        },
        Pred {
            a: "orders",
            a_col: 1,
            b: "customers",
            b_col: 0,
            selectivity: 1.0 / CUSTOMERS as f64,
        },
        Pred {
            a: "orders",
            a_col: 2,
            b: "dates",
            b_col: 0,
            selectivity: 1.0 / DATES as f64,
        },
    ];

    // Phase 1 over the warehouse query graph.
    let mut graph = QueryGraph::new();
    let mut idx = HashMap::new();
    for name in ["lineitems", "orders", "customers", "parts", "dates"] {
        let card = catalog.relation(name).unwrap().len() as u64;
        idx.insert(name, graph.add_relation(name, card).unwrap());
    }
    for p in &preds {
        graph.add_edge(idx[p.a], idx[p.b], p.selectivity).unwrap();
    }

    let bushy = optimize_bushy(&graph, &CostModel::default()).expect("bushy DP");
    let greedy = greedy_tree(&graph, &CostModel::default()).expect("greedy");
    println!("phase-1 total costs (tuple actions):");
    println!("  bushy DP: {:>12.0}", bushy.total_cost);
    println!("  greedy  : {:>12.0}", greedy.total_cost);
    println!(
        "\nchosen (bushy) tree:\n{}",
        multijoin::plan::render::render(&bushy.tree)
    );
    let costs = tree_costs(&bushy.tree, &bushy.node_cards, &CostModel::default());
    for (join, cost) in join_costs_bottom_up(&bushy.tree, &costs) {
        println!("  join j{join}: estimated {cost:.0} units");
    }

    // Custom binding: provenance-tracked join keys, identity projections.
    let arities: HashMap<String, usize> = ["lineitems", "orders", "customers", "parts", "dates"]
        .iter()
        .map(|n| (n.to_string(), catalog.relation(n).unwrap().schema().arity()))
        .collect();
    let prov = provenance(&bushy.tree, &arities);
    let binding = QueryBinding::new(&bushy.tree, catalog.as_ref(), |join, _, _| {
        spec_for_join(&bushy.tree, join, &preds, &prov, &arities)
    })
    .expect("binding");

    // Sequential oracle for verification.
    let oracle = {
        let xra = to_xra_custom(&bushy.tree, &binding);
        xra.eval(catalog.as_ref()).expect("oracle")
    };
    println!("\noracle result: {} joined rows", oracle.len());

    // Phase 2 + execution with SE and FP.
    for strategy in [Strategy::SE, Strategy::FP] {
        let mut input = GeneratorInput::new(&bushy.tree, &bushy.node_cards, &costs, 4);
        input.allow_oversubscribe = true;
        let plan = generate(strategy, &input).expect("plan");
        let out =
            run_plan(&plan, &binding, catalog.clone(), &ExecConfig::default()).expect("execution");
        assert!(out.relation.multiset_eq(&oracle), "{strategy} diverged");
        println!(
            "{strategy}: {:.1} ms, {} rows (verified)",
            out.elapsed.as_secs_f64() * 1e3,
            out.relation.len()
        );
    }

    // Downstream aggregation: revenue-ish rollup by customer nation.
    // Find the `nation` column in the final concat schema.
    let root_prov = &prov[bushy.tree.root()];
    let cust_off = root_prov
        .iter()
        .find(|(r, _)| r == "customers")
        .map(|(_, off)| *off)
        .expect("customers in result");
    let qty_off = root_prov
        .iter()
        .find(|(r, _)| r == "lineitems")
        .map(|(_, off)| *off)
        .expect("lineitems in result")
        + 2;
    let rollup = aggregate(
        &oracle,
        &[cust_off + 1],
        &[
            AggSpec::new(AggFunc::Count, 0, "line_count"),
            AggSpec::new(AggFunc::Sum, qty_off, "total_qty"),
        ],
    )
    .expect("aggregate");
    println!("\ntop nations by joined line count:");
    let mut rows: Vec<(i64, i64, i64)> = rollup
        .iter()
        .map(|t| (t.int(0).unwrap(), t.int(1).unwrap(), t.int(2).unwrap()))
        .collect();
    rows.sort_by_key(|r| -r.1);
    for (nation, count, qty) in rows.iter().take(5) {
        println!("  nation {nation:>2}: {count:>7} lines, qty {qty}");
    }
}

/// Lowers the tree with the binding's specs into a logical XRA plan.
fn to_xra_custom(tree: &JoinTree, binding: &QueryBinding) -> XraNode {
    fn rec(tree: &JoinTree, id: NodeId, binding: &QueryBinding) -> XraNode {
        match &tree.nodes()[id] {
            TreeNode::Leaf { relation } => XraNode::scan(relation.clone()),
            TreeNode::Join { left, right } => XraNode::join(
                rec(tree, *left, binding),
                rec(tree, *right, binding),
                binding.spec(id).expect("spec").clone(),
                JoinAlgorithm::Simple,
            ),
        }
    }
    rec(tree, tree.root(), binding)
}
