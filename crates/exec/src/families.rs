//! Seeded generators for the three planner benchmark query families:
//! **chain**, **star**, and **skewed**. Each instance holds the relations
//! it generated, as rows, and the join edges between them:
//! [`FamilyInstance::load`] registers and analyzes them in a [`Database`],
//! and [`FamilyInstance::query`] derives the matching [`JoinQuery`] from
//! that catalog's statistics, so the planner's estimates can be validated
//! against actual execution — unlike the regular Wisconsin query, these
//! have genuinely different cardinalities per join, so tree shape,
//! strategy, and allocation all matter.

use std::collections::HashMap;
use std::sync::Arc;

use rand::{rngs::StdRng, Rng, SeedableRng};

use mj_plan::query::JoinQuery;
use mj_plan::MAX_GRAPH_RELATIONS;
use mj_relalg::{Attribute, RelalgError, Relation, RelationProvider, Result, Schema, Tuple};
use mj_storage::{skew::zipf_keys, Catalog};

use crate::session::{Database, MjResult};

/// The three benchmark query families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryFamily {
    /// `R0 – R1 – … – R{k-1}`, uniform keys, near-constant intermediate
    /// sizes.
    Chain,
    /// A fact relation equi-joined to `k-1` dimension relations on
    /// distinct foreign-key columns.
    Star,
    /// A chain with alternating relation sizes and Zipf-skewed join keys —
    /// the workload where cardinality-blind strategy choice hurts most.
    Skewed,
}

impl QueryFamily {
    /// All families in presentation order.
    pub const ALL: [QueryFamily; 3] = [QueryFamily::Chain, QueryFamily::Star, QueryFamily::Skewed];

    /// Lower-case label (also the CLI `--query` argument).
    pub fn label(&self) -> &'static str {
        match self {
            QueryFamily::Chain => "chain",
            QueryFamily::Star => "star",
            QueryFamily::Skewed => "skewed",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Result<QueryFamily> {
        match s {
            "chain" => Ok(QueryFamily::Chain),
            "star" => Ok(QueryFamily::Star),
            "skewed" => Ok(QueryFamily::Skewed),
            other => Err(RelalgError::InvalidPlan(format!(
                "unknown query family `{other}` (chain, star, skewed)"
            ))),
        }
    }
}

impl std::fmt::Display for QueryFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A generated family instance: its relations and the join edges between
/// them.
#[derive(Clone, Debug)]
pub struct FamilyInstance {
    /// Which family this is.
    pub family: QueryFamily,
    /// The generated relations `R0..R{k-1}`, as rows, by name.
    pub catalog: HashMap<String, Arc<Relation>>,
    /// Join edges `(a, b, col_a, col_b)` over relation indices.
    joins: Vec<(usize, usize, usize, usize)>,
}

impl FamilyInstance {
    /// Registers `R0..R{k-1}` in `db`, in index order, and analyzes them.
    pub fn load(&self, db: &Database) -> MjResult<()> {
        for name in self.names() {
            db.register(name.clone(), self.catalog.relation(&name)?)?;
            db.catalog().analyze(&name)?;
        }
        Ok(())
    }

    /// The family's query over `catalog`, where [`load`](Self::load) put
    /// the relations: selectivities come from its analyzed statistics.
    pub fn query(&self, catalog: &Catalog) -> Result<JoinQuery> {
        let names: Vec<String> = self.names().collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        query_from_catalog(catalog, &refs, &self.joins)
    }

    fn names(&self) -> impl Iterator<Item = String> {
        (0..self.catalog.len()).map(|i| format!("R{i}"))
    }
}

/// Generates a `family` instance over `2 <= k <= MAX_GRAPH_RELATIONS`
/// relations with base size `n >= 4`, deterministically per `seed`.
pub fn generate_family(
    family: QueryFamily,
    k: usize,
    n: usize,
    seed: u64,
) -> Result<FamilyInstance> {
    if !(2..=MAX_GRAPH_RELATIONS).contains(&k) {
        return Err(RelalgError::InvalidPlan(format!(
            "a multi-join family needs 2..={MAX_GRAPH_RELATIONS} relations, got {k}"
        )));
    }
    if n < 4 {
        return Err(RelalgError::InvalidPlan(format!(
            "family base size must be >= 4, got {n}"
        )));
    }
    let mut catalog = HashMap::with_capacity(k);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA31_7113);
    let joins: Vec<(usize, usize, usize, usize)> = match family {
        QueryFamily::Chain => {
            // (a, b, id): a joins toward the previous relation, b toward
            // the next; both uniform over 0..n, so every edge selectivity
            // is ~1/n and every intermediate stays near n.
            let schema = chain_schema();
            for r in 0..k {
                let tuples = (0..n)
                    .map(|i| {
                        Tuple::from_ints(&[
                            rng.gen_range(0..n as i64),
                            rng.gen_range(0..n as i64),
                            i as i64,
                        ])
                    })
                    .collect();
                catalog.insert(
                    format!("R{r}"),
                    Arc::new(Relation::new(schema.clone(), tuples)?),
                );
            }
            (0..k - 1).map(|i| (i, i + 1, 1, 0)).collect()
        }
        QueryFamily::Star => {
            // R0..R{k-2} are dimensions with unique keys; R{k-1} is the
            // fact (2n rows, one foreign-key column per dimension plus a
            // measure), so each fact row matches exactly one row per
            // dimension and the result stays at 2n. The fact sits *last*
            // so the fixed linear shapes (R0 deepest-to-shallowest) keep
            // it at the deep end — every linear tree stays cartesian-free.
            let n_fact = 2 * n;
            let n_dim = (n / 2).max(4);
            let dim_schema =
                Schema::new(vec![Attribute::int("key"), Attribute::int("payload")]).shared();
            for d in 0..k - 1 {
                let tuples = (0..n_dim)
                    .map(|i| Tuple::from_ints(&[i as i64, rng.gen_range(0..1000)]))
                    .collect();
                catalog.insert(
                    format!("R{d}"),
                    Arc::new(Relation::new(dim_schema.clone(), tuples)?),
                );
            }
            let mut fact_attrs: Vec<Attribute> = (0..k - 1)
                .map(|d| Attribute::int(format!("fk{d}")))
                .collect();
            fact_attrs.push(Attribute::int("measure"));
            let fact_schema = Schema::new(fact_attrs).shared();
            let fact_tuples = (0..n_fact)
                .map(|i| {
                    let mut row: Vec<i64> =
                        (0..k - 1).map(|_| rng.gen_range(0..n_dim as i64)).collect();
                    row.push(i as i64);
                    Tuple::from_ints(&row)
                })
                .collect();
            catalog.insert(
                format!("R{}", k - 1),
                Arc::new(Relation::new(fact_schema, fact_tuples)?),
            );
            (0..k - 1).map(|d| (d, k - 1, 0, d)).collect()
        }
        QueryFamily::Skewed => {
            // Chain topology, but relation sizes alternate n/4, n, 2n and
            // the forward join column is Zipf-skewed over a shared domain:
            // intermediates shrink and grow along the chain, so strategy
            // and allocation choices actually separate.
            let schema = chain_schema();
            let sizes: Vec<usize> = (0..k)
                .map(|i| match i % 3 {
                    0 => (n / 4).max(4),
                    1 => n,
                    _ => 2 * n,
                })
                .collect();
            let domain = n.max(8);
            for (r, &rows) in sizes.iter().enumerate() {
                let fwd = zipf_keys(rows, domain, 0.6, seed.wrapping_add(r as u64 * 77));
                let tuples = (0..rows)
                    .map(|i| Tuple::from_ints(&[rng.gen_range(0..domain as i64), fwd[i], i as i64]))
                    .collect();
                catalog.insert(
                    format!("R{r}"),
                    Arc::new(Relation::new(schema.clone(), tuples)?),
                );
            }
            (0..k - 1).map(|i| (i, i + 1, 1, 0)).collect()
        }
    };
    Ok(FamilyInstance {
        family,
        catalog,
        joins,
    })
}

/// The text query joining a [`QueryFamily::Chain`] (or
/// [`QueryFamily::Skewed`] — same topology) instance end to end:
/// `SELECT * FROM R0 JOIN R1 ON R0.b = R1.a JOIN R2 ...`. Kept next to
/// the generator so the SQL stays in lockstep with the family's column
/// names.
pub fn chain_query_sql(k: usize) -> String {
    let mut q = String::from("SELECT * FROM R0");
    for i in 1..k {
        q.push_str(&format!(" JOIN R{i} ON R{}.b = R{i}.a", i - 1));
    }
    q
}

/// The text query joining a [`QueryFamily::Star`] instance end to end:
/// every dimension `R0..R{k-2}` (columns `key`, `payload`) against the
/// fact `R{k-1}` (columns `fk0..`, `measure`).
pub fn star_query_sql(k: usize) -> String {
    let fact = k - 1;
    let mut q = format!("SELECT * FROM R0 JOIN R{fact} ON R0.key = R{fact}.fk0");
    for d in 1..k - 1 {
        q.push_str(&format!(" JOIN R{d} ON R{d}.key = R{fact}.fk{d}"));
    }
    q
}

/// Builds a [`JoinQuery`] from catalog statistics: cardinalities and
/// schemas come from the catalog, edge selectivities from the System-R
/// formula `1 / max(distinct(a.col), distinct(b.col))` over the recorded
/// (or [`Catalog::analyze`]d) per-column distinct counts.
pub(crate) fn query_from_catalog(
    catalog: &Catalog,
    relations: &[&str],
    joins: &[(usize, usize, usize, usize)],
) -> Result<JoinQuery> {
    let mut query = JoinQuery::new();
    for name in relations {
        let stats = catalog.stats(name)?;
        let schema = catalog.schema(name)?;
        query.add_relation(*name, stats.cardinality, schema)?;
    }
    for &(a, b, col_a, col_b) in joins {
        if a >= relations.len() || b >= relations.len() {
            return Err(RelalgError::InvalidPlan(format!(
                "join edge ({a}, {b}) references a relation outside 0..{}",
                relations.len()
            )));
        }
        let (na, nb) = (relations[a], relations[b]);
        let da = catalog.column_distinct(na, col_a)?.max(1);
        let db = catalog.column_distinct(nb, col_b)?.max(1);
        let selectivity = 1.0 / da.max(db) as f64;
        query.add_join(a, b, col_a, col_b, selectivity)?;
    }
    Ok(query)
}

fn chain_schema() -> Arc<Schema> {
    Schema::new(vec![
        Attribute::int("a"),
        Attribute::int("b"),
        Attribute::int("id"),
    ])
    .shared()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::DbConfig;

    #[test]
    fn families_are_deterministic_per_seed() {
        for family in QueryFamily::ALL {
            let a = generate_family(family, 4, 64, 7).unwrap();
            let b = generate_family(family, 4, 64, 7).unwrap();
            let c = generate_family(family, 4, 64, 8).unwrap();
            for r in 0..4 {
                let name = format!("R{r}");
                let ra = a.catalog.relation(&name).unwrap();
                let rb = b.catalog.relation(&name).unwrap();
                assert!(ra.multiset_eq(&rb), "{family} {name} not deterministic");
                let rc = c.catalog.relation(&name).unwrap();
                assert!(
                    !ra.multiset_eq(&rc) || ra.is_empty(),
                    "{family} {name} ignores the seed"
                );
            }
        }
    }

    #[test]
    fn query_matches_generated_data() {
        for family in QueryFamily::ALL {
            let inst = generate_family(family, 5, 48, 3).unwrap();
            let db = Database::open(DbConfig::default()).unwrap();
            inst.load(&db).unwrap();
            let query = inst.query(db.catalog()).unwrap();
            assert_eq!(query.len(), 5, "{family}");
            assert_eq!(query.graph().edges().len(), 4, "{family}");
            assert!(query.graph().is_connected(), "{family}");
            // Cards in the query graph match the catalog.
            for (i, name) in (0..5).map(|i| (i, format!("R{i}"))) {
                assert_eq!(
                    query.graph().cards()[i],
                    db.catalog().stats(&name).unwrap().cardinality,
                    "{family} {name}"
                );
            }
            // Selectivities are sane probabilities.
            for &(_, _, sel) in query.graph().edges() {
                assert!(sel > 0.0 && sel <= 1.0, "{family}: {sel}");
            }
        }
    }

    /// FNV-1a over every value of `R0..R{k-1}`, relation by relation, row
    /// by row, plus the row counts.
    fn row_hash(k: usize, n: usize) -> (Vec<usize>, u64) {
        let instance = generate_family(QueryFamily::Chain, k, n, 1995).unwrap();
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut counts = Vec::new();
        for i in 0..k {
            let relation = instance.catalog.relation(&format!("R{i}")).unwrap();
            counts.push(relation.len());
            for tuple in relation.iter() {
                for c in 0..tuple.arity() {
                    for byte in tuple.int(c).unwrap().to_le_bytes() {
                        hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        (counts, hash)
    }

    #[test]
    fn benchmark_instances_are_pinned_row_for_row() {
        // The three chain instances the benchmark relabels (`SHAPE_SEED`
        // 1995): any change to the RNG stream or its order moves a hash.
        for (k, n, expected) in [
            (14, 50, 0xb7fa_5dd0_99b4_6f79),
            (6, 40_000, 0x1c4e_3817_af7a_8d98),
            (2, 30_000, 0x3e3b_46c9_8867_4726),
        ] {
            let (counts, hash) = row_hash(k, n);
            assert_eq!(counts, vec![n; k], "({k}, {n})");
            assert_eq!(hash, expected, "({k}, {n})");
        }
    }

    #[test]
    fn bad_parameters_error() {
        assert!(generate_family(QueryFamily::Chain, 1, 64, 0).is_err());
        assert!(generate_family(QueryFamily::Chain, 33, 64, 0).is_err());
        assert!(generate_family(QueryFamily::Star, 4, 2, 0).is_err());
        assert!(QueryFamily::parse("ring").is_err());
        assert_eq!(QueryFamily::parse("star").unwrap(), QueryFamily::Star);
    }
}
