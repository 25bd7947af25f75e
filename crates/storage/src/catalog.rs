//! Catalog: named relations, each stored once as its columnar image, plus
//! the statistics the phase-1 optimizer uses. [`Catalog::register`] is
//! the load; an entry *is* the relation (schema, image, statistics, and
//! what queries built on the image, see [`cache`](crate::cache)), so a
//! replaced relation takes all of it along. Rows are rebuilt from the
//! image only where rows are the point ([`RelationProvider::relation`]).

use mj_relalg::column::{Column, ColumnBatch};
use mj_relalg::{RelalgError, Relation, RelationProvider, Result, Schema};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cache::{Resident, ResidentStats};
use crate::columnar::{scan_columns, Fragments};

/// Optimizer-visible statistics for a base relation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TableStats {
    /// Tuple count.
    pub cardinality: u64,
    /// Number of distinct values in the (primary) join key column. For
    /// Wisconsin relations this equals the cardinality (`unique1` is
    /// unique).
    pub distinct_keys: u64,
}

impl TableStats {
    /// Stats for a relation with a unique join key.
    pub fn unique_key(cardinality: u64) -> Self {
        TableStats {
            cardinality,
            distinct_keys: cardinality,
        }
    }
}

/// One stored relation.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) schema: Arc<Schema>,
    pub(crate) stats: TableStats,
    /// The whole relation as one columnar fragment: every variant is
    /// partitioned from it, and late materialization pins it by refcount.
    pub(crate) image: Fragments,
    /// Distinct-value counts by column — what the planner's selectivity
    /// formula `1 / max(d_left, d_right)` runs on. Columns without a count
    /// fall back to [`TableStats`].
    distinct: RwLock<HashMap<usize, u64>>,
    /// Variants and join tables built on the image so far.
    pub(crate) resident: Mutex<Resident>,
}

impl Entry {
    /// Converts `relation` into a stored entry.
    fn load(relation: &Relation, stats: TableStats) -> Result<Entry> {
        Ok(Entry {
            schema: relation.schema().clone(),
            stats,
            image: Arc::from([Arc::new(scan_columns(relation)?)]),
            distinct: RwLock::default(),
            resident: Mutex::new(Resident::default()),
        })
    }
}

/// A thread-safe catalog of named relations and their statistics.
#[derive(Debug, Default)]
pub struct Catalog {
    pub(crate) entries: RwLock<HashMap<String, Arc<Entry>>>,
    pub(crate) counters: Mutex<ResidentStats>,
    /// Monotonic mutation counter: bumped by every write path
    /// (`register*`, `set_column_distinct`, `analyze`). Cached query
    /// plans record the generation they were built against and must be
    /// re-validated when it moves — a stale plan never runs against a
    /// changed catalog.
    generation: AtomicU64,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The current mutation generation. Any catalog write (registration,
    /// statistics update, `analyze`) advances it; plan caches compare
    /// generations to detect staleness.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// The entry registered under `name` now.
    pub(crate) fn entry(&self, name: &str) -> Result<Arc<Entry>> {
        self.entries
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| RelalgError::UnknownRelation(name.to_string()))
    }

    /// Registers a relation, deriving unique-key statistics from its size.
    pub fn register(&self, name: impl Into<String>, relation: Arc<Relation>) {
        let stats = TableStats::unique_key(relation.len() as u64);
        self.register_with_stats(name, relation, stats);
    }

    /// Registers a relation, erroring if the name is already taken. The
    /// check-and-insert is atomic under the catalog's write lock, so
    /// concurrent sessions cannot silently overwrite each other — the
    /// session front door's duplicate guard.
    pub fn register_new(&self, name: impl Into<String>, relation: Arc<Relation>) -> Result<()> {
        let name = name.into();
        let entry = Entry::load(&relation, TableStats::unique_key(relation.len() as u64))?;
        let mut entries = self.entries.write();
        if entries.contains_key(&name) {
            return Err(RelalgError::InvalidPlan(format!(
                "relation `{name}` is already registered"
            )));
        }
        entries.insert(name, Arc::new(entry));
        drop(entries);
        self.bump_generation();
        Ok(())
    }

    /// Registers a relation with explicit statistics (e.g. skewed keys).
    /// A relation already registered under `name` is replaced, and its
    /// image, variants and tables are evicted with its entry.
    ///
    /// # Panics
    ///
    /// If a tuple does not match the relation's schema, which a
    /// [`Relation`] rules out on construction.
    pub fn register_with_stats(
        &self,
        name: impl Into<String>,
        relation: Arc<Relation>,
        stats: TableStats,
    ) {
        let entry = Entry::load(&relation, stats).expect("a relation's tuples match its schema");
        let replaced = self.entries.write().insert(name.into(), Arc::new(entry));
        self.bump_generation();
        if let Some(old) = replaced {
            let sets = old.resident.lock().sets();
            self.counters.lock().evictions += sets;
        }
    }

    /// The statistics recorded for `name`.
    pub fn stats(&self, name: &str) -> Result<TableStats> {
        Ok(self.entry(name)?.stats)
    }

    /// Records the distinct-value count of one column of `name`.
    pub fn set_column_distinct(&self, name: &str, column: usize, distinct: u64) -> Result<()> {
        self.entry(name)?.distinct.write().insert(column, distinct);
        self.bump_generation();
        Ok(())
    }

    /// Counts the exact distinct values of every column of `name` over its
    /// stored image — O(rows × columns); meant for generated/benchmark
    /// data, not for production-size loads. One catalog write: the
    /// generation moves once, however many columns the relation has.
    pub fn analyze(&self, name: &str) -> Result<()> {
        let entry = self.entry(name)?;
        let image = &entry.image[0];
        let counts = (0..image.arity())
            .map(|col| image.column(col).map(|c| (col, distinct_values(c))))
            .collect::<Result<_>>()?;
        *entry.distinct.write() = counts;
        self.bump_generation();
        Ok(())
    }

    /// Distinct-value estimate for one column: the recorded per-column
    /// count if any, else [`TableStats::distinct_keys`] for column 0 (the
    /// primary join key), else the relation cardinality (assume unique).
    pub fn column_distinct(&self, name: &str, column: usize) -> Result<u64> {
        let entry = self.entry(name)?;
        let recorded = entry.distinct.read().get(&column).copied();
        Ok(recorded.unwrap_or(if column == 0 {
            entry.stats.distinct_keys
        } else {
            entry.stats.cardinality
        }))
    }

    /// Names of all registered relations (unordered).
    pub fn names(&self) -> Vec<String> {
        self.entries.read().keys().cloned().collect()
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True if no relations are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

/// Exact number of distinct values in `column`. Dense columns are counted
/// over a sorted copy of the `i64` slice — no per-cell `Value` is built.
fn distinct_values(column: &Column) -> u64 {
    fn sorted_distinct<T: Ord + Copy>(values: &[T]) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len() as u64
    }
    match column {
        Column::Int(values) => sorted_distinct(values),
        Column::Ref(values) => sorted_distinct(values),
        Column::Val(values) => values.iter().collect::<HashSet<_>>().len() as u64,
    }
}

impl RelationProvider for Catalog {
    /// The relation's rows, rebuilt from its image in stored order.
    fn relation(&self, name: &str) -> Result<Arc<Relation>> {
        let entry = self.entry(name)?;
        let image: &ColumnBatch = &entry.image[0];
        let mut tuples = Vec::with_capacity(image.rows());
        image.rows_into(0..image.rows(), &mut tuples)?;
        Ok(Arc::new(Relation::new_unchecked(
            entry.schema.clone(),
            tuples,
        )))
    }

    fn schema(&self, name: &str) -> Result<Arc<Schema>> {
        Ok(self.entry(name)?.schema.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{PayloadMode, WisconsinGenerator};
    use mj_relalg::{Attribute, Tuple, Value};

    fn rel(n: i64) -> Arc<Relation> {
        let schema = Schema::new(vec![Attribute::int("k")]).shared();
        Arc::new(Relation::new(schema, (0..n).map(|v| Tuple::from_ints(&[v])).collect()).unwrap())
    }

    #[test]
    fn register_and_lookup() {
        let c = Catalog::new();
        assert!(c.is_empty());
        c.register("R", rel(10));
        assert_eq!(c.len(), 1);
        assert_eq!(c.relation("R").unwrap().len(), 10);
        assert_eq!(c.schema("R").unwrap().arity(), 1);
        assert_eq!(c.stats("R").unwrap().cardinality, 10);
        assert_eq!(c.stats("R").unwrap().distinct_keys, 10);
        assert!(c.relation("S").is_err());
        assert!(c.schema("S").is_err());
        assert!(c.stats("S").is_err());
    }

    #[test]
    fn register_new_rejects_duplicates() {
        let c = Catalog::new();
        c.register_new("R", rel(5)).unwrap();
        let err = c.register_new("R", rel(7)).unwrap_err();
        assert!(err.to_string().contains("already registered"), "{err}");
        // The original registration is untouched.
        assert_eq!(c.relation("R").unwrap().len(), 5);
    }

    #[test]
    fn explicit_stats_override() {
        let c = Catalog::new();
        c.register_with_stats(
            "R",
            rel(10),
            TableStats {
                cardinality: 10,
                distinct_keys: 3,
            },
        );
        assert_eq!(c.stats("R").unwrap().distinct_keys, 3);
    }

    #[test]
    fn column_stats_fall_back_to_table_stats() {
        let c = Catalog::new();
        c.register("R", rel(10));
        // No per-column entries: col 0 uses distinct_keys, others cardinality.
        assert_eq!(c.column_distinct("R", 0).unwrap(), 10);
        assert_eq!(c.column_distinct("R", 3).unwrap(), 10);
        c.set_column_distinct("R", 3, 4).unwrap();
        assert_eq!(c.column_distinct("R", 3).unwrap(), 4);
        assert!(c.column_distinct("missing", 0).is_err());
        assert!(c.set_column_distinct("missing", 0, 1).is_err());
    }

    #[test]
    fn analyze_counts_exact_distincts() {
        let c = Catalog::new();
        let schema = Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared();
        let tuples = (0..12).map(|i| Tuple::from_ints(&[i % 3, i])).collect();
        c.register("S", Arc::new(Relation::new(schema, tuples).unwrap()));
        c.analyze("S").unwrap();
        assert_eq!(c.column_distinct("S", 0).unwrap(), 3);
        assert_eq!(c.column_distinct("S", 1).unwrap(), 12);
    }

    #[test]
    fn a_replaced_relation_takes_its_distinct_counts_with_it() {
        let c = Catalog::new();
        let schema = Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared();
        let relation = |n: i64, keys: i64| {
            let tuples = (0..n).map(|i| Tuple::from_ints(&[i % keys, i])).collect();
            Arc::new(Relation::new(schema.clone(), tuples).unwrap())
        };
        c.register("R", relation(40, 20));
        c.analyze("R").unwrap();
        assert_eq!(c.column_distinct("R", 0).unwrap(), 20);
        let stats = TableStats {
            cardinality: 30,
            distinct_keys: 30,
        };
        c.register_with_stats("R", relation(30, 5), stats);
        // The old data's counts are gone: the fallback prices the new data.
        assert_eq!(c.column_distinct("R", 0).unwrap(), 30);
        assert_eq!(c.column_distinct("R", 1).unwrap(), 30);
        c.analyze("R").unwrap();
        assert_eq!(c.column_distinct("R", 0).unwrap(), 5);
        assert_eq!(c.column_distinct("R", 1).unwrap(), 30);
    }

    #[test]
    fn rows_survive_the_round_trip_through_the_image() {
        let ints = Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared();
        let mixed = Schema::new(vec![
            Attribute::int("id"),
            Attribute::str("name"),
            Attribute::int("n"),
        ])
        .shared();
        let named = |rows: i64| {
            let tuples = (0..rows)
                .map(|i| {
                    let name = format!("name-{}", (i * 7919) % 13);
                    Tuple::new(vec![Value::Int(i), Value::str(name), Value::Int(-i)])
                })
                .collect();
            Arc::new(Relation::new(mixed.clone(), tuples).unwrap())
        };
        let cases: Vec<(&str, Arc<Relation>)> = vec![
            (
                "wisconsin",
                Arc::new(WisconsinGenerator::new(500, 11).generate(0)),
            ),
            (
                "wisconsin-strings",
                Arc::new(
                    WisconsinGenerator::new(300, 12)
                        .with_payload(PayloadMode::Full)
                        .generate(1),
                ),
            ),
            ("mixed", named(200)),
            ("empty-ints", Arc::new(Relation::empty(ints.clone()))),
            ("empty-mixed", named(0)),
            (
                "one-row",
                Arc::new(Relation::new(ints.clone(), vec![Tuple::from_ints(&[7, -3])]).unwrap()),
            ),
        ];
        let c = Catalog::new();
        for (name, relation) in &cases {
            c.register(*name, relation.clone());
        }
        for (name, relation) in &cases {
            let back = c.relation(name).unwrap();
            assert_eq!(back.schema(), relation.schema(), "{name}: schema");
            assert_eq!(back.len(), relation.len(), "{name}: rows");
            assert!(
                back.iter().eq(relation.iter()),
                "{name}: same rows, same order"
            );
        }
    }

    #[test]
    fn generation_tracks_every_write_path() {
        let c = Catalog::new();
        let g0 = c.generation();
        c.register("R", rel(4));
        let g1 = c.generation();
        assert!(g1 > g0, "register bumps");
        c.register_new("S", rel(4)).unwrap();
        let g2 = c.generation();
        assert!(g2 > g1, "register_new bumps");
        // A *failed* register_new leaves the generation alone.
        assert!(c.register_new("S", rel(9)).is_err());
        assert_eq!(c.generation(), g2, "failed registration is not a write");
        c.set_column_distinct("R", 0, 2).unwrap();
        let g3 = c.generation();
        assert!(g3 > g2, "stat update bumps");
        c.analyze("R").unwrap();
        assert_eq!(c.generation(), g3 + 1, "analyze is exactly one write");
        let wide = Schema::new(vec![Attribute::int("a"), Attribute::int("b")]).shared();
        let rows = (0..4).map(|i| Tuple::from_ints(&[i, i % 2])).collect();
        c.register("W", Arc::new(Relation::new(wide, rows).unwrap()));
        let g4 = c.generation();
        c.analyze("W").unwrap();
        assert_eq!(
            c.generation(),
            g4 + 1,
            "one bump per analyze, not per column"
        );
        // Reads never move it.
        let g = c.generation();
        let _ = c.stats("R").unwrap();
        let _ = c.column_distinct("R", 0).unwrap();
        let _ = c.names();
        let _ = c.relation("R").unwrap();
        assert_eq!(c.generation(), g);
    }

    #[test]
    fn names_lists_everything() {
        let c = Catalog::new();
        c.register("A", rel(1));
        c.register("B", rel(2));
        let mut names = c.names();
        names.sort();
        assert_eq!(names, vec!["A", "B"]);
    }
}
