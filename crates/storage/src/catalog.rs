//! Catalog: named relations plus the statistics the phase-1 optimizer uses.

use mj_relalg::column::{Column, ColumnBatch};
use mj_relalg::{RelalgError, Relation, RelationProvider, Result};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::columnar::scan_columns;

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

/// A thread-safe catalog of named relations and their statistics.
#[derive(Debug, Default)]
pub struct Catalog {
    entries: RwLock<HashMap<String, (Arc<Relation>, TableStats)>>,
    /// Distinct-value counts per (relation, column) — what the planner's
    /// selectivity formula `1 / max(d_left, d_right)` runs on. Columns
    /// without an entry fall back to [`TableStats`].
    column_distinct: RwLock<HashMap<(String, usize), u64>>,
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
        let stats = TableStats::unique_key(relation.len() as u64);
        let mut entries = self.entries.write();
        if entries.contains_key(&name) {
            return Err(RelalgError::InvalidPlan(format!(
                "relation `{name}` is already registered"
            )));
        }
        entries.insert(name, (relation, stats));
        drop(entries);
        self.bump_generation();
        Ok(())
    }

    /// Registers a relation with explicit statistics (e.g. skewed keys).
    pub fn register_with_stats(
        &self,
        name: impl Into<String>,
        relation: Arc<Relation>,
        stats: TableStats,
    ) {
        self.entries.write().insert(name.into(), (relation, stats));
        self.bump_generation();
    }

    /// The statistics recorded for `name`.
    pub fn stats(&self, name: &str) -> Result<TableStats> {
        self.entries
            .read()
            .get(name)
            .map(|(_, s)| *s)
            .ok_or_else(|| RelalgError::UnknownRelation(name.to_string()))
    }

    /// Records the distinct-value count of one column of `name`.
    pub fn set_column_distinct(&self, name: impl Into<String>, column: usize, distinct: u64) {
        self.column_distinct
            .write()
            .insert((name.into(), column), distinct);
        self.bump_generation();
    }

    /// Scans the relation and records exact distinct counts for every
    /// column — O(rows × columns); meant for generated/benchmark data, not
    /// for production-size loads. One catalog write: the generation moves
    /// once, however many columns the relation has.
    pub fn analyze(&self, name: &str) -> Result<()> {
        let relation = self.relation(name)?;
        let image = scan_columns(&relation)?;
        self.analyze_columns(name, &image)
    }

    /// [`analyze`](Self::analyze) over an already-built columnar image of
    /// `name` (callers holding a fragment cache pass its resident image, so
    /// the relation is converted once for statistics and execution alike).
    pub fn analyze_columns(&self, name: &str, image: &ColumnBatch) -> Result<()> {
        let counts = (0..image.arity())
            .map(|col| image.column(col).map(distinct_values))
            .collect::<Result<Vec<u64>>>()?;
        let mut distinct = self.column_distinct.write();
        for (col, count) in counts.into_iter().enumerate() {
            distinct.insert((name.to_string(), col), count);
        }
        drop(distinct);
        self.bump_generation();
        Ok(())
    }

    /// Distinct-value estimate for one column: the recorded per-column
    /// count if any, else [`TableStats::distinct_keys`] for column 0 (the
    /// primary join key), else the relation cardinality (assume unique).
    pub fn column_distinct(&self, name: &str, column: usize) -> Result<u64> {
        if let Some(d) = self.column_distinct.read().get(&(name.to_string(), column)) {
            return Ok(*d);
        }
        let stats = self.stats(name)?;
        Ok(if column == 0 {
            stats.distinct_keys
        } else {
            stats.cardinality
        })
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
    fn relation(&self, name: &str) -> Result<Arc<Relation>> {
        self.entries
            .read()
            .get(name)
            .map(|(r, _)| r.clone())
            .ok_or_else(|| RelalgError::UnknownRelation(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::{Attribute, Schema, Tuple};

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
        assert_eq!(c.stats("R").unwrap().cardinality, 10);
        assert_eq!(c.stats("R").unwrap().distinct_keys, 10);
        assert!(c.relation("S").is_err());
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
        c.set_column_distinct("R", 3, 4);
        assert_eq!(c.column_distinct("R", 3).unwrap(), 4);
        assert!(c.column_distinct("missing", 0).is_err());
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
        c.set_column_distinct("R", 0, 2);
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
