//! Catalog: named relations, each stored once as its columnar image, plus
//! the statistics the phase-1 optimizer uses. [`Catalog::register`] is
//! the load; an entry *is* the relation (schema, image, statistics, and
//! what queries built on the image, see [`cache`](crate::cache)), so a
//! replaced relation takes all of it along. An entry's distinct counts
//! come from its image alone: counted exactly, once, on first use (or when
//! [`Catalog::analyze`] asks), and never set by hand. Rows are rebuilt
//! from the image only where rows are the point
//! ([`RelationProvider::relation`]).

use mj_relalg::column::{Column, ColumnBatch};
use mj_relalg::{RelalgError, Relation, RelationProvider, Result, Schema};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

use crate::cache::{Resident, ResidentStats};
use crate::columnar::{scan_columns, Fragments};

/// Locks a std mutex, tolerating poison: with [`read`] and [`write`], the
/// one way this crate locks. Every update under these locks is a single
/// insert, removal or counter step, so what a panicked holder left is
/// whole, and one panicked query must not fail every later lookup.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for the shared side of a std reader-writer lock.
pub(crate) fn read<T>(rw: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rw.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for the exclusive side of a std reader-writer lock.
pub(crate) fn write<T>(rw: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rw.write().unwrap_or_else(PoisonError::into_inner)
}

/// Optimizer-visible statistics for a base relation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TableStats {
    /// Tuple count.
    pub cardinality: u64,
}

/// One stored relation.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) schema: Arc<Schema>,
    pub(crate) stats: TableStats,
    /// The whole relation as one columnar fragment: every variant is
    /// partitioned from it, and late materialization pins it by refcount.
    pub(crate) image: Fragments,
    /// Exact distinct-value count of every column of the image — what the
    /// planner's selectivity formula `1 / max(d_left, d_right)` runs on.
    /// Counted once, by whichever reader comes first.
    distinct: OnceLock<Vec<u64>>,
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
            distinct: OnceLock::new(),
            resident: Mutex::new(Resident::default()),
        })
    }

    /// The distinct counts by column, counted over the image on first use.
    fn distinct(&self) -> &[u64] {
        self.distinct.get_or_init(|| {
            let image = &self.image[0];
            (0..image.arity())
                .map(|col| distinct_values(image.column(col).expect("a column of the image")))
                .collect()
        })
    }
}

/// A thread-safe catalog of named relations and their statistics.
#[derive(Debug, Default)]
pub struct Catalog {
    pub(crate) entries: RwLock<HashMap<String, Arc<Entry>>>,
    pub(crate) counters: Mutex<ResidentStats>,
    /// Monotonic mutation counter: bumped by every registration
    /// (`register*`). Cached query plans record the generation they were
    /// built against and must be re-validated when it moves — a stale
    /// plan never runs against a changed catalog.
    generation: AtomicU64,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The current mutation generation. Every registration advances it;
    /// plan caches compare generations to detect staleness. Counting
    /// distinct values is not a write: the counts are a function of the
    /// image.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// The entry registered under `name` now.
    pub(crate) fn entry(&self, name: &str) -> Result<Arc<Entry>> {
        read(&self.entries)
            .get(name)
            .cloned()
            .ok_or_else(|| RelalgError::UnknownRelation(name.to_string()))
    }

    /// Registers a relation; its cardinality is its length.
    pub fn register(&self, name: impl Into<String>, relation: Arc<Relation>) {
        let stats = TableStats {
            cardinality: relation.len() as u64,
        };
        self.register_with_stats(name, relation, stats);
    }

    /// Registers a relation, erroring if the name is already taken. The
    /// check-and-insert is atomic under the catalog's write lock, so
    /// concurrent sessions cannot silently overwrite each other — the
    /// session front door's duplicate guard.
    pub fn register_new(&self, name: impl Into<String>, relation: Arc<Relation>) -> Result<()> {
        let name = name.into();
        let stats = TableStats {
            cardinality: relation.len() as u64,
        };
        let entry = Entry::load(&relation, stats)?;
        let mut entries = write(&self.entries);
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

    /// Registers a relation under a cardinality other than its length —
    /// how a test plans from an estimate that is off. A relation already
    /// registered under `name` is replaced, and its image, counts,
    /// variants and tables are evicted with its entry.
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
        let replaced = write(&self.entries).insert(name.into(), Arc::new(entry));
        self.bump_generation();
        if let Some(old) = replaced {
            let sets = lock(&old.resident).sets();
            lock(&self.counters).evictions += sets;
        }
    }

    /// The statistics recorded for `name`.
    pub fn stats(&self, name: &str) -> Result<TableStats> {
        Ok(self.entry(name)?.stats)
    }

    /// Counts the exact distinct values of every column of `name` now,
    /// if no reader has yet — O(rows × columns), so a load pays it up
    /// front rather than the first query that binds the relation. Not a
    /// write: the generation stays.
    pub fn analyze(&self, name: &str) -> Result<()> {
        self.entry(name)?.distinct();
        Ok(())
    }

    /// The exact number of distinct values in one column of `name`,
    /// counted over its image (every column at once, on first use). A
    /// column the relation does not have is an error.
    pub fn column_distinct(&self, name: &str, column: usize) -> Result<u64> {
        let entry = self.entry(name)?;
        let counts = entry.distinct();
        counts
            .get(column)
            .copied()
            .ok_or(RelalgError::IndexOutOfBounds {
                index: column,
                arity: counts.len(),
            })
    }

    /// Names of all registered relations (unordered).
    pub fn names(&self) -> Vec<String> {
        read(&self.entries).keys().cloned().collect()
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        read(&self.entries).len()
    }

    /// True if no relations are registered.
    pub fn is_empty(&self) -> bool {
        read(&self.entries).is_empty()
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
    fn locks_poisoned_by_a_panicking_holder_still_lock_read_and_write() {
        let (mutex, rw) = (Mutex::new(1), RwLock::new(vec![1]));
        let held = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guards = (lock(&mutex), write(&rw));
            panic!("the holder panics");
        }));
        assert!(held.is_err() && mutex.is_poisoned() && rw.is_poisoned());
        *lock(&mutex) += 1;
        write(&rw).push(2);
        assert_eq!((*lock(&mutex), read(&rw).clone()), (2, vec![1, 2]));
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
        assert_eq!(c.column_distinct("R", 0).unwrap(), 10);
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

    /// `(k, v)` rows `(i % keys, i)` for `i` in `0..n`.
    fn keyed(n: i64, keys: i64) -> Arc<Relation> {
        let schema = Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared();
        let tuples = (0..n).map(|i| Tuple::from_ints(&[i % keys, i])).collect();
        Arc::new(Relation::new(schema, tuples).unwrap())
    }

    #[test]
    fn explicit_stats_override() {
        let c = Catalog::new();
        c.register_with_stats("R", keyed(12, 3), TableStats { cardinality: 50 });
        assert_eq!(c.stats("R").unwrap().cardinality, 50);
        assert_eq!(c.column_distinct("R", 0).unwrap(), 3);
        assert_eq!(c.column_distinct("R", 1).unwrap(), 12);
    }

    #[test]
    fn counts_are_exact_without_analyze() {
        let c = Catalog::new();
        c.register("S", keyed(12, 3));
        assert_eq!(c.column_distinct("S", 0).unwrap(), 3);
        assert_eq!(c.column_distinct("S", 1).unwrap(), 12);
        // Analyzing afterwards counts nothing new.
        c.analyze("S").unwrap();
        assert_eq!(c.column_distinct("S", 0).unwrap(), 3);
        assert!(c.column_distinct("missing", 0).is_err());
        assert!(c.analyze("missing").is_err());
    }

    #[test]
    fn a_column_the_relation_lacks_is_an_error() {
        let c = Catalog::new();
        let schema = Schema::new(vec![
            Attribute::int("a"),
            Attribute::int("b"),
            Attribute::int("id"),
        ])
        .shared();
        let tuples = (0..50)
            .map(|i| Tuple::from_ints(&[i % 7, i % 5, i]))
            .collect();
        c.register("R0", Arc::new(Relation::new(schema, tuples).unwrap()));
        assert_eq!(c.column_distinct("R0", 2).unwrap(), 50);
        for column in [3, 99] {
            let err = c.column_distinct("R0", column).unwrap_err();
            assert_eq!(
                err,
                RelalgError::IndexOutOfBounds {
                    index: column,
                    arity: 3
                }
            );
        }
    }

    #[test]
    fn analyze_counts_exact_distincts() {
        let c = Catalog::new();
        c.register("S", keyed(12, 3));
        c.analyze("S").unwrap();
        assert_eq!(c.column_distinct("S", 0).unwrap(), 3);
        assert_eq!(c.column_distinct("S", 1).unwrap(), 12);
    }

    #[test]
    fn concurrent_first_readers_all_see_the_exact_count() {
        let c = Catalog::new();
        c.register("R", keyed(20_000, 37));
        let start = std::sync::Barrier::new(8);
        let counts: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let k = c.column_distinct("R", 0).unwrap();
                        (k, c.column_distinct("R", 1).unwrap())
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(counts, vec![(37, 20_000); 8]);
    }

    #[test]
    fn a_replaced_relation_takes_its_distinct_counts_with_it() {
        let c = Catalog::new();
        c.register("R", keyed(40, 20));
        c.analyze("R").unwrap();
        assert_eq!(c.column_distinct("R", 0).unwrap(), 20);
        c.register("R", keyed(30, 5));
        // The new image is counted afresh, analyzed or not.
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
        // Counting distinct values is no write: plans stay cached.
        c.analyze("R").unwrap();
        assert_eq!(c.generation(), g2, "analyze leaves the generation");
        c.register("R", rel(6));
        assert!(c.generation() > g2, "replacing a relation bumps");
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
