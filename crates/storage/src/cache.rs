//! Resident columnar fragments of base relations.
//!
//! The paper's response time starts with the base relations *already*
//! fragmented over the processors ("ideal fragmentation", §4.1 — PRISMA
//! stores them that way). [`FragmentCache`] is that resident state: it maps
//! `(relation name, key column, degree)` to the hash-partitioned columnar
//! fragments of the relation, so a query's set-up is a lookup per base
//! operand instead of a hash pass, a gather and a row→column conversion.
//!
//! **Key and soundness.** Two operands of a join may only read stored
//! partitionings that agree on key, hash function and degree; the hash is
//! the workspace-wide [`bucket_of`](mj_relalg::hash::bucket_of), so
//! `(key column, degree)` is the rest of the key. Degree 1 is the whole
//! relation as one columnar image — every finer variant is partitioned
//! *from* it, and late materialization pins it by refcount.
//!
//! **Validation.** An entry keeps the `Arc<Relation>` it was built from and
//! serves a lookup only if that is [`Arc::ptr_eq`] with the relation the
//! caller resolved *now*. This is exact for any
//! [`RelationProvider`](mj_relalg::RelationProvider), and immune to address
//! reuse because the entry itself keeps the old allocation alive. Updating
//! statistics does not evict; replacing the relation under its name always
//! does, at the next lookup of that name.
//!
//! **Tables.** The paper's RD strategy builds a hash table on a base
//! relation at every join of a right-deep segment, and the relation does
//! not change between queries, so neither does the table.
//! [`FragmentCache::tables`] keeps one join table per fragment, indexed on
//! the key column asked for: a partitioned variant holds the table set of
//! its own key, the image one set per key column, since it serves every
//! key. A table indexes its fragment where it lies (the table's rows *are*
//! the fragment), so only the index is extra. Table sets are built lazily,
//! on the first lookup, and live and die with their fragments: validated,
//! touched and evicted together, never served for a replaced relation.
//!
//! **Bound.** Per relation the cache holds the image plus at most
//! [`MAX_VARIANTS_PER_RELATION`] partitioned variants, least recently used
//! evicted first, and the index of every table set built on them: about
//! 4 B per bucket plus 4 B per row (buckets are the next power of two
//! above 8/7 of the rows, so 9–13 B per row against a three-column
//! fragment's 24). Misses are built outside the lock and inserted if
//! absent, so concurrent queries missing the same key end up sharing one
//! copy, of fragments and of tables alike.

use std::collections::HashMap;
use std::ptr;
use std::sync::{Arc, Weak};

use mj_join::ColumnarTable;
use mj_relalg::column::ColumnBatch;
use mj_relalg::{Relation, Result};
use parking_lot::Mutex;

use crate::columnar::{fragment_columns, scan_columns, Fragments};

/// Partitioned variants kept per relation, beside its whole-relation image.
///
/// A relation takes part in a query through one join key per leaf and a
/// chain or star joins it on at most two distinct columns; the planner's
/// grain rule gives an operand one of a few degrees for a given worker
/// count. Four variants hold two key columns at two degrees each, so a
/// steady workload never evicts, while the cache stays bounded by
/// `(1 + 4) ×` the relation's columnar size — 8 bytes per integer value,
/// about a third of the row form the catalog already holds (a three-column
/// [`Tuple`](mj_relalg::Tuple) row is 72 bytes): at most ~1.7× the catalog's
/// own bytes, in practice (one variant per relation) ~0.7× — plus the join
/// index of each fragment set a simple join builds on (module docs).
pub const MAX_VARIANTS_PER_RELATION: usize = 4;

/// Join tables over a fragment set, one per fragment in fragment order:
/// table `i` indexes fragment `i` where it lies ([`ColumnarTable::index`]),
/// so its [`rows`](ColumnarTable::rows) *is* that fragment.
pub type Tables = Arc<[Arc<ColumnarTable>]>;

/// Counters of a [`FragmentCache`], read under its lock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FragmentCacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to build: cold keys, evicted variants, and
    /// relations replaced since the entry was built.
    pub misses: u64,
    /// Cached fragment sets dropped: variants past the per-relation cap,
    /// and every set (image included) of a replaced relation. Their tables
    /// go with them.
    pub evictions: u64,
    /// Logical bytes resident: images and variants, plus the index of
    /// every resident table.
    pub bytes: u64,
    /// Row→column conversions performed ([`scan_columns`]): one per image
    /// built. A warm query adds none.
    pub images_built: u64,
    /// Table sets built ([`tables`](FragmentCache::tables)): one per
    /// fragment set and key column a simple join first built on. A warm
    /// query adds none.
    pub tables_built: u64,
}

/// A batch set an earlier lookup returned, held weakly to be served again
/// ([`FragmentCache::touch`]). The weak handle keeps the set's allocation,
/// though not its batches, so its address names that set and no other.
#[derive(Clone, Copy)]
pub enum Held<'a> {
    /// What [`FragmentCache::fragments`] returned.
    Fragments(&'a Weak<[Arc<ColumnBatch>]>),
    /// What [`FragmentCache::tables`] returned.
    Tables(&'a Weak<[Arc<ColumnarTable>]>),
}

struct Variant {
    key_col: usize,
    degree: usize,
    fragments: Fragments,
    /// Tables over `fragments` on `key_col`, once a lookup asked for them.
    tables: Option<Tables>,
}

struct Entry {
    /// The relation every batch below was built from.
    source: Arc<Relation>,
    /// The whole-relation image (one fragment).
    whole: Fragments,
    /// Tables over the image, by key column: the image serves every key.
    whole_tables: Vec<Option<Tables>>,
    /// Partitioned variants, least recently used first.
    variants: Vec<Variant>,
}

impl Entry {
    /// Where the tables over `fragments` on `key_col` are kept; `None`
    /// once those fragments are no longer this entry's.
    fn tables_slot(
        &mut self,
        fragments: &Fragments,
        key_col: usize,
    ) -> Option<&mut Option<Tables>> {
        if Arc::ptr_eq(&self.whole, fragments) {
            if self.whole_tables.len() <= key_col {
                self.whole_tables.resize(key_col + 1, None);
            }
            return Some(&mut self.whole_tables[key_col]);
        }
        let variant = self
            .variants
            .iter_mut()
            .find(|v| Arc::ptr_eq(&v.fragments, fragments));
        variant.map(|v| &mut v.tables)
    }

    /// Where `held` sits in this entry, if it still does: `Some(None)` in
    /// the image, `Some(Some(at))` in variant `at`.
    fn position(&self, held: Held<'_>) -> Option<Option<usize>> {
        match held {
            Held::Fragments(held) => {
                let same = |f: &Fragments| ptr::addr_eq(Arc::as_ptr(f), held.as_ptr());
                if same(&self.whole) {
                    return Some(None);
                }
                self.variants
                    .iter()
                    .position(|v| same(&v.fragments))
                    .map(Some)
            }
            Held::Tables(held) => {
                let same = |t: &Option<Tables>| {
                    t.as_ref()
                        .is_some_and(|t| ptr::addr_eq(Arc::as_ptr(t), held.as_ptr()))
                };
                if self.whole_tables.iter().any(same) {
                    return Some(None);
                }
                self.variants.iter().position(|v| same(&v.tables)).map(Some)
            }
        }
    }

    fn bytes(&self) -> u64 {
        let image_tables = self.whole_tables.iter().flatten().map(index_bytes);
        let image = bytes_of(&self.whole) + image_tables.sum::<u64>();
        self.variants.iter().map(Variant::bytes).sum::<u64>() + image
    }
}

impl Variant {
    fn bytes(&self) -> u64 {
        bytes_of(&self.fragments) + self.tables.as_ref().map_or(0, index_bytes)
    }
}

fn bytes_of(fragments: &Fragments) -> u64 {
    fragments.iter().map(|f| f.est_bytes()).sum()
}

/// The index bytes of `tables`; their rows are counted as fragments.
fn index_bytes(tables: &Tables) -> u64 {
    tables.iter().map(|t| t.index_bytes() as u64).sum()
}

#[derive(Default)]
struct State {
    entries: HashMap<String, Entry>,
    stats: FragmentCacheStats,
}

impl State {
    /// The entry of `name`, if it was built from `source`.
    fn entry(&mut self, name: &str, source: &Arc<Relation>) -> Option<&mut Entry> {
        let entry = self.entries.get_mut(name)?;
        Arc::ptr_eq(&entry.source, source).then_some(entry)
    }
}

/// Shared, bounded cache of columnar base-relation fragments (see the
/// module docs).
#[derive(Default)]
pub struct FragmentCache {
    state: Mutex<State>,
}

impl FragmentCache {
    /// An empty cache.
    pub fn new() -> Self {
        FragmentCache::default()
    }

    /// A consistent snapshot of the counters.
    pub fn stats(&self) -> FragmentCacheStats {
        self.state.lock().stats
    }

    /// The columnar image of `source`, registered under `name`, and
    /// whether it was resident.
    pub fn image(&self, name: &str, source: &Arc<Relation>) -> Result<(Arc<ColumnBatch>, bool)> {
        let (whole, hit) = self.fragments(name, source, 0, 1)?;
        Ok((whole[0].clone(), hit))
    }

    /// The `degree` hash fragments of `source` on integer column
    /// `key_col` — fragment `i` holds exactly the rows whose key has
    /// `bucket_of(key, degree) == i` — and whether they were resident.
    /// `source` must be what the provider serves under `name` *now*: an
    /// entry built from any other allocation is replaced, never served.
    pub fn fragments(
        &self,
        name: &str,
        source: &Arc<Relation>,
        key_col: usize,
        degree: usize,
    ) -> Result<(Fragments, bool)> {
        let resident_image = {
            let mut state = self.state.lock();
            let State { entries, stats } = &mut *state;
            match entries.get_mut(name) {
                Some(entry) if Arc::ptr_eq(&entry.source, source) => {
                    if degree == 1 {
                        stats.hits += 1;
                        return Ok((entry.whole.clone(), true));
                    }
                    let found = entry
                        .variants
                        .iter()
                        .position(|v| v.key_col == key_col && v.degree == degree);
                    if let Some(at) = found {
                        let variant = entry.variants.remove(at);
                        let fragments = variant.fragments.clone();
                        entry.variants.push(variant);
                        stats.hits += 1;
                        return Ok((fragments, true));
                    }
                    Some(entry.whole.clone())
                }
                _ => None,
            }
        };

        // Miss: convert and partition without holding the lock.
        let built_image = resident_image.is_none();
        let whole: Fragments = match resident_image {
            Some(whole) => whole,
            None => Arc::from([Arc::new(scan_columns(source)?)]),
        };
        let built = fragment_columns(&whole[0], key_col, degree)?;

        let mut state = self.state.lock();
        let State { entries, stats } = &mut *state;
        stats.misses += 1;
        stats.images_built += built_image as u64;
        if !entries
            .get(name)
            .is_some_and(|e| Arc::ptr_eq(&e.source, source))
        {
            stats.bytes += bytes_of(&whole);
            let fresh = Entry {
                source: source.clone(),
                whole,
                whole_tables: Vec::new(),
                variants: Vec::new(),
            };
            if let Some(stale) = entries.insert(name.to_string(), fresh) {
                stats.evictions += 1 + stale.variants.len() as u64;
                stats.bytes -= stale.bytes();
            }
        }
        let entry = entries.get_mut(name).expect("validated or inserted above");
        if degree == 1 {
            return Ok((entry.whole.clone(), false));
        }
        // Insert if absent: a concurrent miss on the same key that got
        // here first wins, and this caller adopts its copy.
        if let Some(winner) = entry
            .variants
            .iter()
            .find(|v| v.key_col == key_col && v.degree == degree)
        {
            return Ok((winner.fragments.clone(), false));
        }
        if entry.variants.len() == MAX_VARIANTS_PER_RELATION {
            let evicted = entry.variants.remove(0);
            stats.evictions += 1;
            stats.bytes -= evicted.bytes();
        }
        stats.bytes += bytes_of(&built);
        entry.variants.push(Variant {
            key_col,
            degree,
            fragments: built.clone(),
            tables: None,
        });
        Ok((built, false))
    }

    /// Join tables on integer column `key_col` over the `degree` fragments
    /// [`fragments`](Self::fragments) returns — table `i` indexes fragment
    /// `i` — and whether they were resident. The lookup is a fragment
    /// lookup first (validated, counted and touched like one); tables are
    /// built on its first use and then kept with those fragments, evicted
    /// with them.
    pub fn tables(
        &self,
        name: &str,
        source: &Arc<Relation>,
        key_col: usize,
        degree: usize,
    ) -> Result<(Tables, bool)> {
        let (fragments, _) = self.fragments(name, source, key_col, degree)?;
        {
            let mut state = self.state.lock();
            let entry = state.entry(name, source);
            let slot = entry.and_then(|e| e.tables_slot(&fragments, key_col));
            if let Some(Some(tables)) = slot {
                return Ok((tables.clone(), true));
            }
        }

        // Miss: index without holding the lock.
        let built: Tables = fragments
            .iter()
            .map(|fragment| {
                let mut table = ColumnarTable::new();
                table.index(fragment, key_col, 0..fragment.rows())?;
                Ok(Arc::new(table))
            })
            .collect::<Result<_>>()?;

        let mut state = self.state.lock();
        state.stats.tables_built += 1;
        let entry = state.entry(name, source);
        // Gone: the fragments were evicted or their relation replaced in
        // the meantime, so the tables stay this caller's.
        let Some(slot) = entry.and_then(|e| e.tables_slot(&fragments, key_col)) else {
            return Ok((built, false));
        };
        // Insert if absent, as for fragments.
        if let Some(winner) = slot {
            return Ok((winner.clone(), false));
        }
        *slot = Some(built.clone());
        state.stats.bytes += index_bytes(&built);
        Ok((built, false))
    }

    /// Marks batch sets that earlier lookups returned used again, each
    /// named by the relation it was looked up under: if every one is still
    /// resident, each counts as a hit and as a use of its variant (the LRU
    /// order), exactly as the lookup that returned it would, and this
    /// returns true. Otherwise it counts nothing and returns false, and the
    /// caller looks them up again: a set that was evicted or replaced is
    /// never served, even while something else keeps it alive. Unlike a
    /// lookup it does not check which relation the provider serves under
    /// the name now: that is the caller's to vouch for (a prepared
    /// statement's catalog generation does).
    pub fn touch<'a>(&self, held: impl IntoIterator<Item = (&'a str, Held<'a>)>) -> bool {
        let mut state = self.state.lock();
        let State { entries, stats } = &mut *state;
        let mut touched = 0;
        for (name, set) in held {
            let Some(entry) = entries.get_mut(name) else {
                return false;
            };
            match entry.position(set) {
                None => return false,
                // Marking a variant used before finding that another one
                // is gone only ages the cache's LRU order a little.
                Some(Some(at)) => {
                    let variant = entry.variants.remove(at);
                    entry.variants.push(variant);
                }
                Some(None) => {}
            }
            touched += 1;
        }
        stats.hits += touched;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::hash::bucket_of;
    use mj_relalg::{Attribute, Schema, Tuple};
    use std::sync::Barrier;

    fn rel(n: i64) -> Arc<Relation> {
        let schema = Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared();
        Arc::new(Relation::new_unchecked(
            schema,
            (0..n).map(|k| Tuple::from_ints(&[k, k % 7])).collect(),
        ))
    }

    fn rows_sorted(fragments: &Fragments) -> Vec<Tuple> {
        let mut rows = Vec::new();
        for f in fragments.iter() {
            f.rows_into(0..f.rows(), &mut rows).unwrap();
        }
        rows.sort();
        rows
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_batches() {
        let cache = FragmentCache::new();
        let r = rel(100);
        let (cold, hit) = cache.fragments("R", &r, 0, 3).unwrap();
        assert!(!hit);
        let (warm, hit) = cache.fragments("R", &r, 0, 3).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&cold, &warm));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.images_built), (1, 1, 1));
        // Image plus one variant of the same rows.
        assert_eq!(stats.bytes, 2 * 100 * 16);
        // The image was built by the variant's miss: reading it is a hit.
        let (_, hit) = cache.image("R", &r).unwrap();
        assert!(hit);
        assert_eq!(cache.stats().images_built, 1);
    }

    #[test]
    fn variants_partition_by_the_canonical_hash_and_hold_the_same_rows() {
        let cache = FragmentCache::new();
        let r = rel(500);
        let (image, _) = cache.image("R", &r).unwrap();
        let whole: Fragments = Arc::from([image]);
        for (key_col, degree) in [(0, 2), (0, 5), (1, 3), (1, 1)] {
            let (fragments, _) = cache.fragments("R", &r, key_col, degree).unwrap();
            assert_eq!(fragments.len(), degree);
            if degree > 1 {
                for (i, f) in fragments.iter().enumerate() {
                    for &k in f.int_col(key_col).unwrap() {
                        assert_eq!(bucket_of(k, degree), i, "col {key_col} / {degree}");
                    }
                }
            }
            assert_eq!(rows_sorted(&fragments), rows_sorted(&whole));
        }
    }

    #[test]
    fn least_recently_used_variant_is_evicted_past_the_cap() {
        let cache = FragmentCache::new();
        let r = rel(64);
        for degree in 2..2 + MAX_VARIANTS_PER_RELATION {
            cache.fragments("R", &r, 0, degree).unwrap();
        }
        // Touch the oldest so the second oldest becomes the victim.
        assert!(cache.fragments("R", &r, 0, 2).unwrap().1);
        let full = cache.stats().bytes;
        cache.fragments("R", &r, 1, 2).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.bytes, full, "one variant out, one of equal size in");
        assert!(cache.fragments("R", &r, 0, 2).unwrap().1, "touched: kept");
        assert!(
            !cache.fragments("R", &r, 0, 3).unwrap().1,
            "victim: rebuilt"
        );
        assert_eq!(cache.stats().images_built, 1, "the image is never evicted");
    }

    #[test]
    fn a_replaced_relation_is_never_served_from_the_old_entry() {
        let cache = FragmentCache::new();
        let old = rel(10);
        cache.fragments("R", &old, 0, 2).unwrap();
        // Same contents, different allocation: still a different relation.
        let new = rel(10);
        let (fragments, hit) = cache.fragments("R", &new, 0, 2).unwrap();
        assert!(!hit);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 2, "the old image and its variant");
        assert_eq!(stats.bytes, 2 * 10 * 16);
        assert_eq!(fragments.iter().map(|f| f.rows()).sum::<usize>(), 10);
        // A caller still holding the old relation rebuilds too.
        assert!(!cache.fragments("R", &old, 0, 2).unwrap().1);
        assert!(!cache.fragments("R", &new, 0, 2).unwrap().1);
    }

    #[test]
    fn two_threads_missing_the_same_key_agree() {
        let cache = FragmentCache::new();
        let r = rel(2000);
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let miss = || {
                barrier.wait();
                cache.fragments("R", &r, 0, 4).unwrap().0
            };
            let a = scope.spawn(miss);
            let b = scope.spawn(miss);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b), "the loser adopts the winner's copy");
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 2);
        assert_eq!(stats.bytes, 2 * 2000 * 16, "one image, one variant");
    }

    /// Every `(build row, probe row)` match of `probe` in `table`, sorted.
    fn matches(table: &ColumnarTable, probe: &[i64]) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        table.probe_into(probe, 0..probe.len(), &mut pairs);
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn a_second_table_lookup_shares_the_tables_and_they_index_the_fragments() {
        let cache = FragmentCache::new();
        let r = rel(300);
        let (cold, hit) = cache.tables("R", &r, 0, 3).unwrap();
        assert!(!hit);
        let (warm, hit) = cache.tables("R", &r, 0, 3).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&cold, &warm));
        let (fragments, hit) = cache.fragments("R", &r, 0, 3).unwrap();
        assert!(hit);
        for (table, fragment) in warm.iter().zip(fragments.iter()) {
            assert!(
                std::ptr::eq(table.rows(), &**fragment),
                "no copy of the rows"
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.tables_built, stats.images_built), (1, 1));
        // Three lookups of the variant: the first two through `tables`.
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn each_table_holds_its_bucket_and_probes_like_a_fresh_index() {
        let cache = FragmentCache::new();
        let r = rel(700);
        let probe: Vec<i64> = (-5..720).collect();
        for (key_col, degree) in [(0, 3), (1, 2), (0, 1), (1, 4)] {
            let (tables, _) = cache.tables("R", &r, key_col, degree).unwrap();
            let (fragments, _) = cache.fragments("R", &r, key_col, degree).unwrap();
            assert_eq!(tables.len(), degree);
            for (i, (table, fragment)) in tables.iter().zip(fragments.iter()).enumerate() {
                assert_eq!((table.len(), table.key_col()), (fragment.rows(), key_col));
                for &k in table.rows().int_col(key_col).unwrap() {
                    assert_eq!(bucket_of(k, degree), i, "col {key_col} / {degree}");
                }
                let mut fresh = ColumnarTable::new();
                fresh.index(fragment, key_col, 0..fragment.rows()).unwrap();
                assert_eq!(matches(table, &probe), matches(&fresh, &probe));
                assert_eq!(table.est_bytes(), fresh.est_bytes());
            }
        }
    }

    #[test]
    fn the_image_keeps_one_table_set_per_key_column() {
        let cache = FragmentCache::new();
        let r = rel(200);
        let (image, _) = cache.image("R", &r).unwrap();
        let before = cache.stats().bytes;
        let (on_k, hit) = cache.tables("R", &r, 0, 1).unwrap();
        assert!(!hit);
        let (on_v, hit) = cache.tables("R", &r, 1, 1).unwrap();
        assert!(!hit, "another key column is another table set");
        assert!(!Arc::ptr_eq(&on_k, &on_v));
        for (tables, key_col) in [(&on_k, 0), (&on_v, 1)] {
            assert_eq!(tables.len(), 1);
            assert!(std::ptr::eq(tables[0].rows(), &*image));
            assert_eq!(tables[0].key_col(), key_col);
            let (again, hit) = cache.tables("R", &r, key_col, 1).unwrap();
            assert!(hit && Arc::ptr_eq(tables, &again));
        }
        let stats = cache.stats();
        assert_eq!(stats.tables_built, 2);
        let index = (on_k[0].index_bytes() + on_v[0].index_bytes()) as u64;
        assert_eq!(stats.bytes, before + index, "only the index is extra");
    }

    #[test]
    fn two_threads_missing_the_same_tables_share_one_set() {
        let cache = FragmentCache::new();
        let r = rel(2000);
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let miss = || {
                barrier.wait();
                cache.tables("R", &r, 0, 4).unwrap().0
            };
            let a = scope.spawn(miss);
            let b = scope.spawn(miss);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b), "the loser adopts the winner's set");
        let index: u64 = a.iter().map(|t| t.index_bytes() as u64).sum();
        assert_eq!(
            cache.stats().bytes,
            2 * 2000 * 16 + index,
            "one set resident"
        );
    }

    #[test]
    fn tables_are_evicted_with_their_fragments_and_never_outlive_a_relation() {
        let cache = FragmentCache::new();
        let r = rel(64);
        cache.fragments("R", &r, 0, 2).unwrap();
        let without = cache.stats().bytes;
        // Built on the oldest variant, which the lookup touches.
        let (tables, _) = cache.tables("R", &r, 0, 2).unwrap();
        let added = cache.stats().bytes - without;
        assert_eq!(added, tables.iter().map(|t| t.index_bytes() as u64).sum());
        assert!(added > 0);
        for degree in 3..2 + MAX_VARIANTS_PER_RELATION {
            cache.fragments("R", &r, 0, degree).unwrap();
        }
        let full = cache.stats().bytes;
        // A fifth variant of equal size evicts degree 2, tables and all.
        cache.fragments("R", &r, 1, 2).unwrap();
        assert_eq!(cache.stats().bytes, full - added);
        let (rebuilt, hit) = cache.tables("R", &r, 0, 2).unwrap();
        assert!(!hit && !Arc::ptr_eq(&rebuilt, &tables));
        assert_eq!(cache.stats().tables_built, 2);

        // Replacing the relation drops every table set with its entry.
        let old = rel(10);
        cache.tables("R", &old, 0, 2).unwrap();
        cache.tables("R", &old, 1, 1).unwrap();
        let new = rel(10);
        cache.fragments("R", &new, 0, 2).unwrap();
        assert_eq!(cache.stats().bytes, 2 * 10 * 16, "fragments only");
        let (fresh, hit) = cache.tables("R", &new, 0, 2).unwrap();
        assert!(!hit);
        let (fragments, _) = cache.fragments("R", &new, 0, 2).unwrap();
        for (table, fragment) in fresh.iter().zip(fragments.iter()) {
            assert!(
                std::ptr::eq(table.rows(), &**fragment),
                "over the new relation"
            );
        }
        // A caller still holding the old relation rebuilds too.
        let (stale, hit) = cache.tables("R", &old, 0, 2).unwrap();
        assert!(!hit && !Arc::ptr_eq(&stale, &fresh));
    }

    #[test]
    fn zero_degree_and_non_integer_keys_are_errors() {
        let cache = FragmentCache::new();
        assert!(cache.fragments("R", &rel(4), 0, 0).is_err());
        assert!(cache.fragments("R", &rel(4), 9, 2).is_err());
        assert!(cache.tables("R", &rel(4), 9, 1).is_err());
    }

    #[test]
    fn touch_counts_and_keeps_what_is_resident_and_refuses_what_is_not() {
        let cache = FragmentCache::new();
        let r = rel(64);
        let (image, _) = cache.fragments("R", &r, 0, 1).unwrap();
        let (oldest, _) = cache.fragments("R", &r, 0, 2).unwrap();
        let (tables, _) = cache.tables("R", &r, 1, 1).unwrap();
        for degree in 3..2 + MAX_VARIANTS_PER_RELATION {
            cache.fragments("R", &r, 0, degree).unwrap();
        }
        let held = [Arc::downgrade(&image), Arc::downgrade(&oldest)];
        let table_set = Arc::downgrade(&tables);
        let sets = || {
            let fragments = held.iter().map(|h| ("R", Held::Fragments(h)));
            fragments.chain([("R", Held::Tables(&table_set))])
        };
        let hits = cache.stats().hits;
        assert!(cache.touch(sets()));
        assert_eq!(cache.stats().hits, hits + 3, "a hit per set, as lookups");
        // Touched, the oldest variant is no longer the LRU victim.
        cache.fragments("R", &r, 1, 2).unwrap();
        assert!(cache.fragments("R", &r, 0, 2).unwrap().1, "touched: kept");
        assert!(
            !cache.fragments("R", &r, 0, 3).unwrap().1,
            "victim: rebuilt"
        );

        // Evicted while still alive here: not served, nothing counted.
        for degree in 5..5 + MAX_VARIANTS_PER_RELATION {
            cache.fragments("R", &r, 0, degree).unwrap();
        }
        let stats = cache.stats();
        assert!(!cache.touch(sets()));
        assert_eq!(cache.stats(), stats);
        assert!(
            !cache.touch([("S", Held::Fragments(&held[0]))]),
            "unknown name"
        );
        // The image and its tables are never evicted, only replaced.
        let image_only = [
            ("R", Held::Fragments(&held[0])),
            ("R", Held::Tables(&table_set)),
        ];
        assert!(cache.touch(image_only));
        cache.image("R", &rel(64)).unwrap();
        assert!(
            !cache.touch(image_only),
            "a replaced relation's image is not served"
        );
        drop((image, oldest, tables));
    }
}
