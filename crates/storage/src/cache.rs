//! What a catalog entry keeps resident besides its image: partitioned
//! variants of it and the join tables over them.
//!
//! The paper's response time starts with the base relations *already*
//! fragmented over the processors ("ideal fragmentation", §4.1 — PRISMA
//! stores them that way). Here a relation is converted to columns once,
//! when it is registered ([`Catalog::register`](crate::Catalog::register)),
//! and its entry keeps the hash-partitioned variants queries asked for, by
//! `(key column, degree)`, so a query's set-up is a lookup per base
//! operand instead of a hash pass and a gather.
//!
//! **Key and soundness.** Two operands of a join may only read stored
//! partitionings that agree on key, hash function and degree; the hash is
//! the workspace-wide [`bucket_of`](mj_relalg::hash::bucket_of), so
//! `(key column, degree)` is the rest of the key. Degree 1 is the whole
//! relation as one columnar image — every finer variant is partitioned
//! *from* it, and late materialization pins it by refcount.
//!
//! **Lifetime.** Everything here hangs off one catalog entry and dies with
//! it: replacing a relation under its name drops the old image, variants
//! and tables at that write, and a lookup reads the entry registered *now*.
//! A miss builds from the entry it looked up and inserts into that entry,
//! so a build that races a replacement never lands in the new one.
//! Updating statistics evicts nothing.
//!
//! **Tables.** The paper's RD strategy builds a hash table on a base
//! relation at every join of a right-deep segment, and the relation does
//! not change between queries, so neither does the table.
//! [`Catalog::tables`] keeps one join table per fragment, indexed on the
//! key column asked for: a partitioned variant holds the table set of its
//! own key, the image one set per key column, since it serves every key. A
//! table indexes its fragment where it lies (the table's rows *are* the
//! fragment), so only the index is extra. Table sets are built lazily, on
//! the first lookup, and live and die with their fragments: touched and
//! evicted together.
//!
//! **Bound.** Per relation the entry holds the image plus at most
//! [`MAX_VARIANTS_PER_RELATION`] partitioned variants, least recently used
//! evicted first, and the index of every table set built on them: about
//! 4 B per bucket plus 4 B per row (buckets are the next power of two
//! above 8/7 of the rows, so 9–13 B per row against a three-column
//! fragment's 24). Misses are built outside the lock and inserted if
//! absent, so concurrent queries missing the same key end up sharing one
//! copy, of fragments and of tables alike.

use std::ptr;
use std::sync::{Arc, Weak};

use mj_join::ColumnarTable;
use mj_relalg::column::ColumnBatch;
use mj_relalg::Result;

use crate::catalog::{lock, read, Catalog, Entry};
use crate::columnar::{fragment_columns, Fragments};

/// Partitioned variants kept per relation, beside its whole-relation image.
///
/// A relation takes part in a query through one join key per leaf and a
/// chain or star joins it on at most two distinct columns; the planner's
/// grain rule gives an operand one of a few degrees for a given worker
/// count. Four variants hold two key columns at two degrees each, so a
/// steady workload never evicts, while an entry stays bounded by
/// `(1 + 4) ×` its image — in practice (one variant per relation) 2× —
/// plus the join index of each fragment set a simple join builds on
/// (module docs).
pub const MAX_VARIANTS_PER_RELATION: usize = 4;

/// Join tables over a fragment set, one per fragment in fragment order:
/// table `i` indexes fragment `i` where it lies ([`ColumnarTable::index`]),
/// so its [`rows`](ColumnarTable::rows) *is* that fragment.
pub type Tables = Arc<[Arc<ColumnarTable>]>;

/// Counters of the catalog's resident state (the bytes are summed over its
/// entries when read).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidentStats {
    /// Lookups served from a resident image, variant or table set.
    pub hits: u64,
    /// Lookups that had to partition: cold keys and evicted variants.
    pub misses: u64,
    /// Resident fragment sets dropped: variants past the per-relation cap,
    /// and every set (image included) of a replaced relation. Their tables
    /// go with them.
    pub evictions: u64,
    /// Logical bytes resident: images and variants, plus the index of
    /// every resident table.
    pub bytes: u64,
    /// Table sets built ([`tables`](Catalog::tables)): one per fragment set
    /// and key column a simple join first built on. A warm query adds none.
    pub tables_built: u64,
}

/// A batch set an earlier lookup returned, held weakly to be served again
/// ([`Catalog::touch`]). The weak handle keeps the set's allocation,
/// though not its batches, so its address names that set and no other.
#[derive(Clone, Copy)]
pub enum Held<'a> {
    /// What [`Catalog::fragments`] returned.
    Fragments(&'a Weak<[Arc<ColumnBatch>]>),
    /// What [`Catalog::tables`] returned.
    Tables(&'a Weak<[Arc<ColumnarTable>]>),
}

#[derive(Debug)]
struct Variant {
    key_col: usize,
    degree: usize,
    fragments: Fragments,
    /// Tables over `fragments` on `key_col`, once a lookup asked for them.
    tables: Option<Tables>,
}

/// What an entry built on its image so far, under the entry's lock.
#[derive(Debug, Default)]
pub(crate) struct Resident {
    /// Tables over the image, by key column: the image serves every key.
    image_tables: Vec<Option<Tables>>,
    /// Partitioned variants, least recently used first.
    variants: Vec<Variant>,
}

impl Resident {
    /// The fragment sets held: the image and every variant.
    pub(crate) fn sets(&self) -> u64 {
        1 + self.variants.len() as u64
    }

    /// The variant on `(key_col, degree)`, marked used, if resident.
    fn variant(&mut self, key_col: usize, degree: usize) -> Option<Fragments> {
        let at = self
            .variants
            .iter()
            .position(|v| v.key_col == key_col && v.degree == degree)?;
        let variant = self.variants.remove(at);
        let fragments = variant.fragments.clone();
        self.variants.push(variant);
        Some(fragments)
    }

    /// Where the tables over `fragments` on `key_col` are kept; `None`
    /// once those fragments are no longer resident.
    fn tables_slot(
        &mut self,
        image: &Fragments,
        fragments: &Fragments,
        key_col: usize,
    ) -> Option<&mut Option<Tables>> {
        if Arc::ptr_eq(image, fragments) {
            if self.image_tables.len() <= key_col {
                self.image_tables.resize(key_col + 1, None);
            }
            return Some(&mut self.image_tables[key_col]);
        }
        let variant = self
            .variants
            .iter_mut()
            .find(|v| Arc::ptr_eq(&v.fragments, fragments));
        variant.map(|v| &mut v.tables)
    }

    /// Where `held` sits, if it still does: `Some(None)` in the image,
    /// `Some(Some(at))` in variant `at`.
    fn position(&self, image: &Fragments, held: Held<'_>) -> Option<Option<usize>> {
        match held {
            Held::Fragments(held) => {
                let same = |f: &Fragments| ptr::addr_eq(Arc::as_ptr(f), held.as_ptr());
                if same(image) {
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
                if self.image_tables.iter().any(same) {
                    return Some(None);
                }
                self.variants.iter().position(|v| same(&v.tables)).map(Some)
            }
        }
    }

    /// Bytes of the variants and of every table index (the image is the
    /// entry's).
    fn bytes(&self) -> u64 {
        let image_tables = self.image_tables.iter().flatten().map(index_bytes);
        self.variants.iter().map(Variant::bytes).sum::<u64>() + image_tables.sum::<u64>()
    }
}

impl Variant {
    fn bytes(&self) -> u64 {
        bytes_of(&self.fragments) + self.tables.as_ref().map_or(0, index_bytes)
    }
}

impl Entry {
    fn bytes(&self) -> u64 {
        bytes_of(&self.image) + lock(&self.resident).bytes()
    }
}

fn bytes_of(fragments: &Fragments) -> u64 {
    fragments.iter().map(|f| f.est_bytes()).sum()
}

/// The index bytes of `tables`; their rows are counted as fragments.
fn index_bytes(tables: &Tables) -> u64 {
    tables.iter().map(|t| t.index_bytes() as u64).sum()
}

impl Catalog {
    /// A snapshot of the resident-state counters, with the bytes every
    /// registered relation holds now.
    pub fn resident_stats(&self) -> ResidentStats {
        let bytes = read(&self.entries).values().map(|e| e.bytes()).sum();
        ResidentStats {
            bytes,
            ..*lock(&self.counters)
        }
    }

    /// The columnar image of `name`: the whole relation, one fragment.
    pub fn image(&self, name: &str) -> Result<Arc<ColumnBatch>> {
        let (whole, _) = self.fragments(name, 0, 1)?;
        Ok(whole[0].clone())
    }

    /// The `degree` hash fragments of `name` on integer column `key_col` —
    /// fragment `i` holds exactly the rows whose key has
    /// `bucket_of(key, degree) == i` — and whether they were resident.
    /// Degree 1 is the image itself, always resident.
    pub fn fragments(
        &self,
        name: &str,
        key_col: usize,
        degree: usize,
    ) -> Result<(Fragments, bool)> {
        let entry = self.entry(name)?;
        let resident = match degree {
            1 => Some(entry.image.clone()),
            _ => lock(&entry.resident).variant(key_col, degree),
        };
        if let Some(fragments) = resident {
            lock(&self.counters).hits += 1;
            return Ok((fragments, true));
        }

        // Miss: partition without holding the lock.
        let built = fragment_columns(&entry.image[0], key_col, degree)?;
        lock(&self.counters).misses += 1;
        let mut resident = lock(&entry.resident);
        // Insert if absent: a concurrent miss on the same key that got
        // here first wins, and this caller adopts its copy.
        if let Some(winner) = resident
            .variants
            .iter()
            .find(|v| v.key_col == key_col && v.degree == degree)
        {
            return Ok((winner.fragments.clone(), false));
        }
        if resident.variants.len() == MAX_VARIANTS_PER_RELATION {
            resident.variants.remove(0);
            lock(&self.counters).evictions += 1;
        }
        resident.variants.push(Variant {
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
    /// lookup first (counted and touched like one); tables are built on
    /// its first use and then kept with those fragments, evicted with
    /// them.
    pub fn tables(&self, name: &str, key_col: usize, degree: usize) -> Result<(Tables, bool)> {
        let (fragments, _) = self.fragments(name, key_col, degree)?;
        let entry = self.entry(name)?;
        {
            let mut resident = lock(&entry.resident);
            let slot = resident.tables_slot(&entry.image, &fragments, key_col);
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

        lock(&self.counters).tables_built += 1;
        let mut resident = lock(&entry.resident);
        // Gone: the fragments were evicted, or their relation replaced, in
        // the meantime, so the tables stay this caller's.
        let Some(slot) = resident.tables_slot(&entry.image, &fragments, key_col) else {
            return Ok((built, false));
        };
        // Insert if absent, as for fragments.
        if let Some(winner) = slot {
            return Ok((winner.clone(), false));
        }
        *slot = Some(built.clone());
        Ok((built, false))
    }

    /// Marks batch sets that earlier lookups returned used again, each
    /// named by the relation it was looked up under: if every one is still
    /// resident in the entry registered under that name, each counts as a
    /// hit and as a use of its variant (the LRU order), exactly as the
    /// lookup that returned it would, and this returns true. Otherwise it
    /// counts nothing and returns false, and the caller looks them up
    /// again: a set that was evicted, or whose relation was replaced, is
    /// never served, even while something else keeps it alive.
    pub fn touch<'a>(&self, held: impl IntoIterator<Item = (&'a str, Held<'a>)>) -> bool {
        let entries = read(&self.entries);
        let mut touched = 0;
        for (name, set) in held {
            let Some(entry) = entries.get(name) else {
                return false;
            };
            let mut resident = lock(&entry.resident);
            match resident.position(&entry.image, set) {
                None => return false,
                // Marking a variant used before finding that another one
                // is gone only ages its LRU order a little.
                Some(Some(at)) => {
                    let variant = resident.variants.remove(at);
                    resident.variants.push(variant);
                }
                Some(None) => {}
            }
            touched += 1;
        }
        lock(&self.counters).hits += touched;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::hash::bucket_of;
    use mj_relalg::{Attribute, Relation, Schema, Tuple};
    use std::sync::Barrier;

    fn rel(n: i64) -> Arc<Relation> {
        let schema = Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared();
        Arc::new(Relation::new_unchecked(
            schema,
            (0..n).map(|k| Tuple::from_ints(&[k, k % 7])).collect(),
        ))
    }

    /// A catalog holding `rel(n)` as `R`.
    fn with(n: i64) -> Catalog {
        let catalog = Catalog::new();
        catalog.register("R", rel(n));
        catalog
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
        let catalog = with(100);
        assert_eq!(catalog.resident_stats().bytes, 100 * 16, "the image");
        let (cold, hit) = catalog.fragments("R", 0, 3).unwrap();
        assert!(!hit);
        let (warm, hit) = catalog.fragments("R", 0, 3).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&cold, &warm));
        let stats = catalog.resident_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Image plus one variant of the same rows.
        assert_eq!(stats.bytes, 2 * 100 * 16);
        // The image was built by the registration: reading it is a hit.
        catalog.image("R").unwrap();
        assert_eq!(catalog.resident_stats().hits, 2);
    }

    #[test]
    fn variants_partition_by_the_canonical_hash_and_hold_the_same_rows() {
        let catalog = with(500);
        let whole: Fragments = Arc::from([catalog.image("R").unwrap()]);
        for (key_col, degree) in [(0, 2), (0, 5), (1, 3), (1, 1)] {
            let (fragments, _) = catalog.fragments("R", key_col, degree).unwrap();
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
        let catalog = with(64);
        let image = catalog.image("R").unwrap();
        for degree in 2..2 + MAX_VARIANTS_PER_RELATION {
            catalog.fragments("R", 0, degree).unwrap();
        }
        // Touch the oldest so the second oldest becomes the victim.
        assert!(catalog.fragments("R", 0, 2).unwrap().1);
        let full = catalog.resident_stats().bytes;
        catalog.fragments("R", 1, 2).unwrap();
        let stats = catalog.resident_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.bytes, full, "one variant out, one of equal size in");
        assert!(catalog.fragments("R", 0, 2).unwrap().1, "touched: kept");
        assert!(!catalog.fragments("R", 0, 3).unwrap().1, "victim: rebuilt");
        assert!(
            Arc::ptr_eq(&catalog.image("R").unwrap(), &image),
            "the image is never evicted"
        );
    }

    #[test]
    fn a_replaced_relation_is_never_served_from_the_old_entry() {
        let catalog = with(10);
        let (variant, _) = catalog.fragments("R", 0, 2).unwrap();
        let old = [
            Arc::downgrade(&catalog.image("R").unwrap()),
            Arc::downgrade(&variant[0]),
            Arc::downgrade(&variant[1]),
        ];
        let old_set = Arc::downgrade(&variant);
        drop(variant);
        let before = catalog.resident_stats();
        assert_eq!(before.bytes, 2 * 10 * 16);
        // Same contents, different relation: the write evicts at once.
        catalog.register("R", rel(10));
        assert!(
            old.iter().all(|w| w.upgrade().is_none()),
            "old batches freed"
        );
        let stats = catalog.resident_stats();
        assert_eq!(stats.evictions, 2, "the old image and its variant");
        assert_eq!(stats.bytes, 10 * 16, "only the new image");
        assert!(!catalog.touch([("R", Held::Fragments(&old_set))]));
        let (fragments, hit) = catalog.fragments("R", 0, 2).unwrap();
        assert!(!hit, "the new relation partitions afresh");
        assert_eq!(fragments.iter().map(|f| f.rows()).sum::<usize>(), 10);
    }

    #[test]
    fn two_threads_missing_the_same_key_agree() {
        let catalog = with(2000);
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let miss = || {
                barrier.wait();
                catalog.fragments("R", 0, 4).unwrap().0
            };
            let a = scope.spawn(miss);
            let b = scope.spawn(miss);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b), "the loser adopts the winner's copy");
        let stats = catalog.resident_stats();
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
        let catalog = with(300);
        let (cold, hit) = catalog.tables("R", 0, 3).unwrap();
        assert!(!hit);
        let (warm, hit) = catalog.tables("R", 0, 3).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&cold, &warm));
        let (fragments, hit) = catalog.fragments("R", 0, 3).unwrap();
        assert!(hit);
        for (table, fragment) in warm.iter().zip(fragments.iter()) {
            assert!(
                std::ptr::eq(table.rows(), &**fragment),
                "no copy of the rows"
            );
        }
        let stats = catalog.resident_stats();
        assert_eq!(stats.tables_built, 1);
        // Three lookups of the variant: the first two through `tables`.
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn each_table_holds_its_bucket_and_probes_like_a_fresh_index() {
        let catalog = with(700);
        let probe: Vec<i64> = (-5..720).collect();
        for (key_col, degree) in [(0, 3), (1, 2), (0, 1), (1, 4)] {
            let (tables, _) = catalog.tables("R", key_col, degree).unwrap();
            let (fragments, _) = catalog.fragments("R", key_col, degree).unwrap();
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
        let catalog = with(200);
        let image = catalog.image("R").unwrap();
        let before = catalog.resident_stats().bytes;
        let (on_k, hit) = catalog.tables("R", 0, 1).unwrap();
        assert!(!hit);
        let (on_v, hit) = catalog.tables("R", 1, 1).unwrap();
        assert!(!hit, "another key column is another table set");
        assert!(!Arc::ptr_eq(&on_k, &on_v));
        for (tables, key_col) in [(&on_k, 0), (&on_v, 1)] {
            assert_eq!(tables.len(), 1);
            assert!(std::ptr::eq(tables[0].rows(), &*image));
            assert_eq!(tables[0].key_col(), key_col);
            let (again, hit) = catalog.tables("R", key_col, 1).unwrap();
            assert!(hit && Arc::ptr_eq(tables, &again));
        }
        let stats = catalog.resident_stats();
        assert_eq!(stats.tables_built, 2);
        let index = (on_k[0].index_bytes() + on_v[0].index_bytes()) as u64;
        assert_eq!(stats.bytes, before + index, "only the index is extra");
    }

    #[test]
    fn two_threads_missing_the_same_tables_share_one_set() {
        let catalog = with(2000);
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let miss = || {
                barrier.wait();
                catalog.tables("R", 0, 4).unwrap().0
            };
            let a = scope.spawn(miss);
            let b = scope.spawn(miss);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b), "the loser adopts the winner's set");
        let index: u64 = a.iter().map(|t| t.index_bytes() as u64).sum();
        assert_eq!(
            catalog.resident_stats().bytes,
            2 * 2000 * 16 + index,
            "one set resident"
        );
    }

    #[test]
    fn tables_are_evicted_with_their_fragments_and_never_outlive_a_relation() {
        let catalog = with(64);
        catalog.fragments("R", 0, 2).unwrap();
        let without = catalog.resident_stats().bytes;
        // Built on the oldest variant, which the lookup touches.
        let (tables, _) = catalog.tables("R", 0, 2).unwrap();
        let added = catalog.resident_stats().bytes - without;
        assert_eq!(added, tables.iter().map(|t| t.index_bytes() as u64).sum());
        assert!(added > 0);
        for degree in 3..2 + MAX_VARIANTS_PER_RELATION {
            catalog.fragments("R", 0, degree).unwrap();
        }
        let full = catalog.resident_stats().bytes;
        // A fifth variant of equal size evicts degree 2, tables and all.
        catalog.fragments("R", 1, 2).unwrap();
        assert_eq!(catalog.resident_stats().bytes, full - added);
        let (rebuilt, hit) = catalog.tables("R", 0, 2).unwrap();
        assert!(!hit && !Arc::ptr_eq(&rebuilt, &tables));
        assert_eq!(catalog.resident_stats().tables_built, 2);
        drop((tables, rebuilt));

        // Replacing the relation drops every table set with its entry, at
        // the write.
        let catalog = with(10);
        let (on_variant, _) = catalog.tables("R", 0, 2).unwrap();
        let (on_image, _) = catalog.tables("R", 1, 1).unwrap();
        let old: Vec<_> = on_variant
            .iter()
            .chain(on_image.iter())
            .map(Arc::downgrade)
            .collect();
        let old_sets = [Arc::downgrade(&on_variant), Arc::downgrade(&on_image)];
        let index = index_bytes(&on_variant) + index_bytes(&on_image);
        drop((on_variant, on_image));
        let before = catalog.resident_stats().bytes;
        assert_eq!(before, 2 * 10 * 16 + index);
        catalog.register("R", rel(10));
        assert!(
            old.iter().all(|w| w.upgrade().is_none()),
            "old tables freed"
        );
        assert_eq!(
            catalog.resident_stats().bytes,
            before - 10 * 16 - index,
            "the old image, variant and both indexes went at the write"
        );
        assert!(!catalog.touch(old_sets.iter().map(|s| ("R", Held::Tables(s)))));
        let (fresh, hit) = catalog.tables("R", 0, 2).unwrap();
        assert!(!hit);
        let (fragments, _) = catalog.fragments("R", 0, 2).unwrap();
        for (table, fragment) in fresh.iter().zip(fragments.iter()) {
            assert!(
                std::ptr::eq(table.rows(), &**fragment),
                "over the new relation"
            );
        }
    }

    #[test]
    fn zero_degree_and_non_integer_keys_are_errors() {
        let catalog = with(4);
        assert!(catalog.fragments("R", 0, 0).is_err());
        assert!(catalog.fragments("R", 9, 2).is_err());
        assert!(catalog.tables("R", 9, 1).is_err());
        assert!(catalog.fragments("S", 0, 2).is_err(), "unknown relation");
    }

    #[test]
    fn touch_counts_and_keeps_what_is_resident_and_refuses_what_is_not() {
        let catalog = with(64);
        let (image, _) = catalog.fragments("R", 0, 1).unwrap();
        let (oldest, _) = catalog.fragments("R", 0, 2).unwrap();
        let (tables, _) = catalog.tables("R", 1, 1).unwrap();
        for degree in 3..2 + MAX_VARIANTS_PER_RELATION {
            catalog.fragments("R", 0, degree).unwrap();
        }
        let held = [Arc::downgrade(&image), Arc::downgrade(&oldest)];
        let table_set = Arc::downgrade(&tables);
        let sets = || {
            let fragments = held.iter().map(|h| ("R", Held::Fragments(h)));
            fragments.chain([("R", Held::Tables(&table_set))])
        };
        let hits = catalog.resident_stats().hits;
        assert!(catalog.touch(sets()));
        assert_eq!(
            catalog.resident_stats().hits,
            hits + 3,
            "a hit per set, as lookups"
        );
        // Touched, the oldest variant is no longer the LRU victim.
        catalog.fragments("R", 1, 2).unwrap();
        assert!(catalog.fragments("R", 0, 2).unwrap().1, "touched: kept");
        assert!(!catalog.fragments("R", 0, 3).unwrap().1, "victim: rebuilt");

        // Evicted while still alive here: not served, nothing counted.
        for degree in 5..5 + MAX_VARIANTS_PER_RELATION {
            catalog.fragments("R", 0, degree).unwrap();
        }
        let stats = catalog.resident_stats();
        assert!(!catalog.touch(sets()));
        assert_eq!(catalog.resident_stats(), stats);
        assert!(
            !catalog.touch([("S", Held::Fragments(&held[0]))]),
            "unknown name"
        );
        // The image and its tables are never evicted, only replaced.
        let image_only = [
            ("R", Held::Fragments(&held[0])),
            ("R", Held::Tables(&table_set)),
        ];
        assert!(catalog.touch(image_only));
        catalog.register("R", rel(64));
        assert!(
            !catalog.touch(image_only),
            "a replaced relation's image is not served"
        );
        drop((image, oldest, tables));
    }
}
