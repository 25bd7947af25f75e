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
//! **Bound.** Per relation the cache holds the image plus at most
//! [`MAX_VARIANTS_PER_RELATION`] partitioned variants, least recently used
//! evicted first. Misses are built outside the lock and inserted if absent,
//! so concurrent queries missing the same key end up sharing one copy.

use std::collections::HashMap;
use std::sync::Arc;

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
/// own bytes, in practice (one variant per relation) ~0.7×.
pub const MAX_VARIANTS_PER_RELATION: usize = 4;

/// Counters of a [`FragmentCache`], read under its lock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FragmentCacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to build: cold keys, evicted variants, and
    /// relations replaced since the entry was built.
    pub misses: u64,
    /// Cached fragment sets dropped: variants past the per-relation cap,
    /// and every set (image included) of a replaced relation.
    pub evictions: u64,
    /// Logical bytes resident (images plus variants).
    pub bytes: u64,
    /// Row→column conversions performed ([`scan_columns`]): one per image
    /// built. A warm query adds none.
    pub images_built: u64,
}

struct Variant {
    key_col: usize,
    degree: usize,
    fragments: Fragments,
}

struct Entry {
    /// The relation every batch below was built from.
    source: Arc<Relation>,
    /// The whole-relation image (one fragment).
    whole: Fragments,
    /// Partitioned variants, least recently used first.
    variants: Vec<Variant>,
}

fn bytes_of(fragments: &Fragments) -> u64 {
    fragments.iter().map(|f| f.est_bytes()).sum()
}

#[derive(Default)]
struct State {
    entries: HashMap<String, Entry>,
    stats: FragmentCacheStats,
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
                variants: Vec::new(),
            };
            if let Some(stale) = entries.insert(name.to_string(), fresh) {
                stats.evictions += 1 + stale.variants.len() as u64;
                stats.bytes -= stale
                    .variants
                    .iter()
                    .fold(bytes_of(&stale.whole), |sum, v| {
                        sum + bytes_of(&v.fragments)
                    });
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
            stats.bytes -= bytes_of(&evicted.fragments);
        }
        stats.bytes += bytes_of(&built);
        entry.variants.push(Variant {
            key_col,
            degree,
            fragments: built.clone(),
        });
        Ok((built, false))
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

    #[test]
    fn zero_degree_and_non_integer_keys_are_errors() {
        let cache = FragmentCache::new();
        assert!(cache.fragments("R", &rel(4), 0, 0).is_err());
        assert!(cache.fragments("R", &rel(4), 9, 2).is_err());
    }
}
