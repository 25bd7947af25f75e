//! Per-node fragment store.
//!
//! Each PRISMA node holds relation fragments in its own main memory;
//! operation processes "access data fragments that are stored in the main
//! memory of their own processor directly" (§2.2). [`FragmentStore`] models
//! exactly that: node-local keyed fragment storage with byte accounting,
//! shared by the real engine's worker threads. Fragments are stored as the
//! [`ColumnBatch`]es the operators produce and consume, so a materialized
//! intermediate is never turned into rows and back.
//!
//! One store can be shared by many concurrent queries: the node set grows
//! on demand ([`ensure_nodes`](FragmentStore::ensure_nodes)) so plans with
//! different logical processor counts coexist, and a query's intermediates
//! are namespaced by a caller-chosen prefix that
//! [`remove_prefix`](FragmentStore::remove_prefix) reclaims when the query
//! finishes.

use mj_relalg::column::ColumnBatch;
use mj_relalg::{RelalgError, Result};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

type NodeMemory = Arc<RwLock<HashMap<String, Arc<ColumnBatch>>>>;

/// Shared-nothing fragment storage for a growable set of logical
/// processors.
#[derive(Debug)]
pub struct FragmentStore {
    nodes: RwLock<Vec<NodeMemory>>,
}

impl FragmentStore {
    /// Creates a store for `nodes` processors.
    pub fn new(nodes: usize) -> Self {
        FragmentStore {
            nodes: RwLock::new(
                (0..nodes)
                    .map(|_| Arc::new(RwLock::new(HashMap::new())))
                    .collect(),
            ),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.read().len()
    }

    /// Grows the store to at least `nodes` processors (no-op if already
    /// large enough). Lets one shared store serve plans with different
    /// logical processor counts.
    pub fn ensure_nodes(&self, nodes: usize) {
        let mut v = self.nodes.write();
        while v.len() < nodes {
            v.push(Arc::new(RwLock::new(HashMap::new())));
        }
    }

    fn node(&self, node: usize) -> Result<NodeMemory> {
        let nodes = self.nodes.read();
        nodes
            .get(node)
            .cloned()
            .ok_or(RelalgError::IndexOutOfBounds {
                index: node,
                arity: nodes.len(),
            })
    }

    fn snapshot(&self) -> Vec<NodeMemory> {
        self.nodes.read().clone()
    }

    /// Stores `fragment` under `name` in `node`'s memory, replacing any
    /// previous fragment of that name.
    pub fn put(
        &self,
        node: usize,
        name: impl Into<String>,
        fragment: Arc<ColumnBatch>,
    ) -> Result<()> {
        self.node(node)?.write().insert(name.into(), fragment);
        Ok(())
    }

    /// Fetches the fragment stored under `name` at `node`.
    pub fn get(&self, node: usize, name: &str) -> Result<Arc<ColumnBatch>> {
        self.node(node)?
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| RelalgError::UnknownRelation(format!("{name}@node{node}")))
    }

    /// Removes the fragment stored under `name` at `node`, returning it.
    pub fn take(&self, node: usize, name: &str) -> Result<Arc<ColumnBatch>> {
        self.node(node)?
            .write()
            .remove(name)
            .ok_or_else(|| RelalgError::UnknownRelation(format!("{name}@node{node}")))
    }

    /// Drops every fragment named `name` on all nodes (used to free
    /// intermediate results once consumed).
    pub fn drop_all(&self, name: &str) {
        for n in self.snapshot() {
            n.write().remove(name);
        }
    }

    /// Drops every fragment whose name starts with `prefix` on all nodes —
    /// the reclamation hook for per-query namespaces in a shared store.
    /// Returns the logical bytes freed, so the caller can credit them back
    /// to the owning query's memory budget.
    pub fn remove_prefix(&self, prefix: &str) -> u64 {
        let mut freed = 0;
        for n in self.snapshot() {
            n.write().retain(|name, fragment| {
                let keep = !name.starts_with(prefix);
                if !keep {
                    freed += fragment.est_bytes();
                }
                keep
            });
        }
        freed
    }

    /// Logical bytes resident at `node`.
    pub fn node_bytes(&self, node: usize) -> Result<u64> {
        Ok(self
            .node(node)?
            .read()
            .values()
            .map(|f| f.est_bytes())
            .sum())
    }

    /// Logical bytes resident across all nodes.
    pub fn total_bytes(&self) -> u64 {
        (0..self.nodes())
            .map(|n| self.node_bytes(n).unwrap_or(0))
            .sum()
    }

    /// Collects all fragments named `name` across nodes in node order
    /// (missing nodes are skipped).
    pub fn collect(&self, name: &str) -> Vec<Arc<ColumnBatch>> {
        let mut out = Vec::new();
        for n in self.snapshot() {
            if let Some(r) = n.read().get(name) {
                out.push(r.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mj_relalg::column::ColumnLayout;
    use mj_relalg::Tuple;

    fn rel(n: i64) -> Arc<ColumnBatch> {
        let mut batch = ColumnBatch::with_capacity(&ColumnLayout::ints(1), n as usize);
        for v in 0..n {
            batch.push_tuple(&Tuple::from_ints(&[v])).unwrap();
        }
        Arc::new(batch)
    }

    #[test]
    fn put_get_take() {
        let s = FragmentStore::new(2);
        s.put(0, "R", rel(3)).unwrap();
        assert_eq!(s.get(0, "R").unwrap().rows(), 3);
        assert!(s.get(1, "R").is_err());
        assert_eq!(s.take(0, "R").unwrap().rows(), 3);
        assert!(s.get(0, "R").is_err());
    }

    #[test]
    fn out_of_range_node_errors() {
        let s = FragmentStore::new(1);
        assert!(s.put(5, "R", rel(1)).is_err());
        assert!(s.get(5, "R").is_err());
    }

    #[test]
    fn byte_accounting() {
        let s = FragmentStore::new(2);
        assert_eq!(s.total_bytes(), 0);
        s.put(0, "R", rel(10)).unwrap();
        s.put(1, "R", rel(20)).unwrap();
        assert!(s.node_bytes(0).unwrap() > 0);
        assert!(s.node_bytes(1).unwrap() > s.node_bytes(0).unwrap());
        assert_eq!(
            s.total_bytes(),
            s.node_bytes(0).unwrap() + s.node_bytes(1).unwrap()
        );
    }

    #[test]
    fn collect_and_drop_all() {
        let s = FragmentStore::new(3);
        s.put(0, "R", rel(1)).unwrap();
        s.put(2, "R", rel(2)).unwrap();
        s.put(1, "S", rel(3)).unwrap();
        assert_eq!(s.collect("R").len(), 2);
        s.drop_all("R");
        assert!(s.collect("R").is_empty());
        assert_eq!(s.collect("S").len(), 1);
    }

    #[test]
    fn grows_on_demand_and_clears_prefixes() {
        let s = FragmentStore::new(1);
        assert!(s.put(3, "q1:op0", rel(1)).is_err());
        s.ensure_nodes(4);
        assert_eq!(s.nodes(), 4);
        s.ensure_nodes(2); // never shrinks
        assert_eq!(s.nodes(), 4);
        s.put(3, "q1:op0", rel(1)).unwrap();
        s.put(0, "q1:op1", rel(2)).unwrap();
        s.put(0, "q2:op0", rel(3)).unwrap();
        let before = s.total_bytes();
        let freed = s.remove_prefix("q1:");
        assert_eq!(freed, before - s.total_bytes(), "freed bytes reported");
        assert!(freed > 0);
        assert!(s.collect("q1:op0").is_empty());
        assert!(s.collect("q1:op1").is_empty());
        assert_eq!(s.collect("q2:op0").len(), 1, "other queries untouched");
    }

    #[test]
    fn concurrent_access() {
        let s = Arc::new(FragmentStore::new(4));
        std::thread::scope(|scope| {
            for node in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        s.put(node, format!("f{i}"), rel(i)).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.collect("f10").len(), 4);
    }
}
