//! Relations: schema + multiset of tuples, and the provider abstraction the
//! evaluators use to resolve base relations by name.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{RelalgError, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;

/// An in-memory relation. The tuple order is not semantically meaningful
/// (relations are multisets); [`Relation::multiset_eq`] compares accordingly.
#[derive(Clone, Debug)]
pub struct Relation {
    schema: Arc<Schema>,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Relation {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Creates a relation, validating every tuple against the schema.
    pub fn new(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Result<Self> {
        for t in &tuples {
            schema.validate(t)?;
        }
        Ok(Relation { schema, tuples })
    }

    /// Creates a relation without validating tuples. Intended for operator
    /// outputs whose tuples are correct by construction; debug builds still
    /// validate to catch engine bugs early.
    pub fn new_unchecked(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Self {
        #[cfg(debug_assertions)]
        for t in &tuples {
            debug_assert!(schema.validate(t).is_ok(), "tuple violates schema");
        }
        Relation { schema, tuples }
    }

    /// The schema shared by all tuples.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples (cardinality).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples in their current (arbitrary) order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Appends a tuple, validating it against the schema.
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        self.schema.validate(&tuple)?;
        self.tuples.push(tuple);
        Ok(())
    }

    /// Consumes the relation, returning its tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Iterates over the tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// Multiset equality: same schema arity, same tuples regardless of order.
    pub fn multiset_eq(&self, other: &Relation) -> bool {
        if self.schema.arity() != other.schema.arity() || self.len() != other.len() {
            return false;
        }
        let mut a = self.tuples.clone();
        let mut b = other.tuples.clone();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }

    /// Approximate in-memory footprint in bytes.
    pub fn est_bytes(&self) -> usize {
        self.tuples.iter().map(Tuple::est_bytes).sum()
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

/// Resolves base-relation names to stored relations. `mj-storage`'s catalog
/// implements this; tests use the [`HashMap`] impl below.
pub trait RelationProvider {
    /// Returns the relation registered under `name`.
    fn relation(&self, name: &str) -> Result<Arc<Relation>>;

    /// The schema of the relation registered under `name`; a provider
    /// whose relations are not stored as rows answers without building
    /// them.
    fn schema(&self, name: &str) -> Result<Arc<Schema>> {
        Ok(self.relation(name)?.schema().clone())
    }
}

impl RelationProvider for HashMap<String, Arc<Relation>> {
    fn relation(&self, name: &str) -> Result<Arc<Relation>> {
        self.get(name)
            .cloned()
            .ok_or_else(|| RelalgError::UnknownRelation(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use crate::value::Value;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![Attribute::int("a"), Attribute::int("b")]).shared()
    }

    fn rel(rows: &[[i64; 2]]) -> Relation {
        Relation::new(schema(), rows.iter().map(|r| Tuple::from_ints(r)).collect()).unwrap()
    }

    #[test]
    fn new_validates_tuples() {
        let bad = vec![Tuple::new(vec![Value::str("x"), Value::Int(1)])];
        assert!(Relation::new(schema(), bad).is_err());
    }

    #[test]
    fn multiset_eq_ignores_order() {
        let a = rel(&[[1, 2], [3, 4], [1, 2]]);
        let b = rel(&[[3, 4], [1, 2], [1, 2]]);
        let c = rel(&[[3, 4], [1, 2], [3, 4]]);
        assert!(a.multiset_eq(&b));
        assert!(!a.multiset_eq(&c));
    }

    #[test]
    fn multiset_eq_checks_cardinality() {
        let a = rel(&[[1, 2]]);
        let b = rel(&[[1, 2], [1, 2]]);
        assert!(!a.multiset_eq(&b));
    }

    #[test]
    fn push_validates() {
        let mut r = Relation::empty(schema());
        assert!(r.push(Tuple::from_ints(&[1, 2])).is_ok());
        assert!(r.push(Tuple::from_ints(&[1])).is_err());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn provider_via_hashmap() {
        let mut m: HashMap<String, Arc<Relation>> = HashMap::new();
        m.insert("r".into(), Arc::new(rel(&[[1, 1]])));
        assert!(m.relation("r").is_ok());
        assert!(matches!(
            m.relation("s"),
            Err(RelalgError::UnknownRelation(_))
        ));
    }
}
