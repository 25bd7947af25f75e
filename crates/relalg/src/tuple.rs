//! Tuples: fixed-arity rows of [`Value`]s.
//!
//! Tuples are *logically* value types — the shared-nothing model treats a
//! redistributed tuple as physically moved between node memories — but the
//! in-process representation is zero-copy:
//!
//! * Small all-integer rows (the Wisconsin compact workload) are stored
//!   **inline**: cloning is a flat memcpy, no heap traffic at all.
//! * Larger or string-carrying rows share an **`Arc`** payload: cloning is
//!   a reference-count bump.
//!
//! Memory accounting ([`Tuple::est_bytes`]) deliberately reports *logical*
//! (deep) bytes, not shared physical bytes, so the paper's RD-vs-FP memory
//! ablation (§5) — which models every hash table as owning its tuples — is
//! unaffected by the sharing.

use serde::{DeError, Deserialize, JsonValue, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{RelalgError, Result};
use crate::value::Value;

/// Maximum arity stored inline (all-int rows only).
pub const INLINE_CAP: usize = 4;

const ZERO: Value = Value::Int(0);

#[derive(Clone, Debug)]
enum Repr {
    /// All-integer row of arity <= [`INLINE_CAP`], stored inline.
    /// Cloning copies `INLINE_CAP` integer values — no allocation.
    Inline { len: u8, vals: [Value; INLINE_CAP] },
    /// Shared payload; cloning bumps the reference count.
    Shared(Arc<[Value]>),
}

/// A row of values. Cloning is cheap (memcpy or refcount bump).
#[derive(Clone, Debug)]
pub struct Tuple {
    repr: Repr,
}

/// True if an inline representation may hold these values.
fn inlineable(values: &[Value]) -> bool {
    values.len() <= INLINE_CAP && values.iter().all(|v| matches!(v, Value::Int(_)))
}

fn inline_from(values: &[Value]) -> Repr {
    let mut vals = [ZERO; INLINE_CAP];
    for (slot, v) in vals.iter_mut().zip(values) {
        *slot = v.clone(); // Value::Int: a flat copy.
    }
    Repr::Inline {
        len: values.len() as u8,
        vals,
    }
}

impl Tuple {
    /// Creates a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        if inlineable(&values) {
            Tuple {
                repr: inline_from(&values),
            }
        } else {
            Tuple {
                repr: Repr::Shared(values.into()),
            }
        }
    }

    /// Creates an all-integer tuple (convenient in tests and generators).
    /// Rows up to [`INLINE_CAP`] integers take the allocation-free inline
    /// representation.
    pub fn from_ints(ints: &[i64]) -> Self {
        if ints.len() <= INLINE_CAP {
            let mut vals = [ZERO; INLINE_CAP];
            for (slot, &v) in vals.iter_mut().zip(ints) {
                *slot = Value::Int(v);
            }
            Tuple {
                repr: Repr::Inline {
                    len: ints.len() as u8,
                    vals,
                },
            }
        } else {
            Tuple {
                repr: Repr::Shared(ints.iter().map(|&v| Value::Int(v)).collect()),
            }
        }
    }

    /// Builds a tuple by draining `scratch`, leaving its capacity in place
    /// for the next row. Inline-eligible rows allocate nothing; other rows
    /// allocate exactly the shared payload.
    pub fn from_scratch(scratch: &mut Vec<Value>) -> Self {
        if inlineable(scratch) {
            let repr = inline_from(scratch);
            scratch.clear();
            Tuple { repr }
        } else {
            Tuple {
                repr: Repr::Shared(scratch.drain(..).collect()),
            }
        }
    }

    /// True if the row is stored inline (no heap payload).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// True if both tuples share one physical payload (trivially false for
    /// inline rows, which have no shared payload).
    pub fn ptr_eq(a: &Tuple, b: &Tuple) -> bool {
        match (&a.repr, &b.repr) {
            (Repr::Shared(x), Repr::Shared(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    /// Number of values in the tuple.
    pub fn arity(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Shared(vs) => vs.len(),
        }
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        match &self.repr {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Shared(vs) => vs,
        }
    }

    /// The value at position `i`.
    pub fn get(&self, i: usize) -> Result<&Value> {
        self.values().get(i).ok_or(RelalgError::IndexOutOfBounds {
            index: i,
            arity: self.arity(),
        })
    }

    /// The integer at position `i`, or a type/index error.
    pub fn int(&self, i: usize) -> Result<i64> {
        self.get(i)?.as_int()
    }

    /// The string at position `i`, or a type/index error.
    pub fn str_at(&self, i: usize) -> Result<&str> {
        self.get(i)?.as_str()
    }

    /// Concatenates two tuples (the raw output of a join before projection).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.arity() + other.arity());
        values.extend(self.values().iter().cloned());
        values.extend(other.values().iter().cloned());
        Tuple::new(values)
    }

    /// Projects the tuple onto the given column indices (with repetition and
    /// reordering allowed).
    pub fn project(&self, cols: &[usize]) -> Result<Tuple> {
        let mut values = Vec::with_capacity(cols.len());
        for &c in cols {
            values.push(self.get(c)?.clone());
        }
        Ok(Tuple::new(values))
    }

    /// Builds the projected concatenation of two tuples without
    /// materializing the intermediate concatenated row. `cols` indexes into
    /// the virtual concatenation `left ++ right`.
    pub fn project_concat(left: &Tuple, right: &Tuple, cols: &[usize]) -> Result<Tuple> {
        let mut scratch = Vec::with_capacity(cols.len());
        Tuple::project_concat_into(left, right, cols, &mut scratch)
    }

    /// [`Tuple::project_concat`] writing through a caller-provided scratch
    /// buffer. The scratch's capacity is reused across rows, so
    /// steady-state output of small all-int rows (the Wisconsin workload)
    /// performs **zero** allocations per row, and larger rows exactly one
    /// (the shared payload). The scratch is left empty (capacity intact) on
    /// both success and error.
    pub fn project_concat_into(
        left: &Tuple,
        right: &Tuple,
        cols: &[usize],
        scratch: &mut Vec<Value>,
    ) -> Result<Tuple> {
        scratch.clear();
        let lvals = left.values();
        let rvals = right.values();
        let total = lvals.len() + rvals.len();
        for &c in cols {
            let v = if c < lvals.len() {
                &lvals[c]
            } else if c < total {
                &rvals[c - lvals.len()]
            } else {
                scratch.clear();
                return Err(RelalgError::IndexOutOfBounds {
                    index: c,
                    arity: total,
                });
            };
            scratch.push(v.clone());
        }
        Ok(Tuple::from_scratch(scratch))
    }

    /// Approximate *logical* in-memory footprint in bytes: what the row
    /// would occupy if it owned its payload, exactly as the paper's memory
    /// model assumes. Sharing and inlining do not change this number.
    pub fn est_bytes(&self) -> usize {
        // Enum discriminant + payload per value, plus the payload header.
        16 + self
            .values()
            .iter()
            .map(|v| v.est_bytes() + 8)
            .sum::<usize>()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.values().cmp(other.values())
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl Serialize for Tuple {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.values().iter().map(Serialize::to_json).collect())
    }
}

impl Deserialize for Tuple {
    fn from_json(v: &JsonValue) -> std::result::Result<Self, DeError> {
        Vec::<Value>::from_json(v).map(Tuple::new)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let t = Tuple::new(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.int(0).unwrap(), 1);
        assert_eq!(t.str_at(1).unwrap(), "x");
        assert!(t.get(2).is_err());
        assert!(t.int(1).is_err());
    }

    #[test]
    fn concat_and_project() {
        let a = Tuple::from_ints(&[1, 2]);
        let b = Tuple::from_ints(&[3]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.int(2).unwrap(), 3);
        let p = c.project(&[2, 0]).unwrap();
        assert_eq!(p, Tuple::from_ints(&[3, 1]));
        assert!(c.project(&[9]).is_err());
    }

    #[test]
    fn project_concat_matches_concat_then_project() {
        let a = Tuple::from_ints(&[1, 2]);
        let b = Tuple::from_ints(&[3, 4]);
        let cols = [3, 0, 2, 2];
        let expected = a.concat(&b).project(&cols).unwrap();
        let got = Tuple::project_concat(&a, &b, &cols).unwrap();
        assert_eq!(expected, got);
        assert!(Tuple::project_concat(&a, &b, &[3]).is_ok());
        assert!(Tuple::project_concat(&a, &b, &[4]).is_err());
    }

    #[test]
    fn project_concat_into_reuses_scratch() {
        let a = Tuple::new(vec![Value::Int(1), Value::str("left")]);
        let b = Tuple::new(vec![Value::Int(2), Value::str("right")]);
        let mut scratch = Vec::new();
        for _ in 0..3 {
            let got = Tuple::project_concat_into(&a, &b, &[3, 0, 1], &mut scratch).unwrap();
            assert_eq!(got, a.concat(&b).project(&[3, 0, 1]).unwrap());
            assert!(scratch.is_empty(), "scratch drained into the tuple");
            assert!(scratch.capacity() >= 3, "capacity retained for reuse");
        }
        // Errors also leave the scratch empty and reusable.
        assert!(Tuple::project_concat_into(&a, &b, &[9], &mut scratch).is_err());
        assert!(scratch.is_empty());
        assert!(Tuple::project_concat_into(&a, &b, &[0], &mut scratch).is_ok());
    }

    #[test]
    fn small_int_rows_are_inline_and_clone_without_sharing() {
        let t = Tuple::from_ints(&[1, 2, 3]);
        assert!(t.is_inline());
        let c = t.clone();
        assert_eq!(t, c);
        assert!(!Tuple::ptr_eq(&t, &c), "inline rows have no shared payload");

        let big = Tuple::from_ints(&[1, 2, 3, 4, 5]);
        assert!(!big.is_inline());
        let shared = big.clone();
        assert!(
            Tuple::ptr_eq(&big, &shared),
            "large rows share their payload"
        );

        let stringy = Tuple::new(vec![Value::str("s")]);
        assert!(!stringy.is_inline(), "string rows never inline");
    }

    #[test]
    fn representations_compare_and_hash_identically() {
        use std::collections::hash_map::DefaultHasher;
        let inline = Tuple::from_ints(&[7, 8]);
        let shared = Tuple {
            repr: Repr::Shared(vec![Value::Int(7), Value::Int(8)].into()),
        };
        assert!(inline.is_inline() && !shared.is_inline());
        assert_eq!(inline, shared);
        assert_eq!(inline.cmp(&shared), std::cmp::Ordering::Equal);
        let hash = |t: &Tuple| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&inline), hash(&shared));
        assert_eq!(inline.est_bytes(), shared.est_bytes());
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(t.to_string(), "[1, 'x']");
    }

    #[test]
    fn bytes_estimate_grows_with_arity() {
        let small = Tuple::from_ints(&[1]);
        let large = Tuple::from_ints(&[1, 2, 3, 4]);
        assert!(large.est_bytes() > small.est_bytes());
    }

    #[test]
    fn est_bytes_is_logical_not_physical() {
        // A shared clone reports the same bytes as the original: the
        // accounting models ownership, per the paper's §5 memory argument.
        let t = Tuple::new(vec![Value::str("abcdefgh"), Value::Int(1)]);
        let c = t.clone();
        assert!(Tuple::ptr_eq(&t, &c));
        assert_eq!(t.est_bytes(), c.est_bytes());
        // And matches the historical formula exactly.
        assert_eq!(t.est_bytes(), 16 + (8 + 16 + 8) + (8 + 8));
    }

    #[test]
    fn serde_roundtrip() {
        for t in [
            Tuple::from_ints(&[1, 2, 3]),
            Tuple::from_ints(&[1, 2, 3, 4, 5, 6]),
            Tuple::new(vec![Value::Int(-1), Value::str("x y")]),
        ] {
            let json = serde_json::to_string(&t).unwrap();
            let back: Tuple = serde_json::from_str(&json).unwrap();
            assert_eq!(back, t);
        }
    }
}
