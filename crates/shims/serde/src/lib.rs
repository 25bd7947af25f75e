//! Minimal, offline stand-in for the `serde` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the tiny subset of serde it actually uses: a
//! self-describing JSON value model, `Serialize`/`Deserialize` traits over
//! it for primitives, `Vec`, `Option` and arrays, and derive macros
//! (re-exported from `serde_derive`) for plain named-field structs without
//! `#[serde(...)]` attributes. `serde_json` provides `to_string`/`from_str`
//! on top.
//!
//! The external JSON shape follows real serde's defaults: a struct is an
//! object keyed by its field names.

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A signed integer (also used for unsigned values that fit).
    Int(i64),
    /// An unsigned integer above `i64::MAX`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, with insertion order preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error: what was expected and what was found.
#[derive(Clone, Debug, PartialEq)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Serializes a value into the JSON data model.
pub trait Serialize {
    /// Converts `self` to a [`JsonValue`].
    fn to_json(&self) -> JsonValue;
}

/// Reconstructs a value from the JSON data model.
pub trait Deserialize: Sized {
    /// Parses `self` out of a [`JsonValue`].
    fn from_json(v: &JsonValue) -> Result<Self, DeError>;
}

// ---- the helper generated code uses ----

/// Fetches and deserializes a named field of an object.
pub fn field<T: Deserialize>(v: &JsonValue, name: &str) -> Result<T, DeError> {
    let inner = v
        .get(name)
        .ok_or_else(|| DeError(format!("missing field `{name}`")))?;
    T::from_json(inner).map_err(|e| DeError(format!("field `{name}`: {}", e.0)))
}

// ---- primitive impls ----

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> JsonValue {
                JsonValue::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_json(v: &JsonValue) -> Result<Self, DeError> {
                match v {
                    JsonValue::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    JsonValue::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    other => Err(DeError(format!(
                        "expected {}, found {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}

int_impl!(i8, i16, i32, i64, u8, u16, u32, isize);

// usize/u64 may exceed i64; serialize through UInt when needed.
macro_rules! uint_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> JsonValue {
                match i64::try_from(*self) {
                    Ok(n) => JsonValue::Int(n),
                    Err(_) => JsonValue::UInt(*self as u64),
                }
            }
        }
        impl Deserialize for $t {
            fn from_json(v: &JsonValue) -> Result<Self, DeError> {
                match v {
                    JsonValue::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    JsonValue::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    other => Err(DeError(format!(
                        "expected {}, found {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}

uint_impl!(u64, usize);

macro_rules! float_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> JsonValue {
                JsonValue::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_json(v: &JsonValue) -> Result<Self, DeError> {
                match v {
                    JsonValue::Float(n) => Ok(*n as $t),
                    JsonValue::Int(n) => Ok(*n as $t),
                    JsonValue::UInt(n) => Ok(*n as $t),
                    other => Err(DeError(format!(
                        "expected {}, found {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}

float_impl!(f32, f64);

impl Serialize for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json(v: &JsonValue) -> Result<Self, DeError> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(DeError(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json(v: &JsonValue) -> Result<Self, DeError> {
        match v {
            JsonValue::Str(s) => Ok(s.clone()),
            other => Err(DeError(format!("expected string, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(v: &JsonValue) -> Result<Self, DeError> {
        match v {
            JsonValue::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(DeError(format!("expected array, found {other:?}"))),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_json(v: &JsonValue) -> Result<Self, DeError> {
        let vec = Vec::<T>::from_json(v)?;
        let len = vec.len();
        vec.try_into()
            .map_err(|_| DeError(format!("expected array of {N}, found {len}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(v) => v.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(v: &JsonValue) -> Result<Self, DeError> {
        match v {
            JsonValue::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl Serialize for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

impl Deserialize for JsonValue {
    fn from_json(v: &JsonValue) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(i64::from_json(&42i64.to_json()).unwrap(), 42);
        assert_eq!(u64::from_json(&u64::MAX.to_json()).unwrap(), u64::MAX);
        assert_eq!(f64::from_json(&1.5f64.to_json()).unwrap(), 1.5);
        assert_eq!(String::from_json(&"x".to_string().to_json()).unwrap(), "x");
        assert!(bool::from_json(&true.to_json()).unwrap());
        assert_eq!(
            Vec::<i64>::from_json(&vec![1i64, 2].to_json()).unwrap(),
            vec![1, 2]
        );
        assert_eq!(<[u64; 2]>::from_json(&[3u64, 4].to_json()).unwrap(), [3, 4]);
        assert_eq!(Option::<i64>::from_json(&JsonValue::Null).unwrap(), None);
    }

    #[test]
    fn type_errors_surface() {
        assert!(i64::from_json(&JsonValue::Str("x".into())).is_err());
        assert!(bool::from_json(&JsonValue::Int(1)).is_err());
        assert!(<[i64; 2]>::from_json(&vec![1i64].to_json()).is_err());
    }
}
