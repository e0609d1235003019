//! Offline stand-in for the `serde` crate.
//!
//! The build container has no network access, so the real crate cannot be
//! fetched. This shim keeps the workspace's `serde_json` surface working by
//! collapsing serde's serializer abstraction into one concrete data model:
//! [`Serialize`] converts any value into a JSON-shaped [`Value`] tree, which
//! `serde_json` then prints or parses.

pub mod value;

pub use value::Value;

/// Convert a value into the JSON data model (stand-in for
/// `serde::Serialize`; the serializer-visitor indirection is collapsed into
/// a concrete [`Value`] tree).
pub trait Serialize {
    /// The value as a JSON tree.
    fn to_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
    )*};
}

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}

ser_uint!(u8, u16, u32, u64, usize);
ser_int!(i8, i16, i32, i64, isize);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

// Tuples serialize as fixed-length arrays, as in upstream serde.
macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
    )*};
}

ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Serialize, S> Serialize for std::collections::HashMap<String, V, S> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort map keys like serde_json's "preserve
        // nothing" BTreeMap feature would.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_expected_variants() {
        assert_eq!(3usize.to_value(), Value::UInt(3));
        assert_eq!((-2i32).to_value(), Value::Int(-2));
        assert_eq!(1.5f64.to_value(), Value::Float(1.5));
        assert_eq!("x".to_value(), Value::String("x".into()));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!(Option::<u32>::None.to_value(), Value::Null);
    }

    #[test]
    fn collections_nest() {
        let v = vec![(String::from("a"), 1u64)].to_value();
        assert_eq!(
            v,
            Value::Array(vec![Value::Array(vec![
                Value::String("a".into()),
                Value::UInt(1)
            ])])
        );
    }
}
