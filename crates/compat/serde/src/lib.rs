//! Minimal stand-in for the `serde` crate with a *real* data model.
//!
//! The build environment cannot fetch crates.io, so this shim supplies the
//! subset of serde the workspace actually uses: `Serialize`/`Deserialize`
//! traits routed through a self-describing [`Value`] tree, plus derive
//! macros (from the sibling `serde_derive` shim) that generate genuine
//! field-by-field implementations for plain structs and enums. The
//! `serde_json` compat crate renders [`Value`] to JSON text and parses it
//! back, which is what `ExperimentSpec` files and the JSONL round sinks
//! ride on. Swapping for the real serde is still a one-line change in
//! `[workspace.dependencies]`; call sites only use `derive`,
//! `serde_json::to_string*` and `serde_json::from_str`, which the real
//! crates provide verbatim.
//!
//! Encoding conventions (matching serde's external tagging):
//!
//! * named-field structs → [`Value::Map`] in declaration order,
//! * newtype structs → the inner value,
//! * unit enum variants → [`Value::Str`] of the variant name,
//! * data-carrying variants → single-entry map `{ "Variant": payload }`.

#![warn(missing_docs)]

// The derives emit `impl serde::... for T`; inside this crate's own tests
// that path must resolve back to us.
#[cfg(test)]
extern crate self as serde;

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;

/// A self-describing serialized tree — the meeting point of
/// [`Serialize`], [`Deserialize`] and the `serde_json` text format.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also `Option::None`).
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer (negative number literals).
    Int(i64),
    /// An unsigned integer (non-negative number literals).
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string (also unit enum variants).
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map with string keys (structs, struct variants).
    Map(Vec<(String, Value)>),
}

/// A `'static` null, so absent map fields can be handed out by reference.
pub const NULL: Value = Value::Null;

impl Value {
    /// Human-readable name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }

    /// Looks up a key in a [`Value::Map`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A (de)serialization error: a message plus the path where it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
    path: Vec<String>,
}

impl Error {
    /// An error with a custom message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error {
            msg: msg.into(),
            path: Vec::new(),
        }
    }

    /// "Expected X, found Y" for a mistyped value.
    pub fn invalid_type(expected: &str, found: &Value) -> Self {
        Error::custom(format!("expected {expected}, found {}", found.kind()))
    }

    /// An enum variant name that the type does not have.
    pub fn unknown_variant(ty: &str, variant: &str) -> Self {
        Error::custom(format!("unknown {ty} variant `{variant}`"))
    }

    /// Returns the error with `segment` prepended to its path (derives
    /// call this as errors bubble out of nested fields).
    #[must_use]
    pub fn at(mut self, segment: &str) -> Self {
        self.path.insert(0, segment.to_string());
        self
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "{}: {}", self.path.join("."), self.msg)
        }
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves into a [`Value`] tree.
pub trait Serialize {
    /// Serializes `self`.
    fn to_value(&self) -> Value;

    /// Serializes `self`, borrowing where `self` already is a tree: a
    /// [`Value`] hands out itself, every other type builds one with
    /// [`Serialize::to_value`]. Writers call this, so serializing a
    /// `Value` never deep-copies it.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Types that can reconstruct themselves from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes from `value`.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Helpers the derive-generated code calls (public, but not part of the
// intended user surface).
// ---------------------------------------------------------------------------

/// Map-field lookup that treats an absent key as `null`, so `Option`
/// fields may simply be omitted from spec files.
pub fn field_or_null<'a>(value: &'a Value, name: &str) -> &'a Value {
    value.get(name).unwrap_or(&NULL)
}

/// Deserializes map field `name` — an absent key reads as `null`, so
/// `Option` fields may be omitted — and prefixes any error with the
/// field's name. Derived `Deserialize` impls initialise every named field
/// through this; hand-written state-restore code uses it the same way.
pub fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, Error> {
    T::from_value(field_or_null(value, name)).map_err(|e| e.at(name))
}

/// Wraps a data-carrying enum variant: `{ "Variant": payload }`.
pub fn variant(name: &str, payload: Value) -> Value {
    Value::Map(vec![(name.to_string(), payload)])
}

/// Splits a single-entry map into `(variant name, payload)`.
pub fn variant_parts(value: &Value) -> Option<(&str, &Value)> {
    match value {
        Value::Map(entries) if entries.len() == 1 => Some((entries[0].0.as_str(), &entries[0].1)),
        _ => None,
    }
}

/// Expects a sequence of exactly `n` elements (tuple structs/variants).
pub fn seq_of<'a>(value: &'a Value, ty: &str, n: usize) -> Result<&'a [Value], Error> {
    match value {
        Value::Seq(items) if items.len() == n => Ok(items),
        Value::Seq(items) => Err(Error::custom(format!(
            "{ty} expects {n} elements, found {}",
            items.len()
        ))),
        other => Err(Error::invalid_type("sequence", other)),
    }
}

// ---------------------------------------------------------------------------
// Implementations for the primitive / container types the workspace uses.
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = match value {
                    Value::UInt(u) => *u,
                    Value::Int(i) if *i >= 0 => *i as u64,
                    other => return Err(Error::invalid_type("unsigned integer", other)),
                };
                <$t>::try_from(raw).map_err(|_| {
                    Error::custom(format!(
                        "{raw} out of range for {}", stringify!($t)
                    ))
                })
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = match value {
                    Value::Int(i) => *i,
                    Value::UInt(u) => i64::try_from(*u)
                        .map_err(|_| Error::custom(format!("{u} overflows i64")))?,
                    other => return Err(Error::invalid_type("integer", other)),
                };
                <$t>::try_from(raw).map_err(|_| {
                    Error::custom(format!(
                        "{raw} out of range for {}", stringify!($t)
                    ))
                })
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            Value::UInt(u) => Ok(*u as f64),
            other => Err(Error::invalid_type("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        // f32 → f64 is exact, so the round-trip recovers the f32 bits.
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        f64::from_value(value).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::invalid_type("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::invalid_type("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
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

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| T::from_value(v).map_err(|e| e.at(&format!("[{i}]"))))
                .collect(),
            other => Err(Error::invalid_type("sequence", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `use serde_derive::...` resolves to the proc-macro crate; within this
    // crate's tests we exercise the full `#[derive]` path end to end.
    #[derive(crate::Serialize, crate::Deserialize, Debug, PartialEq)]
    struct Plain {
        x: u32,
        label: String,
        maybe: Option<f64>,
    }

    #[derive(crate::Serialize, crate::Deserialize, Debug, PartialEq)]
    struct Sparse {
        x: u32,
        #[serde(skip_serializing_if = "Option::is_none")]
        note: Option<String>,
    }

    #[derive(crate::Serialize, crate::Deserialize, Debug, PartialEq)]
    struct Newtype(usize);

    #[derive(crate::Serialize, crate::Deserialize, Debug, PartialEq)]
    enum Kind {
        A,
        B(u8),
        C { lr: f32, steps: usize },
    }

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let got = T::from_value(&v.to_value()).expect("round-trip");
        assert_eq!(got, v);
    }

    #[test]
    fn struct_roundtrips_field_by_field() {
        roundtrip(Plain {
            x: 7,
            label: "hi".into(),
            maybe: Some(0.25),
        });
        roundtrip(Plain {
            x: 0,
            label: String::new(),
            maybe: None,
        });
    }

    #[test]
    fn missing_optional_field_defaults_to_none() {
        let v = Value::Map(vec![
            ("x".into(), Value::UInt(1)),
            ("label".into(), Value::Str("l".into())),
        ]);
        let p = Plain::from_value(&v).expect("missing Option field is fine");
        assert_eq!(p.maybe, None);
    }

    #[test]
    fn missing_required_field_errors_with_path() {
        let v = Value::Map(vec![("x".into(), Value::UInt(1))]);
        let err = Plain::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("label"), "{err}");
    }

    #[test]
    fn skip_serializing_if_omits_the_field_and_absent_reads_back_none() {
        let bare = Sparse { x: 1, note: None };
        assert_eq!(
            bare.to_value(),
            Value::Map(vec![("x".into(), Value::UInt(1))])
        );
        roundtrip(bare);
        let noted = Sparse {
            x: 2,
            note: Some("n".into()),
        };
        assert_eq!(noted.to_value().get("note"), Some(&Value::Str("n".into())));
        roundtrip(noted);
    }

    #[test]
    fn field_reads_absent_keys_as_null_and_names_the_failing_field() {
        let v = Value::Map(vec![("n".into(), Value::Str("x".into()))]);
        assert_eq!(field::<Option<u8>>(&v, "absent").unwrap(), None);
        let err = field::<u8>(&v, "n").unwrap_err();
        assert!(err.to_string().starts_with("n: "), "{err}");
    }

    #[test]
    fn as_value_borrows_a_tree_and_builds_everything_else() {
        let tree = Value::Seq(vec![Value::UInt(1)]);
        assert!(matches!(tree.as_value(), Cow::Borrowed(v) if std::ptr::eq(v, &tree)));
        assert!(matches!(Serialize::as_value(&&tree), Cow::Borrowed(v) if std::ptr::eq(v, &tree)));
        assert_eq!(7u8.as_value(), Cow::<Value>::Owned(Value::UInt(7)));
    }

    #[test]
    fn newtype_is_transparent() {
        assert_eq!(Newtype(9).to_value(), Value::UInt(9));
        roundtrip(Newtype(9));
    }

    #[test]
    fn enum_variants_roundtrip() {
        roundtrip(Kind::A);
        roundtrip(Kind::B(3));
        roundtrip(Kind::C {
            lr: 0.125,
            steps: 10,
        });
        assert_eq!(Kind::A.to_value(), Value::Str("A".into()));
        assert!(matches!(Kind::B(1).to_value(), Value::Map(_)));
    }

    #[test]
    fn unknown_variant_is_an_error() {
        let err = Kind::from_value(&Value::Str("Z".into())).unwrap_err();
        assert!(err.to_string().contains("unknown"), "{err}");
    }

    #[test]
    fn numeric_coercions_are_checked() {
        assert_eq!(u8::from_value(&Value::UInt(255)).unwrap(), 255);
        assert!(u8::from_value(&Value::UInt(256)).is_err());
        assert!(usize::from_value(&Value::Int(-1)).is_err());
        assert_eq!(f64::from_value(&Value::Int(-2)).unwrap(), -2.0);
        assert_eq!(f32::from_value(&Value::Float(0.1)).unwrap(), 0.1f32);
    }
}
