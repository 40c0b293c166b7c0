//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of serde it actually uses: `Serialize` /
//! `Deserialize` traits over a JSON-shaped [`value::Value`] data model,
//! plus a derive macro (feature `derive`) covering named-field structs,
//! tuple structs and unit-variant enums — exactly the shapes the simulator
//! serializes. `serde_json` (also vendored) renders the model and wraps the
//! [`Parser`] that lives here.
//!
//! The simplification relative to real serde: there is no generic
//! `Serializer`/`Deserializer` driver. Serialization always goes through
//! the owned `Value` tree; for the report-sized payloads this workspace
//! writes, that is plenty — and the object model preserves field order, so
//! output is byte-deterministic.
//!
//! Deserialization has two entry points. [`Deserialize::from_value`]
//! rebuilds a value from a tree. [`Deserialize::from_parser`] reads it
//! straight from JSON text through a [`Parser`]; its default parses the
//! value's tree and defers to `from_value`, so a hand-written impl needs
//! only `from_value`. The derive, `String`, `Value`, `Option`, `Vec`,
//! arrays, tuples and the unsigned integers override it and build no tree:
//! object keys are matched as slices borrowed from the input, the first
//! occurrence of a key wins and later ones are skipped (as [`Value::get`]
//! resolves them), unknown keys are skipped, and a missing field reads as
//! `from_value(&Value::Null)`. Whatever the text, a `from_parser` read to
//! the end of it succeeds exactly when parsing the tree and calling
//! `from_value` does, with an equal value.
//!
//! A parser can also *tap* what it reads ([`Tap`]): it feeds the canonical
//! compact rendering — `Value::to_json` of the same text, byte for byte —
//! to FNV-1a or a buffer as it goes, so a payload is checksummed in the
//! pass that decodes it.

#![forbid(unsafe_code)]

pub mod parser;
pub mod value;

pub use parser::{Parser, Tap};
pub use value::{Error, Value};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Types that can render themselves into the [`Value`] data model.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from the [`Value`] data model.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Read one value straight from JSON text. Must succeed exactly when
    /// `from_value` of the value's tree does, with an equal result; the
    /// default is that by construction.
    fn from_parser(p: &mut Parser<'_>) -> Result<Self, Error> {
        Self::from_value(&p.value()?)
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| Error::msg(format!("expected unsigned integer, got {v:?}")))?;
                in_range(n)
            }

            fn from_parser(p: &mut Parser<'_>) -> Result<Self, Error> {
                match p.unsigned() {
                    Some(n) => in_range(n),
                    None => Self::from_value(&p.value()?),
                }
            }
        }
    )*};
}

fn in_range<T: TryFrom<u64>>(n: u64) -> Result<T, Error> {
    T::try_from(n).map_err(|_| {
        Error::msg(format!(
            "{n} out of range for {}",
            std::any::type_name::<T>()
        ))
    })
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::U64(n as u64)
                } else {
                    Value::I64(n)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| Error::msg(format!("expected integer, got {v:?}")))?;
                <$t>::try_from(n).map_err(|_| {
                    Error::msg(format!("{n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        // `null` round-trips non-finite floats (see `write_f64`).
        if v.is_null() {
            return Ok(f64::NAN);
        }
        v.as_f64()
            .ok_or_else(|| Error::msg(format!("expected number, got {v:?}")))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::msg(format!("expected bool, got {v:?}")))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::msg(format!("expected string, got {v:?}")))
    }

    fn from_parser(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.peek() != Some(b'"') {
            return Self::from_value(&p.value()?);
        }
        p.str().map(String::from)
    }
}

// `Value` round-trips through itself (real serde_json has the same
// self-describing behaviour for its Value).
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }

    fn from_parser(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.value()
    }
}

// Borrowed strings serialize fine but cannot be rebuilt without the
// zero-copy lifetime machinery of real serde; structs holding `&'static
// str` (the SPLASH parameter tables) are written out, never parsed back.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Err(Error::msg(format!(
            "cannot deserialize borrowed str (from {v:?}); use String"
        )))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_value(v).map(Some)
        }
    }

    fn from_parser(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.peek() == Some(b'n') {
            // `null`, or an error `value` reports.
            return p.value().map(|_| None);
        }
        T::from_parser(p).map(Some)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::msg(format!("expected array, got {v:?}")))?
            .iter()
            .map(T::from_value)
            .collect()
    }

    fn from_parser(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.peek() != Some(b'[') {
            return Self::from_value(&p.value()?);
        }
        p.begin_array()?;
        let mut xs = Vec::new();
        while p.next_element()? {
            xs.push(T::from_parser(p)?);
        }
        Ok(xs)
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

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        exactly(Vec::from_value(v)?)
    }

    fn from_parser(p: &mut Parser<'_>) -> Result<Self, Error> {
        exactly(Vec::from_parser(p)?)
    }
}

fn exactly<T: std::fmt::Debug, const N: usize>(xs: Vec<T>) -> Result<[T; N], Error> {
    let got = xs.len();
    <[T; N]>::try_from(xs)
        .map_err(|_| Error::msg(format!("expected array of length {N}, got {got}")))
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident . $idx:tt),+)),*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let xs = v
                    .as_array()
                    .ok_or_else(|| Error::msg(format!("expected tuple array, got {v:?}")))?;
                Ok(($($t::from_value(
                    xs.get($idx)
                        .ok_or_else(|| Error::msg("tuple too short"))?,
                )?,)+))
            }

            fn from_parser(p: &mut Parser<'_>) -> Result<Self, Error> {
                if p.peek() != Some(b'[') {
                    return Self::from_value(&p.value()?);
                }
                p.begin_array()?;
                let tuple = ($({
                    if !p.next_element()? {
                        return Err(Error::msg("tuple too short"));
                    }
                    $t::from_parser(p)?
                },)+);
                // Elements past the tuple's arity are ignored, as the tree
                // read ignores them.
                while p.next_element()? {
                    p.skip()?;
                }
                Ok(tuple)
            }
        }
    )*};
}

impl_tuple!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));
