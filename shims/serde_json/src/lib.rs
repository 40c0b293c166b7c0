//! Offline stand-in for `serde_json`, over the vendored serde [`Value`]
//! model: `to_string`, `to_string_pretty`, `from_str`, `from_slice` and
//! `parse`, all reading through the shim's one [`serde::Parser`].

#![forbid(unsafe_code)]

pub use serde::value::{Error, Value};
use serde::Parser;

/// Render any serializable value as compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json())
}

/// Render any serializable value as pretty (2-space indented) JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json_pretty())
}

/// Convert a serializable value into the [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Rebuild a typed value from the [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(v: &Value) -> Result<T, Error> {
    T::from_value(v)
}

/// Parse JSON text into a typed value, pulled straight from the text by
/// [`serde::Deserialize::from_parser`]. A failure carries the message the
/// tree read ([`parse`] then `from_value`) gives for the same text: errors
/// are cold, so the message is re-derived there rather than kept in step
/// by hand.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser::new(s);
    T::from_parser(&mut p)
        .and_then(|v| p.end().map(|()| v))
        .map_err(|pulled| match parse(s).and_then(|v| T::from_value(&v)) {
            Err(tree) => tree,
            Ok(_) => pulled,
        })
}

/// Parse JSON bytes into a typed value.
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Parse JSON text into the generic [`Value`] tree.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "42", "-7", "3.5"] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_json(), text);
        }
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"a":[1,2,{"b":"x\ny"}],"c":null,"d":-2.5}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn index_and_accessors() {
        let v = parse(r#"{"design":"DXbar","x":1.5,"n":3}"#).unwrap();
        assert_eq!(v["design"], "DXbar");
        assert_eq!(v["x"].as_f64(), Some(1.5));
        assert_eq!(v["n"].as_u64(), Some(3));
        assert!(v["missing"].is_null());
    }

    #[test]
    fn float_integers_keep_marker() {
        let v = Value::F64(2.0);
        assert_eq!(v.to_json(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Value::F64(2.0));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let s = |text: &str| parse(text).map(|v| v.as_str().map(String::from));
        // How most writers escape non-BMP text.
        assert_eq!(s(r#""\ud83d\ude00""#).unwrap().unwrap(), "\u{1F600}");
        assert_eq!(s(r#""a\uD83D\uDE00b""#).unwrap().unwrap(), "a\u{1F600}b");
        // A surrogate on its own still parses, as U+FFFD.
        assert_eq!(s(r#""\ud83d""#).unwrap().unwrap(), "\u{FFFD}");
        assert_eq!(s(r#""\ud83dx""#).unwrap().unwrap(), "\u{FFFD}x");
        assert_eq!(s(r#""\ud83d\u0041""#).unwrap().unwrap(), "\u{FFFD}A");
        assert_eq!(s(r#""\ude00""#).unwrap().unwrap(), "\u{FFFD}");
        assert_eq!(s(r#""\ude00\ud83d""#).unwrap().unwrap(), "\u{FFFD}\u{FFFD}");
        assert_eq!(
            s(r#""\ud83d\ud83d\ude00""#).unwrap().unwrap(),
            "\u{FFFD}\u{1F600}"
        );
        // A pair split by the end of the input is an error, not a panic.
        for cut in [
            r#""\ud83d"#,
            r#""\ud83d\"#,
            r#""\ud83d\u"#,
            r#""\ud83d\ude0"#,
        ] {
            assert!(s(cut).is_err(), "{cut}");
        }
        assert!(s(r#""\ud83d\uzzzz""#).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
    }
}
