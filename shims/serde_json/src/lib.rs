//! Offline stand-in for `serde_json`, over the vendored serde [`Value`]
//! model: `to_string`, `to_string_pretty`, `from_str`, `from_slice`, and a
//! recursive-descent JSON parser.

#![forbid(unsafe_code)]

pub use serde::value::{Error, Value};

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

/// Parse JSON text into a typed value.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&parse(s)?)
}

/// Parse JSON bytes into a typed value.
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Parse JSON text into the generic [`Value`] tree.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at byte {} of JSON input",
            p.pos
        )));
    }
    Ok(v)
}

/// Deepest nesting of arrays and objects the parser accepts. It descends
/// one stack frame pair per level, and input reaches it from the network
/// (a daemon request body of nothing but `[` must be an error, not a stack
/// overflow); nothing this workspace writes nests deeper than a dozen.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::msg(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// Parse one array or object, counting it against [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "JSON nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(xs));
        }
        loop {
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(xs));
                }
                _ => return Err(Error::msg(format!("expected ',' or ']' at {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::msg(format!("expected ',' or '}}' at {}", self.pos))),
            }
        }
    }

    /// Parse one string literal in time linear in its length: the bytes up
    /// to the next `"` or `\` are one run, checked as UTF-8 once and copied
    /// as a slice. Input reaches this from the network, so a request body
    /// that is one long literal must cost its bytes once, like any other.
    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.run()?;
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    // A literal without escapes is one exact-size copy.
                    if out.is_empty() {
                        return Ok(run.to_owned());
                    }
                    out.push_str(run);
                    return Ok(out);
                }
                Some(_) => {
                    if out.capacity() == 0 {
                        // Once, on the first escape: an escape decodes to
                        // fewer bytes than it is written in.
                        out.reserve(run.len() + self.raw_len());
                    }
                    out.push_str(run);
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
            }
        }
    }

    /// The bytes from `pos` up to the next `"` or `\` (or the end of the
    /// input), consumed. Both delimiters are ASCII, so the run ends on a
    /// character boundary.
    fn run(&mut self) -> Result<&'a str, Error> {
        let rest = &self.bytes[self.pos..];
        let len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        self.pos += len;
        std::str::from_utf8(&rest[..len]).map_err(|e| Error::msg(format!("invalid UTF-8: {e}")))
    }

    /// Bytes from `pos` to the quote that closes the literal (or the end of
    /// the input), escapes counted as written.
    fn raw_len(&self) -> usize {
        let mut i = self.pos;
        while let Some(&b) = self.bytes.get(i) {
            match b {
                b'"' => break,
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
        i.min(self.bytes.len()) - self.pos
    }

    /// Decode the escape whose backslash was just consumed.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let code = self.hex4(self.pos + 1)?;
                self.pos += 4;
                // A high surrogate and the `\uXXXX` low surrogate right after
                // it are one scalar; a surrogate on its own is U+FFFD.
                let low = match (code, self.bytes.get(self.pos + 1..self.pos + 3)) {
                    (0xD800..=0xDBFF, Some(b"\\u")) => self
                        .hex4(self.pos + 3)
                        .ok()
                        .filter(|low| (0xDC00..=0xDFFF).contains(low)),
                    _ => None,
                };
                let code = match low {
                    Some(low) => {
                        self.pos += 6;
                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                    }
                    None => code,
                };
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            other => {
                return Err(Error::msg(format!("bad escape {other:?}")));
            }
        }
        self.pos += 1;
        Ok(())
    }

    /// The four hex digits at `at` as a code unit.
    fn hex4(&self, at: usize) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| Error::msg("bad \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| Error::msg("bad \\u escape"))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::msg(format!("bad number {text:?}")))
    }
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
    fn nesting_is_capped_not_a_stack_overflow() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        // A megabyte of unclosed brackets used to abort the process.
        let err = parse(&"[".repeat(1 << 20)).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
        let objects = r#"{"a":"#.repeat(100_000);
        assert!(parse(&objects).is_err());
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
