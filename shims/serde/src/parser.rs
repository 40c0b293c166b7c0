//! The JSON reader both deserialization paths share.
//!
//! [`Parser::value`] builds the dynamic [`Value`] tree. The step methods
//! ([`Parser::begin_object`] / [`Parser::next_key`], [`Parser::begin_array`]
//! / [`Parser::next_element`], [`Parser::str`]) let a
//! [`crate::Deserialize::from_parser`] impl pull its fields straight from
//! the text instead: keys come back borrowed from the input, and nothing is
//! built that the caller does not keep.
//!
//! Either way the parser can *tap* what it reads. With a [`Tap`] on, every
//! token it consumes is fed, in canonical compact form, to FNV-1a or to a
//! buffer: for any input, the tapped bytes of one value are exactly
//! `Value::to_json` of that value, whether it was read as a tree, pulled
//! into a typed value or skipped. Numbers are rendered from their parsed
//! value (`01` taps as `1`, `1E5` as `100000.0`), and strings with their
//! escapes normalised. A checksum over a payload therefore costs no second
//! pass and no tree.

use crate::value::{write_escaped, write_f64, Error, Value};
use std::borrow::Cow;

/// Deepest nesting of arrays and objects the parser accepts. It descends
/// one stack frame pair per level, and input reaches it from the network
/// (a daemon request body of nothing but `[` must be an error, not a stack
/// overflow); nothing this workspace writes nests deeper than a dozen.
const MAX_DEPTH: usize = 128;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Where a tapping [`Parser`] sends the canonical rendering of what it reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tap {
    /// FNV-1a 64 state over the rendering so far.
    Fnv1a(u64),
    /// The rendering itself, for a caller that hashes or compares it.
    Buffer(Vec<u8>),
}

impl Tap {
    /// FNV-1a 64 over nothing yet.
    pub const FNV1A: Tap = Tap::Fnv1a(FNV_OFFSET);

    fn emit(&mut self, bytes: &[u8]) {
        match self {
            Tap::Fnv1a(h) => {
                for &b in bytes {
                    *h ^= b as u64;
                    *h = h.wrapping_mul(FNV_PRIME);
                }
            }
            Tap::Buffer(out) => out.extend_from_slice(bytes),
        }
    }

    fn emit_u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.emit(&digits[at..]);
    }
}

/// A recursive-descent JSON reader over borrowed bytes.
#[derive(Debug, Clone)]
pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// An array or object was just opened: the next `next_*` call reads its
    /// first entry, which has no comma before it.
    fresh: bool,
    tap: Option<Tap>,
    /// Reused for rendering floats and escaped strings into the tap.
    scratch: String,
}

impl<'a> Parser<'a> {
    pub fn new(text: &'a str) -> Parser<'a> {
        Parser::from_bytes(text.as_bytes())
    }

    /// A parser over raw bytes. Input that is not UTF-8 is a parse error
    /// where it is met: inside a string literal, or as an unexpected byte
    /// anywhere else. So whatever parses was UTF-8.
    pub fn from_bytes(bytes: &'a [u8]) -> Parser<'a> {
        Parser {
            bytes,
            pos: 0,
            depth: 0,
            fresh: false,
            tap: None,
            scratch: String::new(),
        }
    }

    /// Start feeding the canonical rendering of everything read from here
    /// on into `tap`, replacing any tap already on.
    pub fn tap(&mut self, tap: Tap) {
        self.tap = Some(tap);
    }

    /// Stop tapping and hand back the tap with what it was fed.
    pub fn untap(&mut self) -> Option<Tap> {
        self.tap.take()
    }

    /// The next byte after whitespace, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// Whitespace to the end of the input, or an error for what follows.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error::msg(format!(
                "trailing characters at byte {} of JSON input",
                self.pos
            )));
        }
        Ok(())
    }

    /// Read one value of any shape as a [`Value`] tree.
    pub fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.keyword("null") => Ok(Value::Null),
            Some(b't') if self.keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.str()?.into_owned())),
            Some(b'[') => {
                self.begin_array()?;
                let mut xs = Vec::new();
                while self.next_element()? {
                    xs.push(self.value()?);
                }
                Ok(Value::Array(xs))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let v = self.value()?;
                    pairs.push((key.into_owned(), v));
                }
                Ok(Value::Object(pairs))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::msg(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// Read one value and drop it. It is checked, and tapped, exactly as
    /// [`Parser::value`] would.
    pub fn skip(&mut self) -> Result<(), Error> {
        self.value().map(drop)
    }

    /// Open an object: `{`. Read its entries with [`Parser::next_key`].
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{')
    }

    /// The next key of the object being read, its `:` consumed, or `None`
    /// once the closing `}` has been read. The caller reads the key's value
    /// before asking again.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.skip_ws();
        self.expect(b':')?;
        self.emit(b":");
        Ok(Some(key))
    }

    /// Open an array: `[`. Read its elements with [`Parser::next_element`].
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[')
    }

    /// Whether the array being read has another element (the caller reads
    /// it next), or `false` once the closing `]` has been read.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.next_entry(b']')
    }

    /// Read one string literal, borrowed from the input unless it holds
    /// escapes. Costs its bytes once: the bytes up to the next `"` or `\`
    /// are one run, checked as UTF-8 once (a request body that is one long
    /// literal must cost no more than any other).
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        self.skip_ws();
        self.expect(b'"')?;
        let mut out = String::new();
        let s = loop {
            let run = self.run()?;
            match self.byte() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    // An escape always decodes to something, so an empty
                    // `out` means a literal without escapes.
                    if out.is_empty() {
                        break Cow::Borrowed(run);
                    }
                    out.push_str(run);
                    break Cow::Owned(out);
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
        };
        self.emit_str(&s);
        Ok(s)
    }

    fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        loop {
            match self.byte() {
                Some(b'\t' | b'\n' | b'\r') => self.pos += 1,
                Some(b' ') => {
                    // Pretty-printed text is mostly indentation: step over
                    // a run of spaces up to eight at a time.
                    let Some(eight) = self.bytes[self.pos..].first_chunk::<8>() else {
                        self.pos += 1;
                        continue;
                    };
                    let others = u64::from_le_bytes(*eight) ^ u64::from_le_bytes([b' '; 8]);
                    self.pos += others.trailing_zeros() as usize / 8;
                }
                _ => return,
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos,
                self.byte().map(|c| c as char)
            )))
        }
    }

    fn emit(&mut self, bytes: &[u8]) {
        if let Some(tap) = &mut self.tap {
            tap.emit(bytes);
        }
    }

    fn emit_str(&mut self, s: &str) {
        let Some(tap) = &mut self.tap else {
            return;
        };
        if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
            tap.emit(b"\"");
            tap.emit(s.as_bytes());
            tap.emit(b"\"");
        } else {
            self.scratch.clear();
            write_escaped(&mut self.scratch, s);
            tap.emit(self.scratch.as_bytes());
        }
    }

    fn keyword(&mut self, kw: &'static str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            self.emit(kw.as_bytes());
            true
        } else {
            false
        }
    }

    /// Consume `open`, counting it against [`MAX_DEPTH`].
    fn open(&mut self, open: u8) -> Result<(), Error> {
        self.skip_ws();
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "JSON nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.expect(open)?;
        self.depth += 1;
        self.fresh = true;
        self.emit(&[open]);
        Ok(())
    }

    /// Step to the next entry of the array or object being read: `true`
    /// when there is one (its separating comma consumed), `false` when
    /// `close` ended the container.
    fn next_entry(&mut self, close: u8) -> Result<bool, Error> {
        let first = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                self.emit(&[close]);
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                self.emit(b",");
                Ok(true)
            }
            _ => Err(Error::msg(format!(
                "expected ',' or '{}' at {}",
                close as char, self.pos
            ))),
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
        match self.byte() {
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

    /// A non-negative integer literal, when that is what comes next:
    /// consumed, tapped and returned. Anything else — a sign, a fraction or
    /// exponent, an integer past `u64::MAX`, another kind of value — is left
    /// unread, for [`Parser::value`] to read or reject.
    pub(crate) fn unsigned(&mut self) -> Option<u64> {
        self.skip_ws();
        let mut n = 0u64;
        let mut at = self.pos;
        while let Some(&c @ b'0'..=b'9') = self.bytes.get(at) {
            n = n.checked_mul(10)?.checked_add(u64::from(c - b'0'))?;
            at += 1;
        }
        if at == self.pos || matches!(self.bytes.get(at), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        self.pos = at;
        if let Some(tap) = &mut self.tap {
            tap.emit_u64(n);
        }
        Some(n)
    }

    fn number(&mut self) -> Result<Value, Error> {
        if let Some(n) = self.unsigned() {
            return Ok(Value::U64(n));
        }
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        let mut is_float = false;
        if self.byte() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        // Only ASCII signs, digits, '.' and exponents were consumed.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        let int = if is_float {
            None
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .or_else(|_| text.parse::<i64>().map(Value::I64))
                .ok()
        };
        let n = match int {
            Some(n) => n,
            None => text
                .parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::msg(format!("bad number {text:?}")))?,
        };
        if let Some(tap) = &mut self.tap {
            match n {
                Value::U64(n) => tap.emit_u64(n),
                Value::I64(n) => {
                    if n < 0 {
                        tap.emit(b"-");
                    }
                    tap.emit_u64(n.unsigned_abs());
                }
                Value::F64(x) => {
                    self.scratch.clear();
                    write_f64(&mut self.scratch, x);
                    tap.emit(self.scratch.as_bytes());
                }
                _ => {}
            }
        }
        Ok(n)
    }

    fn digits(&mut self) {
        while matches!(self.byte(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tapped(text: &str) -> Result<(Value, String), Error> {
        let mut p = Parser::new(text);
        p.tap(Tap::Buffer(Vec::new()));
        let v = p.value()?;
        p.end()?;
        match p.untap() {
            Some(Tap::Buffer(b)) => Ok((v, String::from_utf8(b).expect("tap emits UTF-8"))),
            other => panic!("buffer tap came back as {other:?}"),
        }
    }

    fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser::new(text);
        let v = p.value()?;
        p.end().map(|()| v)
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
    fn the_tap_renders_canonical_compact_json() {
        for text in [
            r#" { "a" : [ 1 , 2.50 , -0 , 01 , 1E5 , -.5 , 1. ] , "b" : "xA\n\/" } "#,
            r#"{"k":{"k":{"k":[[],{},null,true,false]}},"k":"dup"}"#,
            r#""😀 \ud83d tab\there""#,
            "18446744073709551615",
            "-9223372036854775808",
            "1e400",
        ] {
            let (v, tap) = tapped(text).unwrap();
            assert_eq!(tap, v.to_json(), "{text}");
        }
    }

    #[test]
    fn the_fnv_tap_hashes_what_the_buffer_tap_holds() {
        let text = r#"{"sum":"x","result":{"a":[1,2,3],"b":0.25}}"#;
        let (_, rendered) = tapped(text).unwrap();
        let mut p = Parser::new(text);
        p.tap(Tap::FNV1A);
        p.skip().unwrap();
        let mut want = Tap::FNV1A;
        want.emit(rendered.as_bytes());
        assert_eq!(p.untap(), Some(want));
    }

    #[test]
    fn pulled_keys_borrow_unless_escaped() {
        let mut p = Parser::new(r#"{"plain":1,"esc\u0061ped":2}"#);
        p.begin_object().unwrap();
        let k = p.next_key().unwrap().unwrap();
        assert!(matches!(k, Cow::Borrowed("plain")));
        p.skip().unwrap();
        let k = p.next_key().unwrap().unwrap();
        assert!(matches!(&k, Cow::Owned(s) if s == "escaped"));
        p.skip().unwrap();
        assert_eq!(p.next_key().unwrap(), None);
        p.end().unwrap();
    }

    #[test]
    fn invalid_utf8_is_a_parse_error() {
        assert!(Parser::from_bytes(b"\"\xff\"").value().is_err());
        assert!(Parser::from_bytes(b"[1,\xc3]").value().is_err());
        assert!(Parser::from_bytes(b"\"\xc3\xa9\"").value().is_ok());
    }
}
