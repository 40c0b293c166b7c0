//! String literals: `parse` against a character-at-a-time reference scanner
//! over generated documents, the writer's output read back, and a pin on
//! parse time growing with the bytes of a document, not their square.

use proptest::prelude::*;
use serde_json::{parse, Value};
use std::time::{Duration, Instant};

/// The reference: documents made of string literals only — a literal, an
/// array of them, or an object of them — scanned one character at a time.
struct Reference<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reference<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        (self.peek() == Some(b)).then(|| self.pos += 1)
    }

    fn document(&mut self) -> Option<Value> {
        self.skip_ws();
        let v = match self.peek()? {
            b'"' => Value::Str(self.string()?),
            b'[' => {
                self.pos += 1;
                let mut xs = vec![Value::Str(self.string()?)];
                while self.eat(b',').is_some() {
                    xs.push(Value::Str(self.string()?));
                }
                self.eat(b']')?;
                Value::Array(xs)
            }
            b'{' => {
                self.pos += 1;
                let mut pairs = Vec::new();
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    pairs.push((key, Value::Str(self.string()?)));
                    if self.eat(b',').is_none() {
                        break;
                    }
                }
                self.eat(b'}')?;
                Value::Object(pairs)
            }
            _ => return None,
        };
        self.skip_ws();
        (self.pos == self.bytes.len()).then_some(v)
    }

    /// One literal as UTF-16-ish units: a character is its scalar, a `\u`
    /// escape its four digits. Surrogates are paired afterwards, in
    /// [`scalars`].
    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut units: Vec<u32> = Vec::new();
        loop {
            match self.peek() {
                None => return None,
                Some(b'"') => {
                    self.pos += 1;
                    return Some(scalars(&units));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => units.push('"' as u32),
                        Some(b'\\') => units.push('\\' as u32),
                        Some(b'/') => units.push('/' as u32),
                        Some(b'n') => units.push('\n' as u32),
                        Some(b'r') => units.push('\r' as u32),
                        Some(b't') => units.push('\t' as u32),
                        Some(b'b') => units.push(0x8),
                        Some(b'f') => units.push(0xc),
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let hex = std::str::from_utf8(hex).ok()?;
                            units.push(u32::from_str_radix(hex, 16).ok()?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let c = rest.chars().next().unwrap();
                    units.push(c as u32);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

/// Units to text: a high surrogate followed by a low one is one scalar, any
/// other surrogate is U+FFFD.
fn scalars(units: &[u32]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < units.len() {
        let pair = match (units[i], units.get(i + 1)) {
            (hi @ 0xD800..=0xDBFF, Some(&lo @ 0xDC00..=0xDFFF)) => {
                Some(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
            }
            _ => None,
        };
        i += if pair.is_some() { 2 } else { 1 };
        out.push(char::from_u32(pair.unwrap_or(units[i - 1])).unwrap_or('\u{FFFD}'));
    }
    out
}

/// What literals are made of: runs of one to four bytes a character, raw
/// control bytes, every escape, `\u` in every shape, and what ends a literal
/// early or not at all.
const PIECES: &[&str] = &[
    "a",
    "zz",
    " ",
    ",",
    ":",
    "/",
    "é",
    "€",
    "😀",
    "\u{FFFD}",
    "\u{1}",
    "\n",
    "\t",
    "\0",
    "\u{7f}",
    r#"\""#,
    r"\\",
    r"\/",
    r"\n",
    r"\r",
    r"\t",
    r"\b",
    r"\f",
    r"\u0041",
    r"\u00e9",
    r"\u20AC",
    r"\u0000",
    r"\u+041",
    r"\ud83d",
    r"\ude00",
    r"\ud83d\ude00",
    r"\uDBFF\uDFFF",
    r"\ud83d\u0041",
    r"\q",
    r"\u12",
    r"\uzzzz",
    r"\u00é",
    r"\u000é",
    r"\",
    r"\u",
    r#"""#,
    r#"",""#,
    r#"":""#,
];

/// What a generated literal body is wrapped in.
const FRAMES: &[(&str, &str)] = &[
    (r#"""#, r#"""#),
    (r#"[""#, r#""]"#),
    (r#"["", ""#, r#"",""]"#),
    (r#"{""#, r#"":"v"}"#),
    (r#"{"k":""#, r#""}"#),
    (r#"{"":"","k" : ""#, r#"" }"#),
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 4000, ..ProptestConfig::default() })]

    #[test]
    fn parse_agrees_with_the_character_at_a_time_scanner(
        frame in prop::sample::select(FRAMES.to_vec()),
        body in prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..12),
        keep in 0usize..=100,
    ) {
        let mut doc = format!("{}{}{}", frame.0, body.concat(), frame.1);
        // One document in five is cut short: unterminated literals, escapes
        // and surrogate pairs that the end of the input splits.
        if keep < 20 {
            let mut cut = doc.len() * keep / 20;
            while !doc.is_char_boundary(cut) {
                cut -= 1;
            }
            doc.truncate(cut);
        }
        let expected = Reference { bytes: doc.as_bytes(), pos: 0 }.document();
        prop_assert_eq!(parse(&doc).ok(), expected, "{:?}", doc);
    }

    #[test]
    fn written_strings_read_back(units in prop::collection::vec(any::<u32>(), 0..48)) {
        // Half ASCII (controls, quotes and backslashes among it), half any
        // scalar value.
        let text: String = units
            .iter()
            .map(|&u| match u % 2 {
                0 => char::from((u >> 8) as u8 % 0x80),
                _ => char::from_u32((u >> 8) % 0x11_0000).unwrap_or('\u{FFFD}'),
            })
            .collect();
        let v = Value::Object(vec![(text.clone(), Value::Str(text))]);
        prop_assert_eq!(&parse(&v.to_json()).unwrap(), &v);
        prop_assert_eq!(&parse(&v.to_json_pretty()).unwrap(), &v);
    }
}

#[test]
fn the_reference_scanner_sees_valid_and_invalid_documents() {
    // The differential test means something only if both outcomes occur.
    let scan = |doc: &str| {
        Reference {
            bytes: doc.as_bytes(),
            pos: 0,
        }
        .document()
    };
    assert_eq!(
        scan(r#"{"k\n":"\ud83d\ude00\u00e9"}"#),
        Some(Value::Object(vec![(
            "k\n".into(),
            Value::Str("\u{1F600}é".into())
        )]))
    );
    assert_eq!(scan(r#"["a"b"]"#), None);
    assert_eq!(scan(r#""\ud83d"#), None);
}

/// Parse time is linear in the document: each of these took the
/// character-at-a-time scanner, which checked the rest of the document as
/// UTF-8 at every character, longer than a request may take.
#[test]
fn a_megabyte_parses_in_under_a_second() {
    const MIB: usize = 1 << 20;
    let timed = |what: &str, doc: &str| {
        let start = Instant::now();
        let v = parse(doc).unwrap_or_else(|e| panic!("{what}: {e}"));
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "{what}: {took:?}");
        v
    };
    let literal = format!("\"{}\"", "a".repeat(MIB));
    assert_eq!(
        timed("one literal", &literal).as_str().map(str::len),
        Some(MIB)
    );

    let mut keys = String::from("{");
    let mut n = 0usize;
    while keys.len() < MIB {
        keys.push_str(&format!("\"k{n}\":{n},"));
        n += 1;
    }
    keys.push_str("\"end\":\"é\\n\"}");
    match timed("short keys", &keys) {
        Value::Object(pairs) => assert_eq!(pairs.len(), n + 1),
        other => panic!("not an object: {}", other.to_json()),
    }
}
