//! Minimal hand-rolled JSON: a [`Value`] tree, a writer (via
//! [`std::fmt::Display`]), and a recursive-descent [`parse`] function.
//!
//! The repo deliberately carries no serde dependency; this module is
//! enough for the telemetry the pipeline emits (`--stats-json`, the
//! JSONL journal, the Chrome trace) and for the tests and CI smoke
//! checks that validate those artifacts by parsing them back.
//!
//! Objects preserve insertion order (they are a `Vec` of pairs, not a
//! map), so emitted documents are deterministic and diffable across
//! runs.
//!
//! ```
//! use obs::json::{parse, Value};
//! let v = parse(r#"{"phase": "sweep", "calls": [1, 2, 3]}"#).unwrap();
//! assert_eq!(v.get("phase").and_then(Value::as_str), Some("sweep"));
//! assert_eq!(v.get("calls").and_then(Value::as_array).map(<[Value]>::len), Some(3));
//! ```

use std::fmt;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer (the common case for counters).
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object as an insertion-ordered list of key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            Value::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as the member list if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Writes `s` as a JSON string literal (with escapes) to `f`.
///
/// Each run of characters between two escapes is written with one
/// `write_str`. Every escaped character is ASCII, so a run always ends
/// on a `char` boundary.
pub fn write_escaped(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        match escape {
            Some(e) => f.write_str(e)?,
            None => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_char('"')
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => {
                if v.is_finite() {
                    // Keep a decimal point or exponent so the token
                    // reads back as a float, not an integer.
                    let s = format!("{v}");
                    if s.contains('.') || s.contains('e') || s.contains('E') {
                        f.write_str(&s)
                    } else {
                        write!(f, "{s}.0")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A JSON parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (one value, optionally surrounded by
/// whitespace; trailing content is an error).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one
            // piece. Both are ASCII, so the run ends on a `char`
            // boundary; raw control characters are copied too.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..run]);
            self.pos = run;
            let Some(c) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            if c == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.error("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let first = self.hex4()?;
                    let code = if (0xD800..0xDC00).contains(&first) {
                        // High surrogate: require the low half.
                        if self.bytes[self.pos..].starts_with(b"\\u") {
                            self.pos += 2;
                            let second = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&second) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                        } else {
                            return Err(self.error("unpaired surrogate"));
                        }
                    } else {
                        first
                    };
                    match char::from_u32(code) {
                        Some(c) => out.push(c),
                        None => return Err(self.error("invalid \\u escape")),
                    }
                }
                other => {
                    return Err(self.error(format!("invalid escape '\\{}'", other as char)));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(c) = self.peek() else {
                return Err(self.error("truncated \\u escape"));
            };
            let d = match c {
                b'0'..=b'9' => u32::from(c - b'0'),
                b'a'..=b'f' => u32::from(c - b'a') + 10,
                b'A'..=b'F' => u32::from(c - b'A') + 10,
                _ => return Err(self.error("invalid hex digit in \\u escape")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits and sign are ascii");
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| self.error(format!("invalid number '{text}'")))?;
            Ok(Value::F64(v))
        } else if negative {
            let v: i64 = text
                .parse()
                .map_err(|_| self.error(format!("invalid number '{text}'")))?;
            Ok(Value::I64(v))
        } else {
            let v: u64 = text
                .parse()
                .map_err(|_| self.error(format!("invalid number '{text}'")))?;
            Ok(Value::U64(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_parser() {
        let doc = Value::Object(vec![
            ("name".to_string(), Value::str("sweep \"fast\"\n")),
            ("count".to_string(), Value::U64(42)),
            ("delta".to_string(), Value::I64(-7)),
            ("ratio".to_string(), Value::F64(1.5)),
            ("whole".to_string(), Value::F64(2.0)),
            ("ok".to_string(), Value::Bool(true)),
            ("missing".to_string(), Value::Null),
            (
                "items".to_string(),
                Value::Array(vec![Value::U64(1), Value::str("two"), Value::Array(vec![])]),
            ),
            ("empty".to_string(), Value::Object(vec![])),
        ]);
        let text = doc.to_string();
        let back = parse(&text).expect("round trip");
        assert_eq!(back, doc);
    }

    #[test]
    fn float_always_reads_back_as_float() {
        assert_eq!(Value::F64(2.0).to_string(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Value::F64(2.0));
        assert_eq!(parse("1e3").unwrap(), Value::F64(1000.0));
    }

    #[test]
    fn escapes() {
        let s = Value::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\te\u0001""#);
        assert_eq!(parse(&s.to_string()).unwrap(), s);
        // Unicode escapes including surrogate pairs.
        assert_eq!(
            parse(r#""\u0041\ud83d\ude00""#).unwrap(),
            Value::str("A\u{1F600}")
        );
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(parse("\"héllo\"").unwrap(), Value::str("héllo"));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 1, "b": [2, 3], "c": "x", "d": -4}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("d").and_then(Value::as_u64), None);
        assert_eq!(v.get("d"), Some(&Value::I64(-4)));
        assert_eq!(
            v.get("b").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("nope"), None);
        assert_eq!(v.as_object().map(<[(String, Value)]>::len), Some(4));
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": }",
            "{\"a\" 1}",
            "[1,]x",
            "\"unterminated",
            "tru",
            "01a",
            "{\"a\": 1} trailing",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn whitespace_tolerant() {
        let v = parse(" \n\t{ \"a\" : [ 1 , 2 ] , \"b\" : null } \r\n").unwrap();
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("b"), Some(&Value::Null));
    }
}
