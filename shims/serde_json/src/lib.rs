//! Offline stand-in for `serde_json`.
//!
//! Provides [`to_string`] / [`to_string_pretty`] over the shim `serde`'s
//! JSON-producing [`serde::Serialize`] trait, and a minimal [`Value`] tree
//! for code that wants to build JSON documents imperatively.

use std::collections::BTreeMap;
use std::fmt;

/// Serializes `value` to a compact JSON string. Infallible in the shim, but
/// returns `Result` for source compatibility with real `serde_json`.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json_string())
}

/// Serializes `value` to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(pretty(&value.to_json_string()))
}

/// Re-formats compact JSON with newlines and two-space indentation.
///
/// Operates on the already-escaped string, so it only needs to track whether
/// it is inside a string literal.
fn pretty(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut indent = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for c in compact.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                indent += 1;
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            '}' | ']' => {
                indent = indent.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(c);
            }
            ',' => {
                out.push(c);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            ':' => {
                out.push(c);
                out.push(' ');
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialization error (never produced by the shim).
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json shim error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// A JSON document tree, for imperative construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    /// Object keys are kept sorted (BTreeMap) so rendering is deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Inserts into an object value; panics on non-objects.
    pub fn insert(&mut self, key: &str, value: Value) {
        match self {
            Value::Object(map) => {
                map.insert(key.to_owned(), value);
            }
            _ => panic!("Value::insert on non-object"),
        }
    }

    /// An empty object.
    pub fn object() -> Value {
        Value::Object(BTreeMap::new())
    }

    /// Member lookup on objects (`None` on non-objects / missing keys),
    /// mirroring real `serde_json`'s `Value::get`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integral
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Parses a JSON document into a [`Value`] tree.
///
/// Call sites write `serde_json::from_str(text)?` exactly as with the real
/// crate (the shim version is monomorphic over `Value` instead of generic
/// over `Deserialize`). Accepts the standard JSON grammar: objects, arrays,
/// strings with escapes (`\" \\ \/ \b \f \n \r \t \uXXXX`), numbers,
/// booleans and `null`; trailing non-whitespace is an error, and so is
/// array/object nesting deeper than [`MAX_DEPTH`].
pub fn from_str(input: &str) -> Result<Value, Error> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", parser.pos)));
    }
    Ok(value)
}

/// The deepest array/object nesting [`from_str`] accepts (the real
/// crate's default recursion limit). The parser recurses once per level,
/// so without a bound one hostile line of brackets overflows the stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!("expected {:?} at byte {}", b as char, self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if open == b'{' { self.parse_object() } else { self.parse_array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => {
                Err(Error(format!("unexpected {:?} at byte {}", other as char, self.pos)))
            }
            None => Err(Error("unexpected end of input".to_owned())),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain UTF-8 up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid UTF-8 in string".to_owned()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unexpected end of string escape".to_owned()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error("truncated \\u escape".to_owned()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error(format!("bad \\u escape {hex:?}")))?;
                            self.pos += 4;
                            // Surrogate pairs are collapsed when both halves
                            // are present; lone surrogates become U+FFFD.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let lo_hex = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .ok_or_else(|| {
                                            Error("truncated low surrogate".to_owned())
                                        })?;
                                    let lo = u32::from_str_radix(lo_hex, 16)
                                        .map_err(|_| Error("bad low surrogate".to_owned()))?;
                                    self.pos += 6;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        let combined =
                                            0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(combined).unwrap_or('\u{FFFD}')
                                    } else {
                                        // A high surrogate followed by a
                                        // non-low-surrogate escape: the first
                                        // half is lone (U+FFFD) and the second
                                        // escape decodes on its own.
                                        out.push('\u{FFFD}');
                                        char::from_u32(lo).unwrap_or('\u{FFFD}')
                                    }
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(code).unwrap_or('\u{FFFD}')
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(Error(format!("bad escape \\{}", other as char)));
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(Error("control character in string".to_owned()));
                }
                _ => return Err(Error("unterminated string".to_owned())),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".to_owned()))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error(format!("invalid number {text:?}")))
    }
}

impl serde::Serialize for Value {
    fn json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 9.0e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::String(s) => serde::write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    serde::Serialize::json(item, out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    serde::write_json_string(k, out);
                    out.push(':');
                    serde::Serialize::json(v, out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&serde::Serialize::to_json_string(self))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Number(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_renders_deterministically() {
        let mut v = Value::object();
        v.insert("z", Value::from(1u64));
        v.insert("a", Value::from("hi"));
        v.insert("list", Value::Array(vec![Value::Null, Value::from(true)]));
        assert_eq!(v.to_string(), "{\"a\":\"hi\",\"list\":[null,true],\"z\":1}");
    }

    #[test]
    fn parser_round_trips_rendered_documents() {
        let mut v = Value::object();
        v.insert("question", Value::from("what is 2+2? \"quoted\"\nnewline"));
        v.insert("session", Value::from(7u64));
        v.insert("flags", Value::Array(vec![Value::from(true), Value::Null]));
        v.insert("score", Value::from(-1.25));
        let rendered = v.to_string();
        let parsed = from_str(&rendered).expect("round trip");
        assert_eq!(parsed, v);
    }

    #[test]
    fn parser_handles_escapes_and_whitespace() {
        let v = from_str(" { \"a\" : \"x\\u0041\\t\", \"b\" : [ 1 , 2.5e1 ] } ").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_str), Some("xA\t"));
        assert_eq!(v.get("b").and_then(Value::as_array).map(Vec::len), Some(2));
        assert_eq!(v.get("b").unwrap().as_array().unwrap()[1].as_f64(), Some(25.0));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str(&nested(MAX_DEPTH)).is_ok(), "depth {MAX_DEPTH} parses");
        let err = from_str(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.to_string().contains("nesting"), "{err}");
        // Objects count toward the same limit.
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(from_str(&objects).is_ok());
        let deeper = "[".to_owned() + &objects + "]";
        assert!(from_str(&deeper).is_err());
        // A line far past the limit fails cleanly instead of overflowing
        // the stack.
        assert!(from_str(&nested(200_000)).is_err());
    }

    #[test]
    fn lone_surrogates_never_panic() {
        // A high surrogate followed by a non-low-surrogate escape must not
        // underflow (debug) or wrap (release): both halves decode lossily.
        let v = from_str("{\"q\": \"\\uD800\\u0041\"}").expect("lossy decode");
        assert_eq!(v.get("q").and_then(Value::as_str), Some("\u{FFFD}A"));
        // A lone high surrogate at end-of-string is replaced too.
        let v = from_str("\"\\uD800x\"").expect("lossy decode");
        assert_eq!(v.as_str(), Some("\u{FFFD}x"));
        // A proper pair still combines.
        let v = from_str("\"\\uD83D\\uDE00\"").expect("pair decode");
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(from_str("{\"a\": }").is_err());
        assert!(from_str("[1, 2").is_err());
        assert!(from_str("true false").is_err());
        assert!(from_str("").is_err());
    }

    #[test]
    fn accessors_discriminate_types() {
        let v = from_str("{\"n\": 3, \"s\": \"hi\", \"t\": true, \"z\": null}").unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("hi"));
        assert_eq!(v.get("t").and_then(Value::as_bool), Some(true));
        assert!(v.get("z").unwrap().is_null());
        assert!(v.get("missing").is_none());
        assert_eq!(v.get("s").and_then(Value::as_u64), None);
    }

    #[test]
    fn pretty_round_trips_structure() {
        let compact = "{\"a\":[1,2],\"b\":\"x{y}\"}";
        let p = pretty(compact);
        assert!(p.contains("\"a\": ["));
        // Braces inside string literals must not affect indentation.
        assert!(p.contains("\"x{y}\""));
    }
}
