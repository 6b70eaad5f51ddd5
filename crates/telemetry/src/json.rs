//! Minimal JSON support for the JSONL sink.
//!
//! The telemetry crate is deliberately dependency-free, so it carries
//! its own tiny JSON layer: an escaping writer used when emitting
//! events, and a small recursive-descent parser used by the
//! round-trip tests (and by anything that wants to audit a run's
//! JSONL file without pulling in serde).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` as the *contents* of a JSON string literal.
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A borrowed key/value field of a JSON object under construction.
#[derive(Debug, Clone)]
pub enum Field<'a> {
    /// A string value (escaped on write).
    Str(&'a str, &'a str),
    /// An owned string value.
    String(&'a str, String),
    /// An unsigned integer.
    U64(&'a str, u64),
    /// A signed integer.
    I64(&'a str, i64),
    /// A float, written with enough digits to round-trip.
    F64(&'a str, f64),
    /// A boolean.
    Bool(&'a str, bool),
}

impl Field<'_> {
    fn key(&self) -> &str {
        match self {
            Field::Str(k, _)
            | Field::String(k, _)
            | Field::U64(k, _)
            | Field::I64(k, _)
            | Field::F64(k, _)
            | Field::Bool(k, _) => k,
        }
    }

    fn write_value(&self, out: &mut String) {
        match self {
            Field::Str(_, v) => {
                out.push('"');
                escape_into(out, v);
                out.push('"');
            }
            Field::String(_, v) => {
                out.push('"');
                escape_into(out, v);
                out.push('"');
            }
            Field::U64(_, v) => {
                let _ = write!(out, "{v}");
            }
            Field::I64(_, v) => {
                let _ = write!(out, "{v}");
            }
            Field::F64(_, v) => {
                if v.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips through `f64` parsing.
                    let _ = write!(out, "{v:?}");
                } else {
                    // JSON has no inf/NaN; encode as null.
                    out.push_str("null");
                }
            }
            Field::Bool(_, v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
}

/// Serializes one flat JSON object from `fields` (no trailing
/// newline).
pub fn object(fields: &[Field<'_>]) -> String {
    let mut out = String::with_capacity(32 + fields.len() * 24);
    out.push('{');
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, f.key());
        out.push_str("\":");
        f.write_value(&mut out);
    }
    out.push('}');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (sorted keys; telemetry events have no duplicates).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".into());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest.get(1).copied().ok_or("unterminated escape")?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Telemetry never emits surrogate pairs;
                            // map unpaired surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Copy the run of plain characters up to the next
                    // quote or escape. Both are ASCII, so the run ends
                    // on a char boundary of the (valid UTF-8) input;
                    // `get` refuses a start inside a character.
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let chars = self
                        .text
                        .get(self.pos..self.pos + run)
                        .ok_or_else(|| format!("split character at byte {}", self.pos))?;
                    out.push_str(chars);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number '{s}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_writer_escapes() {
        let s = object(&[
            Field::Str("type", "span"),
            Field::Str("name", "a\"b\\c\nd"),
            Field::U64("n", 7),
            Field::F64("dur", 1.5),
            Field::Bool("ok", true),
        ]);
        let v = parse(&s).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("dur").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let s = object(&[Field::F64("x", f64::INFINITY)]);
        assert_eq!(parse(&s).unwrap().get("x"), Some(&Value::Null));
    }

    #[test]
    fn parser_handles_nesting_and_numbers() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":null},"d":"x"}"#).unwrap();
        let arr = match v.get("a").unwrap() {
            Value::Array(a) => a,
            other => panic!("{other:?}"),
        };
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,2] tail").is_err());
    }

    #[test]
    fn multibyte_characters_round_trip_next_to_escapes() {
        // 2-, 3- and 4-byte UTF-8 scalars before, between and after
        // escapes, and as the last character of the string.
        for s in [
            "é",
            "µs\"→\\😀",
            "\n€",
            "a\té\u{1}→😀",
            "stage\u{7f}ü",
            "😀😀\"",
            "",
        ] {
            let doc = object(&[Field::Str("k", s), Field::Str(s, "v")]);
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("k").and_then(Value::as_str), Some(s), "{doc}");
            assert_eq!(v.get(s).and_then(Value::as_str), Some("v"), "{doc}");
        }
        assert_eq!(parse(r#""\u00e9\u2192x""#).unwrap().as_str(), Some("é→x"));
        assert!(parse("\"é").is_err(), "unterminated after a multibyte char");
    }

    #[test]
    fn f64_round_trips_exactly() {
        for x in [0.1, 1.0 / 3.0, 6.02e23, -1.25e-17] {
            let s = object(&[Field::F64("x", x)]);
            assert_eq!(parse(&s).unwrap().get("x").unwrap().as_f64(), Some(x));
        }
    }
}
