//! Minimal JSON value type, parser, and serializer.
//!
//! The workspace deliberately carries no serialization dependency, yet two
//! artifacts must speak JSON: the `BENCH_rns_ops.json` calibration file
//! consumed by `chet-lint --calibration` and CI, and `chet-lint --machine`'s
//! JSON-lines diagnostic stream. This module is the single shared
//! implementation — a strict subset of RFC 8259 sufficient for those uses:
//! objects, arrays, strings with `\uXXXX` escapes, finite numbers, bools,
//! and null. Non-finite floats serialize as `null` (JSON has no NaN).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects use a [`BTreeMap`] so serialization is
/// deterministic (sorted keys) — the property CI diffs rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to compact JSON (no whitespace, sorted object keys).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&render_num(*x)),
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(v) => {
                out.push('[');
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    e.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Renders a finite f64 the shortest way that round-trips; non-finite
/// values become `null`.
fn render_num(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        // Integral values print without a fraction ("3" not "3.0"): python's
        // json module and this parser both accept either form.
        format!("{}", x as i64)
    } else {
        let s = format!("{x}");
        debug_assert!(s.parse::<f64>().map(|y| y == x).unwrap_or(false));
        s
    }
}

/// Appends `s` with JSON string escaping (quotes, backslash, control
/// characters) but without surrounding quotes.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
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

/// JSON-escapes a string (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub at: usize,
    pub reason: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError { at: p.pos, reason: "trailing characters after document" });
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError { at: self.pos, reason }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, reason: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn literal(&mut self, lit: &str, reason: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", "expected 'true'").map(|_| Json::Bool(true)),
            Some(b'f') => self.literal("false", "expected 'false'").map(|_| Json::Bool(false)),
            Some(b'n') => self.literal("null", "expected 'null'").map(|_| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by \uDC00..\uDFFF.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                self.literal("\\u", "expected low surrogate")?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (input is &str, so slicing at
                    // a char boundary is safe via chars()).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let x: f64 = s.parse().map_err(|_| {
            self.pos = start;
            self.err("invalid number")
        })?;
        Ok(Json::Num(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let src = r#"{"b":[1,2.5,-3e2,null,true],"a":{"nested":"va\"l\nue"},"empty":[],"zero":0}"#;
        let v = parse(src).unwrap();
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
        assert_eq!(v.get("b").and_then(|b| b.as_arr()).map(|a| a.len()), Some(5));
        assert_eq!(
            v.get("a").and_then(|a| a.get("nested")).and_then(|s| s.as_str()),
            Some("va\"l\nue")
        );
    }

    #[test]
    fn escapes_control_characters() {
        let s = "tab\there \"quote\" back\\slash\nnewline \u{1}ctl";
        let j = Json::Str(s.into());
        let rendered = j.render();
        assert!(rendered.contains("\\t") && rendered.contains("\\u0001"));
        assert_eq!(parse(&rendered).unwrap(), j);
    }

    #[test]
    fn surrogate_pairs_parse() {
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["{", "[1,", "\"open", "{\"a\":}", "nul", "1 2", "{'a':1}", ""] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn numbers_roundtrip_bitwise() {
        for x in [0.0, -1.5, 3.0, 1e-9, 123456789.25, f64::MAX] {
            let rendered = Json::Num(x).render();
            match parse(&rendered).unwrap() {
                Json::Num(y) => assert_eq!(y.to_bits(), x.to_bits(), "{x}"),
                other => panic!("expected number, got {other:?}"),
            }
        }
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }
}
