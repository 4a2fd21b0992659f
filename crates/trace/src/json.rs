//! A minimal, dependency-free JSON writer and parser.
//!
//! The writer produces deterministic output (field order is exactly
//! the call order; floats use Rust's shortest round-trip formatting).
//! [`JsonValue::parse`] is the one strict recursive-descent parser:
//! the bench regression gate reads snapshots back through it, and
//! [`check`] (used by the trace schema validator and by tests that
//! gate emitted artifacts) is a value count over it.

use std::fmt::Write as _;

/// Escapes `s` into a JSON string literal (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/inf; those map
/// to `null`).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            // Integral values print without a fraction for stability
            // across platforms.
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

/// An append-only JSON builder. No nesting bookkeeping beyond a stack
/// of "needs comma" flags — callers pair `open_*`/`close_*` correctly
/// (debug-asserted).
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    /// Opens an object (`{`) as the next value.
    pub fn open_object(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('{');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn close_object(&mut self) -> &mut Self {
        let open = self.needs_comma.pop();
        debug_assert!(open.is_some(), "unbalanced close_object");
        self.buf.push('}');
        self
    }

    /// Opens an array (`[`) as the next value.
    pub fn open_array(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('[');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn close_array(&mut self) -> &mut Self {
        let open = self.needs_comma.pop();
        debug_assert!(open.is_some(), "unbalanced close_array");
        self.buf.push(']');
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.pre_value();
        self.buf.push_str(&escape(k));
        self.buf.push(':');
        // The key consumed the comma slot; its value must not add one.
        if let Some(last) = self.needs_comma.last_mut() {
            *last = false;
        }
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.pre_value();
        self.buf.push_str(&escape(v));
        self
    }

    /// Writes an integer value.
    pub fn int(&mut self, v: i64) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes a float value.
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.pre_value();
        self.buf.push_str(&number(v));
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.pre_value();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Convenience: `key` followed by a string value.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).string(v)
    }

    /// Convenience: `key` followed by an unsigned value.
    pub fn field_uint(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).uint(v)
    }

    /// Convenience: `key` followed by a float value.
    pub fn field_float(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k).float(v)
    }

    /// The accumulated JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.needs_comma.is_empty(), "unclosed containers");
        self.buf
    }
}

/// Strictly checks that `s` is one well-formed JSON value (with
/// optional surrounding whitespace). Returns the number of values
/// parsed inside the top-level value (a size proxy for sanity checks).
///
/// # Errors
///
/// Returns a message with a byte offset on the first syntax error.
pub fn check(s: &str) -> Result<usize, String> {
    JsonValue::parse(s).map(|v| v.count())
}

/// A parsed JSON value. Objects keep their pairs in source order, so
/// round-trips stay deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; pairs in source order, keys assumed unique.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document under the strict grammar of [`check`]:
    /// numbers need digits before a `.`, after it and after an
    /// exponent marker, and `\u` escapes need four hex digits.
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on the first syntax error.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let mut p = Parser { src: s, pos: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.pos != s.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// This value plus every value nested inside it (object keys are
    /// not values).
    pub fn count(&self) -> usize {
        1 + match self {
            JsonValue::Array(items) => items.iter().map(JsonValue::count).sum(),
            JsonValue::Object(pairs) => pairs.iter().map(|(_, v)| v.count()).sum(),
            _ => 0,
        }
    }

    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as object pairs in source order.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Consumes a run of ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            pairs.push((key, self.value()?));
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates are not expected in our own
                            // output; map them to the replacement char.
                            u32::from_str_radix(hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .unwrap_or('\u{fffd}')
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("control byte in string at {}", self.pos))
                }
                Some(_) => {
                    let c = self.src[self.pos..].chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("bad fraction at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("bad exponent at byte {}", self.pos));
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_nested_structures() {
        let mut w = JsonWriter::new();
        w.open_object()
            .field_str("name", "a \"b\"\n")
            .key("values")
            .open_array()
            .int(1)
            .float(2.5)
            .bool(true)
            .close_array()
            .field_uint("count", 3)
            .close_object();
        let s = w.finish();
        assert_eq!(
            s,
            r#"{"name":"a \"b\"\n","values":[1,2.5,true],"count":3}"#
        );
        assert!(check(&s).is_ok());
    }

    /// An empty container must not leave its comma slot behind: the
    /// next key or value still needs its separator (in every build
    /// mode — run `cargo test --release -p cim-trace` too).
    #[test]
    fn writer_separates_values_after_empty_containers() {
        let mut w = JsonWriter::new();
        w.open_object()
            .key("a")
            .open_array()
            .close_array()
            .key("b")
            .open_object()
            .close_object()
            .field_uint("c", 1)
            .key("d")
            .open_array()
            .open_array()
            .close_array()
            .open_object()
            .close_object()
            .int(2)
            .close_array()
            .close_object();
        let s = w.finish();
        assert_eq!(s, r#"{"a":[],"b":{},"c":1,"d":[[],{},2]}"#);
        assert!(check(&s).is_ok(), "{s}");
    }

    #[test]
    fn number_formatting_is_stable() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(-2.0), "-2");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn checker_accepts_valid_json() {
        for s in [
            "{}",
            "[]",
            "null",
            " [1, -2.5e3, \"x\\u0041\", {\"k\": [true, false]}] ",
        ] {
            assert!(check(s).is_ok(), "{s}");
        }
        assert_eq!(check("[1,2,3]").unwrap(), 4); // array + 3 numbers
    }

    #[test]
    fn checker_rejects_malformed_json() {
        for s in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "01e",
            "1.",
            "1.2.3",
            "tru",
            "\"\\q\"",
            "\"\\u+041\"",
            "[1] trailing",
            "{'single': 1}",
        ] {
            assert!(check(s).is_err(), "{s:?} should fail");
            assert!(JsonValue::parse(s).is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn parses_nested_documents() {
        let v =
            JsonValue::parse(r#"{"a": [1, -2.5, "x\n", true, null], "b": {"c": 3e2}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_str(), Some("x\n"));
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[4], JsonValue::Null);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(300.0));
        assert_eq!(v.as_object().unwrap().len(), 2);
        assert!(v.get("absent").is_none());
        assert_eq!(v.count(), 9);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = JsonValue::parse(r#""\u0041\u00e9é""#).unwrap();
        assert_eq!(v.as_str(), Some("Aéé"));
    }
}
