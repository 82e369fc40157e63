//! A minimal generic JSON value tree with a strict parser and writer.
//!
//! The workspace's machine-readable artifacts (`results/BENCH_*.json`,
//! profile snapshots, counter sets) are built as [`JsonValue`] trees
//! and emitted by [`JsonValue::write`] / [`JsonValue::write_pretty`];
//! the consumers that read them back (`mcs-bench trend`, tests) use
//! [`JsonValue::parse`]. Both directions are *strict*: trailing
//! garbage, truncated input, unknown escapes or malformed numbers fail
//! the parse, and a non-finite number fails the write — never a panic,
//! never a silently different value.
//!
//! Numbers are held as `f64`, which is exact for integers up to 2^53.
//! An integer beyond that is a typed error on both sides
//! ([`JsonValue::uint`] when building, an integer literal above 2^53
//! when parsing) rather than a rounded value.

use std::collections::BTreeMap;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (exact for integers up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys are held sorted (`BTreeMap`) so traversal is
    /// deterministic regardless of wire order.
    Object(BTreeMap<String, JsonValue>),
}

/// Largest integer magnitude an `f64`-backed JSON number holds exactly.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Why a value has no JSON spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonWriteError {
    /// NaN or an infinity.
    NonFinite,
    /// An integer above 2^53, which an `f64`-backed number would round.
    IntegerTooLarge(u128),
}

impl std::fmt::Display for JsonWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonWriteError::NonFinite => write!(f, "non-finite number has no JSON form"),
            JsonWriteError::IntegerTooLarge(n) => {
                write!(f, "integer {n} exceeds 2^53 and would not round-trip")
            }
        }
    }
}

impl std::error::Error for JsonWriteError {}

impl JsonValue {
    /// An exact unsigned integer; `Err` above 2^53.
    pub fn uint(n: u128) -> Result<JsonValue, JsonWriteError> {
        if n <= MAX_EXACT_INT as u128 {
            Ok(JsonValue::Num(n as f64))
        } else {
            Err(JsonWriteError::IntegerTooLarge(n))
        }
    }

    /// `v` as a number, or `null` when it is NaN or an infinity — how
    /// the reports spell "no value" while staying writable.
    pub fn finite_or_null(v: f64) -> JsonValue {
        if v.is_finite() {
            JsonValue::Num(v)
        } else {
            JsonValue::Null
        }
    }

    /// An object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Single-line JSON (`{"a": 1, "b": [1, 2]}`), keys in sorted order.
    pub fn write(&self) -> Result<String, JsonWriteError> {
        let mut out = String::new();
        self.write_into(&mut out, None)?;
        Ok(out)
    }

    /// Indented JSON for files people diff: one object member or array
    /// element per line, except that a container holding only scalars
    /// stays on one line when it is an array or an array's element (so
    /// a table row reads as a row).
    pub fn write_pretty(&self) -> Result<String, JsonWriteError> {
        let mut out = String::new();
        self.write_into(&mut out, Some(0))?;
        out.push('\n');
        Ok(out)
    }

    fn is_flat(&self) -> bool {
        let scalar = |v: &JsonValue| !matches!(v, JsonValue::Array(_) | JsonValue::Object(_));
        match self {
            JsonValue::Array(v) => v.iter().all(scalar),
            JsonValue::Object(m) => m.values().all(scalar),
            _ => true,
        }
    }

    /// `depth` is `None` for single-line output, else the indent level.
    fn write_into(&self, out: &mut String, depth: Option<usize>) -> Result<(), JsonWriteError> {
        use std::fmt::Write;
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", depth));
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) if !n.is_finite() => return Err(JsonWriteError::NonFinite),
            // Display never uses an exponent, so beyond 2^53 it would
            // print an integer literal the parser rejects as inexact.
            JsonValue::Num(n) if n.abs() > MAX_EXACT_INT => {
                write!(out, "{n:e}").expect("write to String")
            }
            JsonValue::Num(n) => write!(out, "{n}").expect("write to String"),
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
            JsonValue::Array(v) => {
                let depth = depth.filter(|_| !self.is_flat());
                out.push('[');
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if depth.is_some() { "," } else { ", " });
                    }
                    if let Some(d) = depth {
                        newline(out, d + 1);
                    }
                    // An element holding only scalars stays on its line.
                    item.write_into(out, depth.map(|d| d + 1).filter(|_| !item.is_flat()))?;
                }
                if let Some(d) = depth {
                    newline(out, d);
                }
                out.push(']');
            }
            JsonValue::Object(m) => {
                let depth = depth.filter(|_| !m.is_empty());
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if depth.is_some() { "," } else { ", " });
                    }
                    if let Some(d) = depth {
                        newline(out, d + 1);
                    }
                    write!(out, "\"{}\": ", escape_json(k)).expect("write to String");
                    v.write_into(out, depth.map(|d| d + 1))?;
                }
                if let Some(d) = depth {
                    newline(out, d);
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parse a complete JSON document. Trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member by key (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= MAX_EXACT_INT => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} (found {:?})",
                c as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(JsonValue::Object(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            return Ok(JsonValue::Object(m));
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(JsonValue::Array(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            return Ok(JsonValue::Array(v));
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or("bad escape")? {
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
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad codepoint")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                    self.pos += 1;
                }
                _ => {
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        self.eat(b'-');
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if self.peek().is_some_and(|b| b == b'e' || b == b'E') {
            self.pos += 1;
            if self.peek().is_some_and(|b| b == b'+' || b == b'-') {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number {text:?} at byte {start}"));
        }
        // An integer literal beyond 2^53 has already been rounded by the
        // f64 parse; refuse it instead of handing back a neighbour.
        let exact = |digits: &str| {
            digits
                .parse::<u64>()
                .is_ok_and(|i| i <= MAX_EXACT_INT as u64)
        };
        if !text.contains(['.', 'e', 'E']) && !exact(text.trim_start_matches('-')) {
            return Err(format!("integer {text} at byte {start} exceeds 2^53"));
        }
        Ok(JsonValue::Num(n))
    }
}

/// Escape a string for embedding between JSON quotes.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_shaped_document() {
        let v = JsonValue::parse(
            r#"{"bench": "grid_backend", "mcs_scale": 0.1, "ok": true,
               "samples": [{"backend": "hash", "bank": 1000,
                            "rate": 5.8856e5, "neg": -2}], "none": null}"#,
        )
        .unwrap();
        assert_eq!(
            v.get("bench").and_then(JsonValue::as_str),
            Some("grid_backend")
        );
        assert_eq!(v.get("mcs_scale").and_then(JsonValue::as_f64), Some(0.1));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        let s = &v.get("samples").and_then(JsonValue::as_array).unwrap()[0];
        assert_eq!(s.get("bank").and_then(JsonValue::as_u64), Some(1000));
        assert_eq!(s.get("rate").and_then(JsonValue::as_f64), Some(588560.0));
        assert_eq!(s.get("neg").and_then(JsonValue::as_f64), Some(-2.0));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_truncated_and_trailing() {
        assert!(JsonValue::parse("{\"a\": 1").is_err());
        assert!(JsonValue::parse("{\"a\": 1} extra").is_err());
        assert!(JsonValue::parse("[1, 2,").is_err());
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{\"a\": tru}").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn u64_integrality_is_checked() {
        assert_eq!(JsonValue::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(JsonValue::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-7").unwrap().as_u64(), None);
        // Counter-scale values stay exact.
        assert_eq!(
            JsonValue::parse("22478806592").unwrap().as_u64(),
            Some(22_478_806_592)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = JsonValue::parse(r#""a\"b\\c\nA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA"));
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }

    #[test]
    fn object_keys_sorted_deterministically() {
        let v = JsonValue::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["a", "z"]);
    }

    #[test]
    fn written_values_parse_back_identically() {
        let doc = JsonValue::object([
            ("text", JsonValue::Str("a\"b\\c\n\u{1}é".into())),
            ("neg_zero", JsonValue::Num(-0.0)),
            ("rate", JsonValue::Num(332_879.5)),
            ("tiny", JsonValue::Num(1.25e-300)),
            ("huge", JsonValue::Num(1e300)),
            ("max_int", JsonValue::uint(1 << 53).unwrap()),
            ("flag", JsonValue::Bool(false)),
            ("none", JsonValue::Null),
            (
                "rows",
                JsonValue::Array(vec![
                    JsonValue::Array(vec![JsonValue::Num(1.0), JsonValue::Str("x".into())]),
                    JsonValue::object([("k", JsonValue::Array(vec![]))]),
                    JsonValue::Object(BTreeMap::new()),
                ]),
            ),
        ]);
        for text in [doc.write().unwrap(), doc.write_pretty().unwrap()] {
            let back = JsonValue::parse(&text).unwrap();
            assert_eq!(back, doc, "{text}");
            // PartialEq treats -0.0 == 0.0; the sign must survive too.
            let z = back.get("neg_zero").and_then(JsonValue::as_f64).unwrap();
            assert!(z.is_sign_negative(), "{text}");
            assert_eq!(
                back.get("max_int").and_then(JsonValue::as_u64),
                Some(1 << 53)
            );
        }
        assert!(!doc.write().unwrap().contains('\n'));
        // A row of scalars stays on one line in the pretty form.
        assert!(doc.write_pretty().unwrap().contains("[1, \"x\"]"));
    }

    #[test]
    fn inexact_or_non_finite_numbers_are_errors_on_both_sides() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let nested = JsonValue::Array(vec![JsonValue::object([("x", JsonValue::Num(bad))])]);
            assert_eq!(nested.write(), Err(JsonWriteError::NonFinite));
            assert_eq!(nested.write_pretty(), Err(JsonWriteError::NonFinite));
        }
        let over = (1u128 << 53) + 1;
        assert_eq!(
            JsonValue::uint(over),
            Err(JsonWriteError::IntegerTooLarge(over))
        );
        assert!(JsonValue::parse("9007199254740993").is_err());
        assert!(JsonValue::parse("-9007199254740993").is_err());
        assert!(JsonValue::parse("123456789012345678901234567890").is_err());
        // The same magnitudes spelled as floats are ordinary numbers.
        assert_eq!(
            JsonValue::parse("9.007199254740993e15").unwrap().as_f64(),
            Some(9_007_199_254_740_992.0)
        );
    }
}
