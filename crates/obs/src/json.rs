//! A minimal JSON value, parser and writers.
//!
//! The workspace has no serde, so this module is the whole serialization
//! stack: an owned tree, a parser that is total over untrusted input (the
//! analysis service parses every request line with it), escaping, a
//! compact one-line writer (the wire format) and a stable two-space
//! pretty-printer (stable output keeps `repro --json` artifacts diffable
//! between runs and usable in the determinism test).

use std::fmt::Write as _;

/// An owned JSON value.  Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also used for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite double.
    Num(f64),
    /// An unsigned integer (kept exact; `Num` would round above 2⁵³).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A float value.
    pub fn num(x: f64) -> Json {
        Json::Num(x)
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks a key up in an object (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable key lookup in an object.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (both numeric variants; `None` elsewhere).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The value as a string slice (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// Accepts exactly what [`Json::render`] and [`Json::render_compact`]
    /// emit plus arbitrary whitespace — enough to read back baselines, CI
    /// artifacts and `mbb-serve/1` requests without serde.  Non-negative
    /// integers without fraction or exponent parse as [`Json::UInt`]
    /// (round-tripping exactly); everything else numeric is [`Json::Num`].
    /// Trailing garbage after the document is an error.
    ///
    /// The parser fronts a network service (`mbb-server`), so it is total
    /// over untrusted input: malformed documents — unterminated strings,
    /// bad escapes, truncated literals — return `Err`, and nesting deeper
    /// than [`MAX_DEPTH`] is rejected before it can overflow the stack.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: src.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on a single line with no whitespace and no trailing
    /// newline — the form the newline-delimited `mbb-serve/1` protocol
    /// puts on the wire (embedded string newlines are escaped, so the
    /// result never contains a literal `\n`).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::UInt(_) | Json::Str(_) => {
                self.write(out, 0)
            }
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (k, (key, value)) in pairs.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (k, (key, value)) in pairs.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

/// Maximum container nesting [`Json::parse`] accepts.  The parser recurses
/// per `[`/`{`, so without a bound a short adversarial input like
/// `"[".repeat(100_000)` would overflow the stack; 128 levels is far beyond
/// any document this workspace emits.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn eat(&mut self, token: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(format!("expected `{token}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte {:?} at {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.enter()?;
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.enter()?;
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // BMP only: the writer never emits surrogate
                            // pairs (it passes non-ASCII through raw).
                            out.push(
                                char::from_u32(code).ok_or_else(|| {
                                    format!("bad \\u escape at byte {}", self.pos)
                                })?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{text}`"))
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let j = Json::obj([
            ("name", Json::str("fig1")),
            ("wall_s", Json::num(0.25)),
            ("events", Json::UInt(u64::MAX)),
            ("rows", Json::arr([Json::num(1.0), Json::Null, Json::Bool(true)])),
            ("empty", Json::arr([])),
        ]);
        let s = j.render();
        assert!(s.contains("\"name\": \"fig1\""), "{s}");
        assert!(s.contains("\"events\": 18446744073709551615"), "{s}");
        assert!(s.contains("\"empty\": []"), "{s}");
        assert!(s.ends_with("}\n"), "{s}");
    }

    #[test]
    fn escapes_strings_and_hides_nonfinite() {
        let j = Json::arr([Json::str("a\"b\\c\nd"), Json::num(f64::NAN)]);
        let s = j.render();
        assert!(s.contains(r#""a\"b\\c\nd""#), "{s}");
        assert!(s.contains("null"), "{s}");
    }

    #[test]
    fn parse_round_trips_render() {
        let j = Json::obj([
            ("schema", Json::str("mbb-bench-gate/1")),
            ("events", Json::UInt(u64::MAX)),
            ("rate", Json::num(1234.5)),
            ("neg", Json::num(-2.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("text", Json::str("a\"b\\c\nd\tê")),
            ("kernels", Json::arr([Json::obj([("name", Json::str("triad"))]), Json::arr([])])),
            ("empty", Json::obj([] as [(&str, Json); 0])),
        ]);
        let parsed = Json::parse(&j.render()).expect("parse");
        assert_eq!(parsed, j);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("null x").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn parse_rejects_malformed_untrusted_input_without_panicking() {
        for src in [
            "\"unterminated",
            "\"bad escape \\q\"",
            "\"truncated unicode \\u12",
            "\"surrogate \\ud800\"",
            "tru",
            "nul",
            "-",
            "+",
            "1e",
            "[1, ",
            "{\"a\": ",
            "{\"a\"",
            "[}",
            "{]",
            "{1: 2}",
            "\u{7f}",
        ] {
            assert!(Json::parse(src).is_err(), "accepted {src:?}");
        }
    }

    #[test]
    fn parse_rejects_deep_nesting_instead_of_overflowing() {
        // Far beyond MAX_DEPTH: must error, not crash the thread.
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(Json::parse(&deep_obj).unwrap_err().contains("nesting"));
        // And exactly MAX_DEPTH is still fine.
        let ok = format!("{}null{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}null{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn compact_render_is_single_line_and_round_trips() {
        let j = Json::obj([
            ("kind", Json::str("report")),
            ("text", Json::str("line one\nline two")),
            ("xs", Json::arr([Json::UInt(1), Json::Num(2.5), Json::Null, Json::Bool(false)])),
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::obj([] as [(&str, Json); 0])),
        ]);
        let s = j.render_compact();
        assert!(!s.contains('\n'), "compact render must be newline-free: {s}");
        assert_eq!(
            s,
            r#"{"kind":"report","text":"line one\nline two","xs":[1,2.5,null,false],"empty_arr":[],"empty_obj":{}}"#
        );
        assert_eq!(Json::parse(&s).unwrap(), j);
    }

    #[test]
    fn parse_distinguishes_uint_from_float() {
        assert_eq!(Json::parse("7").unwrap(), Json::UInt(7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::Num(7.0));
        assert_eq!(Json::parse("-7").unwrap(), Json::Num(-7.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
    }

    #[test]
    fn accessors() {
        assert_eq!(Json::UInt(3).as_f64(), Some(3.0));
        assert_eq!(Json::Num(2.5).as_f64(), Some(2.5));
        assert_eq!(Json::str("x").as_f64(), None);
        assert_eq!(Json::str("x").as_str(), Some("x"));
        assert_eq!(Json::Null.as_str(), None);
    }

    #[test]
    fn get_walks_objects() {
        let mut j = Json::obj([("a", Json::obj([("b", Json::num(2.0))]))]);
        assert_eq!(j.get("a").and_then(|a| a.get("b")), Some(&Json::Num(2.0)));
        *j.get_mut("a").unwrap().get_mut("b").unwrap() = Json::Null;
        assert_eq!(j.get("a").and_then(|a| a.get("b")), Some(&Json::Null));
        assert_eq!(j.get("missing"), None);
    }
}
