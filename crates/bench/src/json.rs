//! Minimal JSON tree with a deterministic writer and a strict parser.
//!
//! The benchmark gate needs *byte-stable* output (the golden-file test
//! pins the exact serialization), so the harness carries its own
//! ~200-line JSON:
//!
//! * [`Json`] — a value tree whose objects preserve insertion order, so
//!   field ordering is part of the schema and survives round-trips,
//! * [`Json::render`] — pretty printer with 2-space indent; floats are
//!   written in Rust's shortest-roundtrip `{:?}` form, so equal values
//!   always serialize to equal bytes,
//! * [`Json::parse`] — a strict recursive-descent parser (rejects
//!   trailing garbage, unknown escapes and non-finite numbers).

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent in its source form.
    Int(i64),
    /// Any other number (always finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Integer view (`Int` only — floats do not silently truncate).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view (`Int` widens to `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => Some(v as f64),
            Json::Num(v) => Some(v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent, trailing
    /// newline). Deterministic: equal trees produce equal bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value on a single line, no whitespace, no trailing
    /// newline — one JSONL record. Deterministic like [`Json::render`];
    /// [`Json::parse`] reads either form back identically.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::Int(_) | Json::Num(_) | Json::Str(_) => {
                self.write(out, 0)
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                assert!(v.is_finite(), "JSON cannot represent {v}");
                // Shortest-roundtrip form; always carries a '.' or an 'e',
                // so the parser reads it back as Num, not Int.
                let s = format!("{v:?}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// anything else is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            let c = if (0xd800..0xdc00).contains(&code) {
                                // High surrogate: a standard encoder may
                                // escape a non-BMP char as a \uD8xx\uDCxx
                                // pair, which must decode to one char.
                                if self.bytes.get(self.pos + 1..self.pos + 3)
                                    != Some(b"\\u".as_slice())
                                {
                                    return Err("lone high surrogate in \\u escape".into());
                                }
                                let low = self.hex4(self.pos + 3)?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err("invalid low surrogate in \\u escape".into());
                                }
                                self.pos += 6;
                                0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                            } else {
                                code
                            };
                            s.push(char::from_u32(c).ok_or("bad \\u code point")?);
                        }
                        other => {
                            return Err(format!("unknown escape {:?}", other.map(|c| c as char)))
                        }
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
            .map_err(|e| format!("bad \\u escape: {e}"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|e| format!("bad number {text}: {e}"))?;
            if !v.is_finite() {
                return Err(format!("non-finite number {text}"));
            }
            Ok(Json::Num(v))
        } else {
            let v: i64 = text
                .parse()
                .map_err(|e| format!("bad number {text}: {e}"))?;
            Ok(Json::Int(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_is_single_line_and_roundtrips() {
        let doc = Json::Obj(vec![
            ("kind".into(), Json::Str("SpillWords".into())),
            ("value".into(), Json::Int(42)),
            ("f".into(), Json::Num(2.0)),
            (
                "arr".into(),
                Json::Arr(vec![Json::Int(1), Json::Null, Json::Bool(true)]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "JSONL record must be one line");
        assert_eq!(
            line,
            r#"{"kind":"SpillWords","value":42,"f":2.0,"arr":[1,null,true],"empty":{}}"#
        );
        assert_eq!(Json::parse(&line).expect("compact form parses"), doc);
    }

    #[test]
    fn roundtrip_preserves_order_and_values() {
        let doc = Json::Obj(vec![
            ("z".into(), Json::Int(3)),
            ("a".into(), Json::Num(0.0625)),
            (
                "list".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::Str("x\"y".into())]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("parse own output");
        assert_eq!(doc, back);
        // Field order survives: "z" serializes before "a".
        assert!(text.find("\"z\"").unwrap() < text.find("\"a\"").unwrap());
    }

    #[test]
    fn float_rendering_roundtrips_bit_exactly() {
        for v in [0.1, 1.0 / 3.0, 6.0, 1e-30, 123456.789, 0.0625] {
            let text = Json::Num(v).render();
            match Json::parse(&text).unwrap() {
                Json::Num(back) => assert_eq!(back.to_bits(), v.to_bits(), "{text}"),
                other => panic!("expected Num, got {other:?} from {text}"),
            }
        }
    }

    #[test]
    fn whole_floats_keep_a_fraction_marker() {
        assert_eq!(Json::Num(6.0).render(), "6.0\n");
        assert_eq!(Json::Int(6).render(), "6\n");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1e999").is_err(), "infinite float rejected");
    }

    #[test]
    fn accessors() {
        let doc = Json::parse("{\"n\": 3, \"x\": 1.5, \"s\": \"v\", \"a\": [1]}").unwrap();
        assert_eq!(doc.get("n").unwrap().as_i64(), Some(3));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("x").unwrap().as_f64(), Some(1.5));
        assert_eq!(
            doc.get("x").unwrap().as_i64(),
            None,
            "floats don't truncate"
        );
        assert_eq!(doc.get("s").unwrap().as_str(), Some("v"));
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn surrogate_pairs_decode() {
        // A standard ASCII-escaping encoder writes non-BMP chars as pairs.
        let parsed = Json::parse("\"\\ud83d\\ude00 ok \\u00e9\"").unwrap();
        assert_eq!(parsed.as_str(), Some("\u{1f600} ok é"));
        // Lone or malformed surrogates stay rejected.
        assert!(Json::parse("\"\\ud83d\"").is_err());
        assert!(Json::parse("\"\\ud83d\\u0041\"").is_err());
        assert!(Json::parse("\"\\udc00\"").is_err(), "lone low surrogate");
    }

    #[test]
    fn escapes_roundtrip() {
        let s = "line1\nline2\ttab \"quoted\" back\\slash \u{1}control";
        let text = Json::Str(s.into()).render();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }
}
