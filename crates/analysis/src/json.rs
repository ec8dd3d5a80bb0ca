//! A minimal JSON value, parser and pretty-printer.
//!
//! The program model is serialized to JSON so external tooling can read
//! it ([`crate::ProgramModel::to_json`]), and the benchmark writes and
//! re-reads its result documents with the same value type. The build
//! environment has no registry access, so instead of `serde`/`serde_json`
//! this module implements the small subset of JSON those documents need;
//! the model's wire format matches what `serde_json` would emit for the
//! same structs, so swapping the real crates back in later is a drop-in
//! change.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (the model only uses non-negative integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse or schema error, with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Parses a JSON document (must consume the whole input).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation (serde_json style).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out
    }

    /// Prints compactly on one line.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
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
                    newline_indent(out, depth + 1, pretty);
                    item.write(out, depth + 1, pretty);
                }
                newline_indent(out, depth, pretty);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1, pretty);
                    write_escaped(out, k);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    v.write(out, depth + 1, pretty);
                }
                newline_indent(out, depth, pretty);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, depth: usize, pretty: bool) {
    if pretty {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
}

/// Containers may nest at most this deep before parsing bails out; the
/// parser recurses per level, so an unchecked limit would let hostile
/// input (`[[[[...`) overflow the stack instead of returning `Err`.
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
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
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
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
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| JsonError("bad escape".into()))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| JsonError("bad \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the model
                            // schema; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return err("unknown escape"),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever advances by
                    // whole scalars or ASCII, so it is always a char
                    // boundary of the (already-valid) input `&str` and the
                    // slice below is O(1) — no re-validation of the tail.
                    let c = self.text[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_pretty_and_compact() {
        let src = r#"{"name":"m","items":[1,2,3],"flag":true,"none":null,"s":"a\"b\n"}"#;
        let v = Json::parse(src).unwrap();
        let pretty = v.to_string_pretty();
        let compact = v.to_string_compact();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert_eq!(Json::parse(&compact).unwrap(), v);
        assert_eq!(compact, src);
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a":[{"id":7}],"s":"x"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].get("id"), Some(&Json::Num(7.0)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse(r#"{"a":1} trailing"#).is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        let nested_objs = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&nested_objs).is_err());
        // Sibling (non-nested) structure of any length stays fine.
        let wide = format!("[{}1]", "1,".repeat(10_000));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""A\té""#).unwrap();
        assert_eq!(v.as_str(), Some("A\t\u{e9}"));
    }
}
