//! A minimal JSON value tree and printer.
//!
//! `wym-obs` is dependency-free, so its sinks carry their own JSON writer
//! instead of pulling in the workspace's vendored serde. The float and
//! string formatting deliberately mirrors `vendor/serde_json` (integral
//! floats keep a `.0` marker, non-finite floats print as `null`, control
//! characters are `\u` escaped) so files written by either serializer look
//! alike and existing JSON consumers keep working.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counters can exceed `i64`).
    UInt(u64),
    /// Float.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with preserved key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Compact rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering (2-space indent), newline-terminated.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{n:.1}"));
                } else {
                    out.push_str(&n.to_string());
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                write_items(out, items.len(), indent, depth, |out, i, ind, d| {
                    items[i].write(out, ind, d);
                });
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                write_items(out, pairs.len(), indent, depth, |out, i, ind, d| {
                    write_string(out, &pairs[i].0);
                    out.push(':');
                    if ind.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, ind, d);
                });
                out.push('}');
            }
        }
    }
}

fn write_items(
    out: &mut String,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    mut write_item: impl FnMut(&mut String, usize, Option<usize>, usize),
) {
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        write_item(out, i, indent, depth + 1);
    }
    if len > 0 {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * depth));
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Parses a JSON document into a [`Json`] tree — the read half of this
/// module, used by `obs_diff` and the manifest/snapshot loaders. Numbers
/// without a fraction or exponent come back as [`Json::UInt`] /
/// [`Json::Int`]; everything else numeric is [`Json::Num`]. Duplicate
/// object keys are kept in order (last one wins for typical readers).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so unbounded nesting in a hostile file would overflow
/// the stack; the deepest document this workspace writes has 7 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("JSON nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates only appear for non-BMP chars the
                            // writer never emits; map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !fractional {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_like_serde_json() {
        assert_eq!(Json::Num(2.0).render(), "2.0", "integral floats keep .0");
        assert_eq!(Json::Num(2.5).render(), "2.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::UInt(u64::MAX).render(), u64::MAX.to_string());
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Null.render(), "null");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::str("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn renders_nested_structures() {
        let v = Json::obj(vec![
            ("xs", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("name", Json::str("wym")),
        ]);
        assert_eq!(v.render(), r#"{"xs":[1,2],"name":"wym"}"#);
    }

    #[test]
    fn pretty_indents_and_terminates_with_newline() {
        let v = Json::obj(vec![("a", Json::Int(1))]);
        assert_eq!(v.pretty(), "{\n  \"a\": 1\n}\n");
        assert_eq!(Json::Arr(vec![]).pretty(), "[]\n");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::obj(vec![
            ("spans", Json::Arr(vec![Json::obj(vec![
                ("path", Json::str("fit/pair")),
                ("count", Json::UInt(3)),
                ("big", Json::UInt(u64::MAX)),
            ])]),),
            ("neg", Json::Int(-7)),
            ("f", Json::Num(2.5)),
            ("whole", Json::Num(2.0)),
            ("s", Json::str("a\"b\\c\nd\t\u{1}")),
            ("t", Json::Bool(true)),
            ("n", Json::Null),
            ("empty", Json::Arr(vec![])),
        ]);
        for text in [v.render(), v.pretty()] {
            let back = parse(&text).unwrap();
            // `2.0` comes back as a float, everything else exact.
            let Json::Obj(pairs) = &back else { panic!("not an object") };
            assert_eq!(pairs.len(), 8);
            assert_eq!(back.render(), v.render());
        }
    }

    #[test]
    fn parse_distinguishes_integer_kinds() {
        assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(parse("-3").unwrap(), Json::Int(-3));
        assert_eq!(parse("2.5e3").unwrap(), Json::Num(2500.0));
        assert_eq!(parse("0").unwrap(), Json::UInt(0));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "truish", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_refuses_deep_nesting() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        assert_eq!(parse(r#""a\u0041\n""#).unwrap(), Json::str("aA\n"));
        assert_eq!(parse("\"héllo→\"").unwrap(), Json::str("héllo→"));
    }
}
