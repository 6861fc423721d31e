//! The workspace's one JSON module: a minimal writer for the exporters
//! (objects, arrays, strings, and finite numbers, with deterministic
//! formatting) and a strict reader, [`parse`], for the files they write.
//!
//! The reader follows RFC 8259. Numbers are checked against its grammar
//! and kept as their source text, so `u64` fields convert exactly, and
//! strings take every escape, `\uXXXX` surrogate pairs included. It uses
//! two limits the RFC allows: a duplicate object key is an error, and so
//! is nesting deeper than 64 arrays or objects, so that hostile input
//! cannot overflow the stack.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Escapes `s` and appends it as a JSON string (with quotes).
pub fn push_str(out: &mut String, s: &str) {
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

/// Appends a finite `f64` in the shortest round-trip form; integral values
/// print without a fractional part, non-finite values print as `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends a `u64`.
pub fn push_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Appends `[v0,v1,...]`.
pub fn push_f64_array(out: &mut String, vs: &[f64]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *v);
    }
    out.push(']');
}

/// The deepest array/object nesting [`parse`] accepts.
const MAX_DEPTH: usize = 64;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text.
    Num(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; its keys are unique.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// A number parsed as `T`: `num::<u64>()` takes only exact unsigned
    /// integers, and `num::<f64>()` reads `1e999` as infinity.
    #[must_use]
    pub fn num<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }
}

/// Parses one JSON document; surrounding whitespace is allowed.
///
/// # Errors
///
/// Describes the first problem and its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader { text, pos: 0 };
    let value = r.value(0)?;
    r.ws();
    if r.pos < text.len() {
        return r.fail("trailing content");
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn require(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            self.fail(&format!("expected '{}'", char::from(b)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.ws();
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9' | b'a'..=b'z') => self.scalar(),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => self.fail("nesting too deep"),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                while !self.eat(b']') {
                    if !items.is_empty() {
                        self.require(b',')?;
                    }
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = BTreeMap::new();
                while !self.eat(b'}') {
                    if !members.is_empty() {
                        self.require(b',')?;
                    }
                    let key = self.string()?;
                    self.require(b':')?;
                    let value = self.value(depth + 1)?;
                    if members.insert(key.clone(), value).is_some() {
                        return self.fail(&format!("duplicate key \"{key}\""));
                    }
                }
                Ok(Value::Obj(members))
            }
            _ => self.fail("expected a value"),
        }
    }

    /// A maximal run of letters, digits, `+`, `-` and `.`, which must be
    /// `null`, `true`, `false` or a number `-? (0 | [1-9][0-9]*) (. [0-9]+)?
    /// ([eE] [+-]? [0-9]+)?`: Rust's float grammar without a leading `+`,
    /// leading zeros or a `.` without digits after it.
    fn scalar(&mut self) -> Result<Value, String> {
        let rest = &self.text[self.pos..];
        let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c)));
        let text = &rest[..end.unwrap_or(rest.len())];
        let int = text.strip_prefix('-').unwrap_or(text);
        let value = match text {
            "null" => Value::Null,
            "true" | "false" => Value::Bool(text == "true"),
            _ if int.starts_with(|c: char| c.is_ascii_digit())
                && !(int.starts_with('0')
                    && int[1..].starts_with(|c: char| c.is_ascii_digit()))
                && !(text.ends_with('.') || text.contains(".e") || text.contains(".E"))
                && text.parse::<f64>().is_ok() =>
            {
                Value::Num(text.to_string())
            }
            _ => return self.fail("invalid literal"),
        };
        self.pos += text.len();
        Ok(value)
    }

    /// Reads a string, skipping whitespace before its opening quote.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return self.fail("expected a string");
        }
        let mut out = String::new();
        loop {
            let Some(c) = self.text[self.pos..].chars().next() else {
                return self.fail("unterminated string");
            };
            self.pos += c.len_utf8();
            let c = match c {
                '"' => return Ok(out),
                '\\' => self.escape()?,
                c if c < ' ' => return self.fail("control character in string"),
                c => c,
            };
            out.push(c);
        }
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char, String> {
        let esc = self.peek();
        self.pos += 1;
        Ok(match esc {
            Some(e @ (b'"' | b'\\' | b'/')) => char::from(e),
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                // A high surrogate takes the `\uXXXX` after it as its pair.
                let mut units = vec![self.hex4()?];
                if (0xD800..0xDC00).contains(&units[0]) && self.text[self.pos..].starts_with("\\u")
                {
                    self.pos += 2;
                    units.push(self.hex4()?);
                }
                match char::decode_utf16(units).next() {
                    Some(Ok(c)) => c,
                    _ => return self.fail("unpaired surrogate"),
                }
            }
            _ => return self.fail("invalid escape"),
        })
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        self.pos += 4;
        hex.and_then(|h| u16::from_str_radix(h, 16).ok())
            .map_or_else(|| self.fail("invalid \\u escape"), Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn strings_escape() {
        assert_eq!(s(|o| push_str(o, "a\"b\\c\nd")), r#""a\"b\\c\nd""#);
        assert_eq!(s(|o| push_str(o, "\u{1}")), "\"\\u0001\"");
    }

    #[test]
    fn numbers_format() {
        assert_eq!(s(|o| push_f64(o, 3.0)), "3");
        assert_eq!(s(|o| push_f64(o, 3.25)), "3.25");
        assert_eq!(s(|o| push_f64(o, f64::NAN)), "null");
        assert_eq!(s(|o| push_f64_array(o, &[1.0, 2.5])), "[1,2.5]");
    }

    #[test]
    fn reader_builds_the_value_tree() {
        let v = parse(" {\"a\": [1, -2.5e3, true, null], \"b\": {\"c\": \"d\"}} ").unwrap();
        let arr = Value::Arr(vec![
            Value::Num("1".into()),
            Value::Num("-2.5e3".into()),
            Value::Bool(true),
            Value::Null,
        ]);
        let inner = Value::Obj(BTreeMap::from([("c".into(), Value::Str("d".into()))]));
        let outer = BTreeMap::from([("a".into(), arr), ("b".into(), inner)]);
        assert_eq!(v, Value::Obj(outer));
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(BTreeMap::new()));
    }

    #[test]
    fn numbers_keep_their_text_and_convert_exactly() {
        let n = parse("18446744073709551615").unwrap();
        assert_eq!(n.num::<u64>(), Some(u64::MAX));
        assert_eq!(parse("1.0").unwrap().num::<u64>(), None);
        assert_eq!(parse("-1").unwrap().num::<u64>(), None);
        assert_eq!(parse("0.25").unwrap().num::<f64>(), Some(0.25));
        assert_eq!(parse("1e999").unwrap().num::<f64>(), Some(f64::INFINITY));
        for bad in [
            "01", "-", "1.", ".5", "1e", "1e+", "+1", "0x10", "NaN", "Infinity",
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn strings_read_back_what_the_writer_escapes() {
        let text = "q\"b\\s\nn\rr\tt\u{1}\u{1f}é😀/";
        let written = s(|o| push_str(o, text));
        assert_eq!(parse(&written).unwrap(), Value::Str(text.into()));
        let escaped = r#""\/\b\fé😀""#;
        assert_eq!(parse(escaped).unwrap(), Value::Str("/\u{8}\u{c}é😀".into()));
        for bad in [
            r#""\x""#,
            r#""\u12""#,
            r#""\ud83d""#,
            r#""\ude00""#,
            "\"a\u{1}\"",
            "\"open",
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn reader_rejects_what_json_rejects() {
        for bad in [
            "",
            "nope",
            "{\"a\": nope}",
            "{\"a\": 1, \"a\": 2}",
            "{\"a\" 1}",
            "{a: 1}",
            "[1,]",
            "[1 2]",
            "{\"a\": 1,}",
            "{} {}",
            "truex",
            "[",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).is_err());
        assert!(parse(&"[{\"a\":".repeat(100_000)).is_err());
    }
}
