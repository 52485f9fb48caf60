//! The workspace's one JSON reader and writer.
//!
//! * [`parse`] reads one complete, strict RFC 8259 value: `\uXXXX`
//!   escapes and UTF-8 strings; no trailing commas, bare words, raw
//!   control characters in strings, or bytes after the value.
//! * [`escape`] is the one string escaper ([`quote`] and [`quote_all`]
//!   wrap it): what a sink writes, [`parse`] reads back to the same
//!   string.
//! * [`Record`] builds one BENCH history line (`ELANIB_BENCH_JSON`):
//!   the `{"kind","schema","git_rev",…}` envelope, then the producer's
//!   members in call order, each number formatted by the producer, so
//!   a record's bytes are fixed by its call sequence.

use std::fmt::{Display, Write};
use std::path::Path;

/// Version stamped into every BENCH record envelope.
pub const SCHEMA: u32 = 3;

/// One parsed JSON value. Object members keep their input order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn as_f64(&self) -> Option<f64> {
        let Value::Num(n) = self else { return None };
        Some(*n)
    }
    pub fn as_str(&self) -> Option<&str> {
        let Value::Str(s) = self else { return None };
        Some(s)
    }
    pub fn as_arr(&self) -> Option<&[Value]> {
        let Value::Arr(a) = self else { return None };
        Some(a)
    }
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        let Value::Obj(o) = self else { return None };
        Some(o)
    }
    /// First member named `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let (_, v) = self.as_obj()?.iter().find(|(k, _)| k == key)?;
        Some(v)
    }
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }
}

/// Parse `text` as exactly one JSON value.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing bytes"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at offset {}", self.pos)
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        let word = |w: &str| self.b[self.pos..].starts_with(w.as_bytes());
        let (len, v) = match self.peek() {
            Some(b'{') => return self.object(),
            Some(b'[') => return self.array(),
            Some(b'"') => return self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            _ if word("true") => (4, Value::Bool(true)),
            _ if word("false") => (5, Value::Bool(false)),
            _ if word("null") => (4, Value::Null),
            _ => return Err(self.err("expected a JSON value")),
        };
        self.pos += len;
        Ok(v)
    }

    /// Comma-separated members up to `close`, each read by `member`.
    /// A comma must be followed by a member: `[1,]` is an error.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        self.pos += 1; // the opening bracket
        self.ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(member(self)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        let obj = self.members(b'}', |p| {
            p.ws();
            if p.peek() != Some(b'"') {
                return Err(p.err("expected a string key"));
            }
            let k = p.string()?;
            p.ws();
            if p.peek() != Some(b':') {
                return Err(p.err("expected ':'"));
            }
            p.pos += 1;
            Ok((k, p.value()?))
        })?;
        Ok(Value::Obj(obj))
    }

    fn array(&mut self) -> Result<Value, String> {
        Ok(Value::Arr(self.members(b']', Self::value)?))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        let int_at = self.pos;
        let int = self.digits();
        let mut ok = int == 1 || (int > 1 && self.b[int_at] != b'0');
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            ok &= self.digits() > 0;
        }
        let s = std::str::from_utf8(&self.b[start..self.pos]).expect("ASCII sign and digits");
        match s.parse() {
            Ok(n) if ok => Ok(Value::Num(n)),
            _ => Err(format!("bad number {s:?} at offset {start}")),
        }
    }

    /// The four hex digits after a `\u`.
    fn hex4(&mut self) -> Result<u32, String> {
        let h = (self.b.get(self.pos..self.pos + 4))
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
            .ok_or_else(|| self.err("expected 4 hex digits"))?;
        self.pos += 4;
        Ok(h)
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote,
            // backslash or control byte. The input is a `&str`, so a
            // run that stops only at ASCII bytes is whole UTF-8.
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.b[run..self.pos]);
            out.push_str(text.expect("a run ending at an ASCII byte is whole UTF-8"));
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {}
                _ => return Err(self.err("raw control character in string")),
            }
            let esc = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    // A high surrogate must pair with a low one.
                    let mut code = self.hex4()?;
                    if (0xD800..0xDC00).contains(&code) && self.b[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if (0xDC00..0xE000).contains(&lo) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                        }
                    }
                    char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))?
                }
                _ => return Err(self.err("invalid escape")),
            });
        }
    }
}

/// JSON string body for `s` (without the surrounding quotes): `"` and
/// `\` backslash-escaped, `\n` and `\t` by name, every other control
/// character as `\u00XX`. Everything else, non-ASCII included, passes
/// through as UTF-8.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `s` as a JSON string literal: [`escape`]d, in double quotes.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Each item [`quote`]d, joined by `sep`: the body of a JSON array.
pub fn quote_all<S: AsRef<str>>(items: impl IntoIterator<Item = S>, sep: &str) -> String {
    let items: Vec<String> = items.into_iter().map(|s| quote(s.as_ref())).collect();
    items.join(sep)
}

/// Seconds since the Unix epoch (0 if the clock is before it).
pub(crate) fn unix_ts() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// One BENCH history record under construction: [`Record::new`] writes
/// the envelope, each other call appends one member.
pub struct Record {
    line: String,
}

impl Record {
    pub fn new(kind: &str) -> Record {
        let mut r = Record {
            line: String::from("{"),
        };
        r.str("kind", kind)
            .raw("schema", SCHEMA)
            .str("git_rev", crate::git_rev());
        r
    }

    /// A member written in its `Display` form: an integer, or JSON the
    /// caller has already rendered.
    pub fn raw(&mut self, key: &str, value: impl Display) -> &mut Record {
        if self.line.len() > 1 {
            self.line.push(',');
        }
        let _ = write!(self.line, "\"{}\":{value}", escape(key));
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Record {
        self.raw(key, quote(v))
    }

    /// A float member with exactly `decimals` fraction digits.
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) -> &mut Record {
        self.raw(key, format_args!("{v:.decimals$}"))
    }

    pub fn strs<S: AsRef<str>>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = S>,
    ) -> &mut Record {
        self.raw(key, format_args!("[{}]", quote_all(items, ",")))
    }

    /// The `unix_ts` member: the wall-clock second of this call.
    pub fn unix_ts(&mut self) -> &mut Record {
        self.raw("unix_ts", unix_ts())
    }

    /// The finished record as one line (no trailing newline).
    pub fn line(&self) -> String {
        format!("{}}}", self.line)
    }

    /// Append the finished record to the file named by
    /// `ELANIB_BENCH_JSON`: a no-op when it is unset or empty, silent
    /// on unwritable paths. Read on every call, not cached, so a
    /// process can point it somewhere new between records.
    pub fn append(&self) {
        if let Some(path) = std::env::var_os("ELANIB_BENCH_JSON").filter(|p| !p.is_empty()) {
            let _ = crate::jsonl::append_line(Path::new(&path), &self.line());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_then_parse_round_trips() {
        for s in [
            "",
            "plain",
            "quote \" and backslash \\",
            "lines\nand\r\nreturns\ttabs",
            "controls \u{0} \u{1} \u{8} \u{c} \u{1b} \u{1f}",
            "1.2 µs on Elan‑4 — ±20 %",
            "astral 𝄞 clef",
        ] {
            let text = format!("\"{}\"", escape(s));
            assert_eq!(parse(&text), Ok(Value::Str(s.to_string())), "{text}");
        }
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}\r"), "\\u0001\\u000d");
    }

    #[test]
    fn parses_every_value_kind() {
        let v = parse(
            " {\"a\": [1, -2.5e3, 0, 0.25], \"b\": true, \"c\": null, \"d\": {}, \"e\": []} ",
        )
        .unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap(),
            &[
                Value::Num(1.0),
                Value::Num(-2500.0),
                Value::Num(0.0),
                Value::Num(0.25)
            ]
        );
        assert_eq!(v.get("b"), Some(&Value::Bool(true)));
        assert_eq!(v.get("c"), Some(&Value::Null));
        assert_eq!(v.get("d"), Some(&Value::Obj(Vec::new())));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn decodes_unicode_escapes() {
        assert_eq!(
            parse(r#""\u00b1 \u2014 \ud834\udd1e \/ \b\f""#).unwrap(),
            Value::Str("± — 𝄞 / \u{8}\u{c}".into())
        );
        assert!(parse(r#""\ud834""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\udd1e""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\u12""#).is_err(), "short hex");
        assert!(parse(r#""\u+12a""#).is_err(), "sign is not a hex digit");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "[1,]",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "{a:1}",
            "tru",
            "nul",
            "True",
            "undefined",
            "[bare]",
            "\"unterminated",
            "\"bad escape \\x\"",
            "\"raw\ncontrol\"",
            "{\"a\":1} x",
            "[1][2]",
            "01",
            "1.",
            ".5",
            "+1",
            "1e",
            "-",
            "NaN",
            "{bad json",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let e = parse("[1,]").unwrap_err();
        assert!(e.contains("offset 3"), "{e}");
    }

    #[test]
    fn record_envelope_and_member_order() {
        let mut r = Record::new("sweep");
        r.str("label", "fig\"2")
            .raw("jobs", 24)
            .fixed("wall_s", 0.5, 6)
            .fixed("events_per_sec", 2e6, 1)
            .strs("failures", ["a\nb", "c\rd"])
            .raw("workers", "[{\"w\":0}]");
        let line = r.line();
        assert_eq!(
            line,
            format!(
                "{{\"kind\":\"sweep\",\"schema\":3,\"git_rev\":\"{}\",\"label\":\"fig\\\"2\",\"jobs\":24,\"wall_s\":0.500000,\"events_per_sec\":2000000.0,\"failures\":[\"a\\nb\",\"c\\u000dd\"],\"workers\":[{{\"w\":0}}]}}",
                crate::git_rev()
            )
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.str("label"), Some("fig\"2"));
        assert_eq!(
            v.get("failures").unwrap().as_arr().unwrap()[1],
            Value::Str("c\rd".into())
        );
    }
}
