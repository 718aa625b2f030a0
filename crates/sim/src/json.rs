//! A dependency-free JSON value, parser, and writer.
//!
//! The build environment has no crates registry (the workspace's
//! `serde` resolves to a no-op marker stub), but the sweep supervisor
//! needs a real wire format for its checkpoint manifests. This module
//! is the smallest JSON that round-trips the workspace's report types
//! **exactly**:
//!
//! * numbers are stored inline ([`Num`]): `u64` cycle counts stay
//!   exact beyond 2^53, negative integers are `i64`s, and `f64`s
//!   render with Rust's shortest round-trip formatting, so they
//!   re-parse to the identical bits — the property the byte-identical
//!   checkpoint/resume guarantee rests on. The parser picks an inline
//!   form only when rendering it reproduces the input lexeme exactly;
//!   any other lexeme (`1e5`, `01`, `1.50`) is kept verbatim, so
//!   write → parse → write is byte-stable for every accepted input;
//! * object entries preserve insertion order, so a written manifest
//!   line is byte-stable across write → parse → write.
//!
//! The parser accepts the non-standard lexemes `NaN`, `inf`, and
//! `-inf` because that is how [`Value::f64`] (and Rust's `{:?}`) spells
//! non-finite floats; we only ever parse our own output.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (see [`Num`] for the lossless round-trip rules).
    Num(Num),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; entries keep insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field by key, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(Num::U(n)) => Some(*n),
            Value::Num(Num::Lex(s)) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as `u32`, if it is an unsigned integer that fits.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64()?.try_into().ok()
    }

    /// The number as `i64`, if this is a (possibly negative) integer
    /// that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(Num::U(n)) => (*n).try_into().ok(),
            Value::Num(Num::I(n)) => Some(*n),
            Value::Num(Num::Lex(s)) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64` (accepting `NaN`/`inf`/`-inf`); integers
    /// round to nearest, exactly as parsing their text does.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(Num::U(n)) => Some(*n as f64),
            Value::Num(Num::I(n)) => Some(*n as f64),
            Value::Num(Num::F(v)) => Some(*v),
            Value::Num(Num::Lex(s)) => s.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor: a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience constructor: an unsigned integer value.
    pub fn u64(n: u64) -> Value {
        Value::Num(Num::U(n))
    }

    /// Convenience constructor: an `f64` value written with shortest
    /// round-trip formatting (re-parses to identical bits).
    pub fn f64(v: f64) -> Value {
        Value::Num(Num::F(if v.is_nan() { f64::NAN } else { v }))
    }

    /// Removes and returns the field `key`, if this is an object that
    /// has it — moves a subtree out without cloning it.
    pub fn take(&mut self, key: &str) -> Option<Value> {
        match self {
            Value::Obj(entries) => {
                let i = entries.iter().position(|(k, _)| k == key)?;
                Some(entries.remove(i).1)
            }
            _ => None,
        }
    }
}

/// A JSON number, stored inline wherever that is lossless.
///
/// Every form renders to exactly one text, and that text re-parses to
/// the same form, so write → parse → write is byte-stable. Equality is
/// equality of the rendered text.
#[derive(Debug, Clone)]
pub enum Num {
    /// A non-negative integer, rendered in decimal.
    U(u64),
    /// A negative integer (non-negative ones are always [`Num::U`]).
    I(i64),
    /// A float, rendered in Rust's shortest round-trip form (`{:?}`)
    /// with `NaN`/`inf`/`-inf` spelled out; NaN is stored as
    /// `f64::NAN`.
    F(f64),
    /// A lexeme no inline form renders back to verbatim (`1e5`, `01`,
    /// `1.50`, integers beyond 64 bits), kept as parsed.
    Lex(Box<str>),
}

impl Num {
    /// Parses a number lexeme: the inline form whose rendering is the
    /// lexeme itself, else the lexeme verbatim. `None` when the lexeme
    /// is not a number at all (does not parse as an `f64`).
    fn parse(lexeme: &str) -> Option<Num> {
        let inline = if let Ok(n) = lexeme.parse() {
            Num::U(n)
        } else if let Ok(n) = lexeme.parse() {
            Num::I(n)
        } else {
            Num::F(lexeme.parse().ok()?)
        };
        if renders_as(&inline, lexeme) {
            Some(inline)
        } else {
            lexeme.parse::<f64>().ok()?;
            Some(Num::Lex(lexeme.into()))
        }
    }
}

impl PartialEq for Num {
    fn eq(&self, other: &Num) -> bool {
        match (self, other) {
            (Num::U(a), Num::U(b)) => a == b,
            (Num::I(a), Num::I(b)) => a == b,
            // Shortest round-trip text is unique per bit pattern.
            (Num::F(a), Num::F(b)) => a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            (Num::Lex(a), Num::Lex(b)) => a == b,
            _ => self.to_string() == other.to_string(),
        }
    }
}

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Num::U(n) => write!(f, "{n}"),
            Num::I(n) => write!(f, "{n}"),
            // Shortest round-trip form; non-finite values come out as
            // `NaN`, `inf` and `-inf`, which the parser accepts.
            Num::F(v) => write!(f, "{v:?}"),
            Num::Lex(s) => f.write_str(s),
        }
    }
}

/// Whether `n` renders to exactly `lexeme`, compared as the text is
/// produced (no allocation).
fn renders_as(n: &Num, lexeme: &str) -> bool {
    struct Match<'a>(&'a str);
    impl fmt::Write for Match<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Match(lexeme);
    fmt::write(&mut rest, format_args!("{n}")).is_ok() && rest.0.is_empty()
}

impl fmt::Display for Value {
    /// Compact JSON (no whitespace), object order preserved.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Num(n) => n.fmt(f),
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Value::Obj(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure, with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON value, requiring the whole input to be consumed
/// (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`ParseError`] naming the first offending byte offset.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {lit}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'N') => self.literal("NaN", Value::f64(f64::NAN)),
            Some(b'i') => self.literal("inf", Value::f64(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-inf") => {
                self.literal("-inf", Value::f64(f64::NEG_INFINITY))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates never appear in our own output.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let lexeme = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if lexeme.is_empty() || lexeme == "-" {
            return Err(self.err("malformed number"));
        }
        Num::parse(lexeme)
            .map(Value::Num)
            .ok_or_else(|| self.err(format!("malformed number {lexeme:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for src in ["null", "true", "false", "0", "-17", "1.5", "\"hi\""] {
            let v = parse(src).unwrap();
            assert_eq!(v.to_string(), src, "{src}");
        }
    }

    #[test]
    fn u64_beyond_f64_precision_is_exact() {
        let big = u64::MAX - 1;
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v.to_string(), big.to_string());
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -0.0,
            2.2250738585072014e-308,
        ] {
            let v = Value::f64(x);
            let back = parse(&v.to_string()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        let nan = parse(&Value::f64(f64::NAN).to_string())
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(nan.is_nan());
        assert_eq!(
            parse("inf").unwrap().as_f64(),
            Some(f64::INFINITY),
            "inf lexeme"
        );
        assert_eq!(parse("-inf").unwrap().as_f64(), Some(f64::NEG_INFINITY));
    }

    fn num(src: &str) -> Num {
        match parse(src).unwrap() {
            Value::Num(n) => n,
            other => panic!("{src} parsed as {other:?}"),
        }
    }

    #[test]
    fn canonical_lexemes_are_stored_inline() {
        let max = u64::MAX.to_string();
        let min = i64::MIN.to_string();
        for src in ["0", "7", "42", max.as_str()] {
            assert!(matches!(num(src), Num::U(_)), "{src}");
            assert_eq!(num(src).to_string(), src);
        }
        for src in ["-1", "-17", min.as_str()] {
            assert!(matches!(num(src), Num::I(_)), "{src}");
            assert_eq!(num(src).to_string(), src);
        }
        for src in [
            "1.5",
            "0.1",
            "-0.0",
            "1e20",
            "1e-7",
            "2.2250738585072014e-308",
            "NaN",
            "inf",
            "-inf",
        ] {
            assert!(matches!(num(src), Num::F(_)), "{src}");
            assert_eq!(num(src).to_string(), src);
        }
    }

    #[test]
    fn non_canonical_lexemes_re_render_verbatim() {
        for src in [
            "1e5",
            "1E5",
            "01",
            "-01",
            "-0",
            "1.50",
            "1.0e0",
            "0.10",
            "18446744073709551616",
            "-9223372036854775809",
            "1e400",
        ] {
            assert!(matches!(num(src), Num::Lex(_)), "{src}");
            assert_eq!(num(src).to_string(), src);
            let doc = format!("[{src},{{\"k\":{src}}}]");
            assert_eq!(parse(&doc).unwrap().to_string(), doc);
        }
    }

    #[test]
    fn accessors_match_parsing_the_lexeme() {
        let max = u64::MAX.to_string();
        let min = i64::MIN.to_string();
        for src in [
            "0",
            "42",
            "4294967296",
            "9223372036854775808",
            max.as_str(),
            "-17",
            min.as_str(),
            "1.5",
            "-0.0",
            "1e20",
            "NaN",
            "inf",
            "-inf",
            "1e5",
            "01",
            "-0",
            "1.50",
            "18446744073709551616",
            "9007199254740993",
        ] {
            let v = parse(src).unwrap();
            assert_eq!(v.as_u64(), src.parse().ok(), "as_u64 {src}");
            assert_eq!(v.as_u32(), src.parse().ok(), "as_u32 {src}");
            assert_eq!(v.as_i64(), src.parse().ok(), "as_i64 {src}");
            let want: f64 = src.parse().unwrap();
            let got = v.as_f64().unwrap();
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "as_f64 {src}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn numbers_compare_by_rendered_text() {
        assert_eq!(parse("5").unwrap(), Value::u64(5));
        assert_eq!(parse("1.0").unwrap(), Value::f64(1.0));
        assert_eq!(parse("-3").unwrap(), Value::Num(Num::I(-3)));
        let payload_nan = f64::from_bits(f64::NAN.to_bits() | 1);
        assert_eq!(Value::f64(payload_nan), parse("NaN").unwrap());
        assert_eq!(Value::f64(payload_nan).to_string(), "NaN");
        assert_ne!(parse("1e5").unwrap(), Value::f64(1e5));
        assert_ne!(parse("01").unwrap(), Value::u64(1));
        assert_ne!(Value::f64(0.0), Value::f64(-0.0));
        assert_eq!(Num::Lex("7".into()), Num::U(7));
    }

    #[test]
    fn objects_preserve_order_and_nest() {
        let src = r#"{"b":1,"a":{"x":[1,2,3],"y":"z"},"c":null}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_string(), src);
        assert_eq!(v.get("a").unwrap().get("y").unwrap().as_str(), Some("z"));
        assert_eq!(
            v.get("a")
                .unwrap()
                .get("x")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            3
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode λ";
        let v = Value::str(nasty);
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse("{\"a\":}").unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(parse("").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("12 34").unwrap_err().msg.contains("trailing"));
        assert!(parse("\"open").is_err());
        assert!(parse("-").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2]}"#);
    }
}
