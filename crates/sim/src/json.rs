//! A dependency-free JSON value, parser, and writer.
//!
//! The workspace takes no serialization dependency, but the sweep
//! supervisor needs a real wire format for its checkpoint manifests.
//! This module is the smallest JSON that round-trips the workspace's report types
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
//!   line is byte-stable across write → parse → write;
//! * a tree is compact: a [`Value`] node is 24 bytes, and strings,
//!   arrays and objects are exact-size boxed slices with no growth
//!   slack. A fully parsed tree still costs 6–7 bytes of memory per
//!   byte of text;
//! * a subtree can stay text: a [`Value::Raw`] *fragment* holds the
//!   compact text of one array or object, renders verbatim and equals
//!   the tree it renders as. [`parse_fragments`] and [`parse_keeping`]
//!   keep chosen containers as fragments without building their nodes,
//!   and [`Value::freeze`] turns built ones into fragments. A
//!   checkpoint held as fragments costs about 1 byte per byte of text.
//!
//! [`parse`] is iterative, so hostile input cannot overflow the stack;
//! it rejects nesting deeper than [`MAX_DEPTH`] containers.
//!
//! The parser accepts the non-standard lexemes `NaN`, `inf`, and
//! `-inf` because that is how [`Value::f64`] (and Rust's `{:?}`) spells
//! non-finite floats; we only ever parse our own output.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (see [`Num`] for the lossless round-trip rules).
    Num(Num),
    /// A string (unescaped).
    Str(Box<str>),
    /// An array.
    Arr(Box<[Value]>),
    /// An object; entries keep insertion order.
    Obj(Box<[(Box<str>, Value)]>),
    /// A *fragment*: the compact text of one array or object, kept
    /// unparsed (see [`parse_fragments`] and [`Value::freeze`]). It
    /// renders verbatim and equals the tree it renders as; [`get`] and
    /// [`as_arr`] see nothing inside it.
    ///
    /// [`get`]: Value::get
    /// [`as_arr`]: Value::as_arr
    Raw(Box<str>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            (Value::Raw(a), Value::Raw(b)) => a == b,
            (Value::Raw(text), v @ (Value::Arr(_) | Value::Obj(_)))
            | (v @ (Value::Arr(_) | Value::Obj(_)), Value::Raw(text)) => renders_as(v, text),
            _ => false,
        }
    }
}

impl Value {
    /// Object field by key, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| **k == *key).map(|(_, v)| v),
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

    /// Convenience constructor: a string value (copied into an
    /// exact-size allocation).
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(s.as_ref().into())
    }

    /// Convenience constructor: an array value (`vec!` allocates
    /// exactly, so boxing it does not reallocate).
    pub fn arr(items: Vec<Value>) -> Value {
        Value::Arr(items.into_boxed_slice())
    }

    /// Convenience constructor: an object value, entries in order.
    pub fn obj(entries: Vec<(Box<str>, Value)>) -> Value {
        Value::Obj(entries.into_boxed_slice())
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

    /// Moves the field `key` out, if this is an object that has it —
    /// a subtree taken without cloning it. The entry itself stays (an
    /// object is a fixed-size slice) and holds [`Value::Null`]
    /// afterwards, so the object then renders `"key":null`.
    pub fn take(&mut self, key: &str) -> Option<Value> {
        match self {
            Value::Obj(entries) => entries
                .iter_mut()
                .find(|(k, _)| **k == *key)
                .map(|(_, v)| std::mem::replace(v, Value::Null)),
            _ => None,
        }
    }

    /// Turns every array or object opened inside `depth` containers
    /// into a [`Value::Raw`] fragment of its compact text, keeping the
    /// levels above as a tree: the shape [`parse_fragments`] gives the
    /// same text at the same depth. `freeze(0)` of a container is one
    /// fragment; scalars are returned unchanged.
    pub fn freeze(self, depth: usize) -> Value {
        match self {
            Value::Arr(_) | Value::Obj(_) if depth == 0 => Value::Raw(self.to_string().into()),
            Value::Arr(items) => Value::Arr(
                items
                    .into_vec()
                    .into_iter()
                    .map(|v| v.freeze(depth - 1))
                    .collect(),
            ),
            Value::Obj(entries) => Value::Obj(
                entries
                    .into_vec()
                    .into_iter()
                    .map(|(k, v)| (k, v.freeze(depth - 1)))
                    .collect(),
            ),
            v => v,
        }
    }

    /// Whether any fragment ([`Value::Raw`]) is left in this tree.
    pub fn has_fragments(&self) -> bool {
        match self {
            Value::Raw(_) => true,
            Value::Arr(items) => items.iter().any(Value::has_fragments),
            Value::Obj(entries) => entries.iter().any(|(_, v)| v.has_fragments()),
            _ => false,
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
fn renders_as(n: &impl fmt::Display, lexeme: &str) -> bool {
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
            Value::Raw(text) => f.write_str(text),
        }
    }
}

/// Writes `s` as a JSON string literal, quotes included.
fn write_escaped(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    write_escaped_run(f, s)?;
    f.write_str("\"")
}

/// Writes the escaped body of a string: runs that need no escape go
/// out in one piece.
fn write_escaped_run(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        f.write_str(&rest[..i])?;
        match rest.as_bytes()[i] {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            b => write!(f, "\\u{b:04x}")?,
        }
        rest = &rest[i + 1..];
    }
    f.write_str(rest)
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

/// The deepest container nesting [`parse`] accepts: an array or object
/// opened inside 128 others is rejected with a [`ParseError`] at its
/// opening bracket. The deepest document the workspace writes nests
/// fewer than 10 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON value, requiring the whole input to be consumed
/// (trailing whitespace allowed).
///
/// The parser is iterative: open containers live on an explicit stack
/// and their elements in one shared scratch vector, and each container
/// is moved into a single exact-size allocation when it closes.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the first offending byte offset,
/// including for nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    Parser::new(input).document(Keep {
        depth: usize::MAX,
        key: None,
    })
}

/// Parses like [`parse`], but keeps every array or object opened
/// inside `depth` others as a [`Value::Raw`] fragment of its compact
/// text, building no nodes for it. `depth` 0 keeps a top-level
/// container whole; a depth beyond [`MAX_DEPTH`] is [`parse`].
///
/// It accepts and rejects exactly what [`parse`] does, with the same
/// error at the same offset, and the result renders byte-identically
/// to [`parse`]'s: a fragment holds the text its subtree renders as
/// (whitespace dropped, strings re-escaped), which for the workspace's
/// own compact output is the input text itself.
///
/// # Errors
///
/// As [`parse`].
pub fn parse_fragments(input: &str, depth: usize) -> Result<Value, ParseError> {
    Parser::new(input).document(Keep { depth, key: None })
}

/// Parses like [`parse_fragments`], keeping instead every array or
/// object that is the value of an object entry named `key`, at any
/// depth, as a fragment.
///
/// # Errors
///
/// As [`parse`].
pub fn parse_keeping(input: &str, key: &str) -> Result<Value, ParseError> {
    Parser::new(input).document(Keep {
        depth: usize::MAX,
        key: Some(key),
    })
}

/// Which containers a parse keeps as fragments: those opened inside
/// `depth` others, and those that are the value of an entry `key`.
#[derive(Clone, Copy)]
struct Keep<'k> {
    depth: usize,
    key: Option<&'k str>,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// An open container: where its elements start in the scratch vector.
#[derive(Clone, Copy)]
enum Open {
    Arr(usize),
    Obj(usize),
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    /// The whole input as one value.
    fn document(mut self, keep: Keep<'_>) -> Result<Value, ParseError> {
        self.skip_ws();
        let v = self.value(keep)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data after value"));
        }
        Ok(v)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            offset: self.pos,
        }
    }

    fn too_deep(&self) -> ParseError {
        self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
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

    fn literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {lit}")))
        }
    }

    /// Parses one value of any depth, keeping the containers `keep`
    /// names as fragments. `open` holds the containers not yet closed,
    /// innermost last; `items` the elements parsed so far of all of
    /// them, and `keys` the keys of the open objects' entries (an
    /// object's `i`-th key belongs to its `i`-th element, so the last
    /// key names the entry being parsed when an object is innermost).
    fn value(&mut self, keep: Keep<'_>) -> Result<Value, ParseError> {
        let mut open: Vec<Open> = Vec::new();
        let mut items: Vec<Value> = Vec::new();
        let mut keys: Vec<Box<str>> = Vec::new();
        loop {
            let kept = |open: &[Open], keys: &[Box<str>]| {
                open.len() == keep.depth
                    || (keep.key.is_some()
                        && matches!(open.last(), Some(Open::Obj(_)))
                        && keys.last().map(|k| &**k) == keep.key)
            };
            let mut v = match self.peek() {
                Some(b'[' | b'{') if kept(&open, &keys) => self.fragment(open.len())?,
                Some(b @ (b'[' | b'{')) => {
                    if open.len() == MAX_DEPTH {
                        return Err(self.too_deep());
                    }
                    self.pos += 1;
                    self.skip_ws();
                    match (b, self.peek()) {
                        (b'[', Some(b']')) => {
                            self.pos += 1;
                            Value::Arr(Box::default())
                        }
                        (b'{', Some(b'}')) => {
                            self.pos += 1;
                            Value::Obj(Box::default())
                        }
                        (b'[', _) => {
                            open.push(Open::Arr(items.len()));
                            continue;
                        }
                        _ => {
                            open.push(Open::Obj(items.len()));
                            keys.push(self.key()?);
                            continue;
                        }
                    }
                }
                _ => self.scalar()?,
            };
            // `v` is complete: file it under its container, then close
            // every container that ends right after it.
            loop {
                let Some(&top) = open.last() else {
                    return Ok(v);
                };
                items.push(v);
                self.skip_ws();
                match (top, self.peek()) {
                    (Open::Arr(_), Some(b',')) => {
                        self.pos += 1;
                        self.skip_ws();
                        break;
                    }
                    (Open::Obj(_), Some(b',')) => {
                        self.pos += 1;
                        keys.push(self.key()?);
                        break;
                    }
                    (Open::Arr(start), Some(b']')) => {
                        self.pos += 1;
                        v = Value::Arr(items.drain(start..).collect());
                    }
                    (Open::Obj(start), Some(b'}')) => {
                        self.pos += 1;
                        let first_key = keys.len() - (items.len() - start);
                        v = Value::Obj(keys.drain(first_key..).zip(items.drain(start..)).collect());
                    }
                    (Open::Arr(_), _) => return Err(self.err("expected ',' or ']'")),
                    (Open::Obj(_), _) => return Err(self.err("expected ',' or '}'")),
                }
                open.pop();
            }
        }
    }

    /// Scans the array or object at `self.pos`, opened inside `outer`
    /// others, step for step as [`Parser::value`] parses it, into a
    /// fragment of the text it renders as. `open` holds whether each
    /// unclosed container is an object, innermost last.
    fn fragment(&mut self, outer: usize) -> Result<Value, ParseError> {
        let mut out = String::new();
        let mut open: Vec<bool> = Vec::new();
        loop {
            match self.peek() {
                Some(b @ (b'[' | b'{')) => {
                    if outer + open.len() == MAX_DEPTH {
                        return Err(self.too_deep());
                    }
                    self.pos += 1;
                    out.push(char::from(b));
                    self.skip_ws();
                    match (b, self.peek()) {
                        (b'[', Some(b']')) | (b'{', Some(b'}')) => {
                            self.pos += 1;
                            out.push(if b == b'[' { ']' } else { '}' });
                        }
                        (b'[', _) => {
                            open.push(false);
                            continue;
                        }
                        _ => {
                            open.push(true);
                            self.key_into(&mut out)?;
                            continue;
                        }
                    }
                }
                _ => self.scalar_into(&mut out)?,
            }
            loop {
                let Some(&obj) = open.last() else {
                    return Ok(Value::Raw(out.into_boxed_str()));
                };
                self.skip_ws();
                match (obj, self.peek()) {
                    (_, Some(b',')) => {
                        self.pos += 1;
                        out.push(',');
                        if obj {
                            self.key_into(&mut out)?;
                        } else {
                            self.skip_ws();
                        }
                        break;
                    }
                    (false, Some(b']')) | (true, Some(b'}')) => {
                        self.pos += 1;
                        out.push(if obj { '}' } else { ']' });
                    }
                    (false, _) => return Err(self.err("expected ',' or ']'")),
                    (true, _) => return Err(self.err("expected ',' or '}'")),
                }
                open.pop();
            }
        }
    }

    /// An object entry's key and its `:`, with the whitespace around
    /// them.
    fn key(&mut self) -> Result<Box<str>, ParseError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// [`Parser::key`], written to `out` as it renders.
    fn key_into(&mut self, out: &mut String) -> Result<(), ParseError> {
        self.skip_ws();
        self.string_into(out)?;
        self.skip_ws();
        self.expect(b':')?;
        out.push(':');
        self.skip_ws();
        Ok(())
    }

    fn scalar(&mut self) -> Result<Value, ParseError> {
        let lit = |p: &mut Self, lit, v| p.literal(lit).map(|()| v);
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => lit(self, "true", Value::Bool(true)),
            Some(b'f') => lit(self, "false", Value::Bool(false)),
            Some(b'n') => lit(self, "null", Value::Null),
            Some(b'N') => lit(self, "NaN", Value::f64(f64::NAN)),
            Some(b'i') => lit(self, "inf", Value::f64(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-inf") => {
                lit(self, "-inf", Value::f64(f64::NEG_INFINITY))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// [`Parser::scalar`], written to `out` as it renders. Literals and
    /// number lexemes render as they are spelled.
    fn scalar_into(&mut self, out: &mut String) -> Result<(), ParseError> {
        let lit = match self.peek() {
            Some(b'"') => return self.string_into(out),
            Some(b't') => "true",
            Some(b'f') => "false",
            Some(b'n') => "null",
            Some(b'N') => "NaN",
            Some(b'i') => "inf",
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-inf") => "-inf",
            Some(b'-' | b'0'..=b'9') => {
                let lexeme = self.lexeme()?;
                // Exactly the lexemes `Num::parse` accepts; plain
                // integers skip the float parse.
                let digits = lexeme.strip_prefix('-').unwrap_or(lexeme);
                if !digits.bytes().all(|b| b.is_ascii_digit()) && lexeme.parse::<f64>().is_err() {
                    return Err(self.err(format!("malformed number {lexeme:?}")));
                }
                out.push_str(lexeme);
                return Ok(());
            }
            Some(other) => return Err(self.err(format!("unexpected byte {:?}", other as char))),
            None => return Err(self.err("unexpected end of input")),
        };
        self.literal(lit)?;
        out.push_str(lit);
        Ok(())
    }

    /// The run of a string up to its next quote or escape. `"` and `\`
    /// are ASCII, so it never splits a UTF-8 scalar of the input.
    fn run(&mut self) -> &'a str {
        let start = self.pos;
        while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is a &str")
    }

    fn string(&mut self) -> Result<Box<str>, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.run();
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                // No escapes: one allocation of exactly the run's length.
                Some(b'"') if out.is_empty() => {
                    self.pos += 1;
                    return Ok(run.into());
                }
                Some(b'"') => {
                    out.push_str(run);
                    self.pos += 1;
                    return Ok(out.into_boxed_str());
                }
                Some(_) => {
                    // `\`: an escape.
                    out.push_str(run);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// [`Parser::string`], written to `out` as it renders: quoted and
    /// re-escaped.
    fn string_into(&mut self, out: &mut String) -> Result<(), ParseError> {
        const INFALLIBLE: &str = "writing to a String cannot fail";
        self.expect(b'"')?;
        out.push('"');
        loop {
            let run = self.run();
            write_escaped_run(out, run).expect(INFALLIBLE);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    out.push('"');
                    return Ok(());
                }
                Some(_) => {
                    self.pos += 1;
                    let c = self.escape()?;
                    write_escaped_run(out, c.encode_utf8(&mut [0; 4])).expect(INFALLIBLE);
                }
            }
        }
    }

    /// Decodes the escape whose `\` was just consumed and steps past it.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self
                    .bytes
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| self.err("non-ascii \\u escape"))?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                // Surrogates never appear in our own output.
                let c =
                    char::from_u32(code).ok_or_else(|| self.err("\\u escape is not a scalar"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// A number's lexeme, at least one byte beyond an optional `-`.
    fn lexeme(&mut self) -> Result<&'a str, ParseError> {
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
        Ok(lexeme)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let lexeme = self.lexeme()?;
        Num::parse(lexeme)
            .map(Value::Num)
            .ok_or_else(|| self.err(format!("malformed number {lexeme:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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
        let escapes = parse(r#""\/\b\f\u00e9λ\"""#).unwrap();
        assert_eq!(escapes.as_str(), Some("/\u{8}\u{c}éλ\""));
    }

    /// Message and offset for malformed inputs, pinned from the
    /// recursive parser the iterative one replaced.
    #[test]
    fn errors_carry_offsets() {
        let table: &[(&str, &str, usize)] = &[
            ("", "unexpected end of input", 0),
            ("   ", "unexpected end of input", 3),
            ("[1,2", "expected ',' or ']'", 4),
            ("[1,2,]", "unexpected byte ']'", 5),
            ("[1 2]", "expected ',' or ']'", 3),
            ("{\"a\":}", "unexpected byte '}'", 5),
            ("{\"a\" 1}", "expected ':'", 5),
            ("{a:1}", "expected '\"'", 1),
            ("{\"a\":1,}", "expected '\"'", 7),
            ("{\"a\":1", "expected ',' or '}'", 6),
            ("12 34", "trailing data after value", 3),
            ("\"open", "unterminated string", 5),
            ("-", "malformed number", 1),
            ("tru", "expected true", 0),
            ("nul", "expected null", 0),
            ("[NaN,nope]", "expected null", 5),
            ("\"bad \\x\"", "bad escape", 6),
            ("\"\\u12\"", "truncated \\u escape", 2),
            ("\"\\ud800\"", "\\u escape is not a scalar", 2),
            ("1.2.3", "malformed number \"1.2.3\"", 5),
            ("--1", "malformed number \"--1\"", 3),
            ("]", "unexpected byte ']'", 0),
            ("}", "unexpected byte '}'", 0),
            ("[}", "unexpected byte '}'", 1),
            ("{]", "expected '\"'", 1),
            ("[1,{\"a\":[tru]}]", "expected true", 9),
            ("{\"a\":1}}", "trailing data after value", 7),
            (",", "unexpected byte ','", 0),
            ("[\"a\":1]", "expected ',' or ']'", 4),
            ("{\"a\":1 \"b\":2}", "expected ',' or '}'", 7),
            ("{1:2}", "expected '\"'", 1),
            ("\"\\u00zz\"", "bad \\u escape", 2),
            ("\"\\u000\u{e9}\"", "non-ascii \\u escape", 2),
            ("[-]", "malformed number", 2),
            ("{\"a\":1,\"b\"}", "expected ':'", 10),
            ("[[[]]", "expected ',' or ']'", 5),
            ("[1,", "unexpected end of input", 3),
            ("{\"a\"", "expected ':'", 4),
            ("{\"a\":", "unexpected end of input", 5),
            ("[\"x", "unterminated string", 3),
            ("-in", "malformed number", 1),
            ("[1e5e]", "malformed number \"1e5e\"", 5),
            ("{\"k\":[1,2]]", "expected ',' or '}'", 10),
            (" [ 1 , ] ", "unexpected byte ']'", 7),
        ];
        for &(src, msg, offset) in table {
            let e = parse(src).unwrap_err();
            assert_eq!((e.msg.as_str(), e.offset), (msg, offset), "{src:?}");
            for depth in 0..=4 {
                assert_eq!(
                    parse_fragments(src, depth),
                    Err(e.clone()),
                    "{src:?} at {depth}"
                );
            }
            assert_eq!(
                parse_keeping(src, "a"),
                Err(e.clone()),
                "{src:?} keeping \"a\""
            );
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"k\":", "}", MAX_DEPTH)).is_ok());
        let too_deep = format!("nesting deeper than {MAX_DEPTH} levels");
        let e = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((e.msg.as_str(), e.offset), (too_deep.as_str(), MAX_DEPTH));
        for depth in [0, 3, MAX_DEPTH - 1, MAX_DEPTH] {
            let deepest = nest("[", "]", MAX_DEPTH);
            assert_eq!(
                parse_fragments(&deepest, depth).unwrap().to_string(),
                deepest
            );
            let too = nest("{\"k\":", "}", MAX_DEPTH + 1);
            assert_eq!(parse_fragments(&too, depth), parse(&too), "depth {depth}");
        }
        let e = parse(&nest("{\"k\":", "}", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (e.msg.as_str(), e.offset),
            (too_deep.as_str(), 5 * MAX_DEPTH)
        );
        // An empty container counts as a level too.
        let e = parse(&format!(
            "{}[]{}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        ))
        .unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        // Hostile input is an error, not a stack overflow.
        let e = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| parse(&"[".repeat(100_000)).unwrap_err())
            .unwrap()
            .join()
            .expect("parser thread must not overflow its stack");
        assert_eq!((e.msg, e.offset), (too_deep, MAX_DEPTH));
    }

    #[test]
    fn values_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<(Box<str>, Value)>(), 40);
    }

    #[test]
    fn take_moves_the_field_out_and_leaves_null() {
        let mut v = parse(r#"{"a":[1,2],"b":"x"}"#).unwrap();
        assert_eq!(v.take("a").unwrap().to_string(), "[1,2]");
        assert_eq!(v.get("a"), Some(&Value::Null));
        assert_eq!(v.to_string(), r#"{"a":null,"b":"x"}"#);
        assert_eq!(v.take("missing"), None);
        assert_eq!(Value::u64(1).take("a"), None);
    }

    /// A random tree over every shape the codec distinguishes.
    fn random_tree(rng: &mut ChaCha8Rng, depth: u32) -> Value {
        const LEXEMES: &[&str] = &[
            "1e5",
            "01",
            "-0",
            "1.50",
            "18446744073709551615",
            "18446744073709551616",
            "-9223372036854775808",
            "-9223372036854775809",
            "340282366920938463463374607431768211456",
            "NaN",
            "inf",
            "-inf",
            "-0.0",
        ];
        const CHARS: &[char] = &[
            'a', 'Z', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'λ', '∞', ' ',
        ];
        let text = |rng: &mut ChaCha8Rng| -> String {
            let len = rng.gen_range(0..6);
            (0..len)
                .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
                .collect()
        };
        let container = depth > 0 && rng.gen_bool(0.4);
        let len = rng.gen_range(0..5usize);
        match rng.gen_range(0..if container { 2 } else { 7 }) {
            0 if container => Value::Arr((0..len).map(|_| random_tree(rng, depth - 1)).collect()),
            1 if container => Value::Obj(
                (0..len)
                    .map(|_| (text(rng).into(), random_tree(rng, depth - 1)))
                    .collect(),
            ),
            0 => Value::Null,
            1 => Value::Bool(rng.gen()),
            2 => Value::u64(if rng.gen() {
                rng.gen()
            } else {
                rng.gen_range(0..1000)
            }),
            3 => Value::Num(Num::I(
                -rng.gen_range(1..=i64::MAX) - i64::from(rng.gen::<bool>()),
            )),
            4 => Value::f64(f64::from_bits(rng.gen())),
            5 => parse(LEXEMES[rng.gen_range(0..LEXEMES.len())]).unwrap(),
            _ => Value::str(text(rng)),
        }
    }

    #[test]
    fn random_trees_round_trip_byte_stably() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x150_0c0de);
        for _ in 0..2_000 {
            let v = random_tree(&mut rng, 5);
            let text = v.to_string();
            let back = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            assert_eq!(back.to_string(), text);
            assert_eq!(back, v, "{text}");
        }
    }

    /// The fragment-keeping parse agrees with [`parse`] at every depth:
    /// same acceptance, byte-identical render, equal values, and the
    /// shape [`Value::freeze`] gives the parsed tree.
    #[test]
    fn fragments_parse_exactly_like_parse() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x150_0c0de);
        for _ in 0..2_000 {
            let text = random_tree(&mut rng, 5).to_string();
            let tree = parse(&text).unwrap();
            for depth in 0..=4 {
                let kept = parse_fragments(&text, depth).unwrap_or_else(|e| panic!("{e}: {text}"));
                assert_eq!(kept.to_string(), text);
                assert_eq!(kept, tree, "{text} at {depth}");
                assert_eq!(
                    format!("{kept:?}"),
                    format!("{:?}", tree.clone().freeze(depth)),
                    "{text} at {depth}"
                );
            }
            for key in ["", "a", "λ"] {
                let kept = parse_keeping(&text, key).unwrap_or_else(|e| panic!("{e}: {text}"));
                assert_eq!(kept.to_string(), text);
                assert_eq!(kept, tree, "{text} keeping {key:?}");
            }
        }
    }

    #[test]
    fn fragments_hold_the_rendered_text_not_the_input() {
        let src = " [ \"\\/\\b\\f\\u00e9\u{1}\" , { \"k\\/\" : [ 1e5 , 01 , -inf ] } , [ ] ] ";
        let tree = parse(src).unwrap();
        for depth in 0..=3 {
            let kept = parse_fragments(src, depth).unwrap();
            assert_eq!(kept.to_string(), tree.to_string(), "depth {depth}");
            assert_eq!(kept, tree);
        }
        assert_eq!(
            parse_fragments(src, 0).unwrap(),
            Value::Raw(r#"["/\u0008\u000cé\u0001",{"k/":[1e5,01,-inf]},[]]"#.into())
        );
        let top = parse_fragments(r#"{"a":[1],"b":{"c":2},"d":3}"#, 1).unwrap();
        assert_eq!(top.get("a"), Some(&Value::Raw("[1]".into())));
        assert_eq!(top.get("a").unwrap().as_arr(), None);
        assert_eq!(top.get("b").unwrap().get("c"), None);
        assert_eq!(top.get("d"), Some(&Value::u64(3)));
        let rows = parse_keeping(r#"[{"k":[1],"j":[2]},{"k":{"k":3}}]"#, "k").unwrap();
        let rows = rows.as_arr().unwrap();
        assert_eq!(rows[0].get("k"), Some(&Value::Raw("[1]".into())));
        assert_eq!(rows[0].get("j").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(rows[1].get("k"), Some(&Value::Raw(r#"{"k":3}"#.into())));
    }

    #[test]
    fn fragments_equal_the_trees_they_render_as() {
        let tree = parse(r#"{"a":[1,2.5,"x"]}"#).unwrap();
        let raw = Value::Raw(r#"{"a":[1,2.5,"x"]}"#.into());
        assert_eq!(raw, tree);
        assert_eq!(tree, raw);
        assert_ne!(Value::Raw("[1]".into()), parse("[2]").unwrap());
        assert_ne!(Value::Raw("[1]".into()), Value::u64(1));
        assert!(parse_fragments("[[1]]", 1).unwrap().has_fragments());
        assert!(!parse("[[1]]").unwrap().has_fragments());
        assert_eq!(Value::u64(7).freeze(0), Value::u64(7));
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2]}"#);
    }
}
