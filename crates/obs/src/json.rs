//! The workspace's one JSON path: writer primitives and a strict parser.
//!
//! **Writing.** Every artifact is written straight through a handful of
//! primitives: [`push_str`] (quoted and escaped), [`push_f64`] (a finite
//! value in its shortest round-tripping `{}` form, a non-finite one as
//! `null`) and [`push_u64`], composed by [`ObjectWriter`] and the
//! [`ToJson`] impls for the plain container types. There is one compact
//! output form and no pretty-printer.
//!
//! **Reading.** [`parse`] builds a [`Value`] tree and rejects anything
//! outside RFC 8259: a number must match the JSON grammar (Rust's
//! `f64::from_str` alone would take `inf`, `NaN`, `+1` and `.5`), strings
//! may not hold raw control characters, `\u` surrogates must pair up,
//! trailing bytes are an error and nesting is capped at [`MAX_DEPTH`] so
//! hostile input cannot overflow the stack. Numbers keep their source
//! text, so each reader converts exactly: a `u64` above 2⁵³ stays exact
//! and every `f64` reads back to the same bits it was written from.
//!
//! Schema types read themselves through [`Fields`], which keeps the
//! rules the journal formats were defined under: a missing `Option`
//! field reads as `None`, a repeated field is an error, and
//! [`Fields::deny_unknown`] rejects unknown fields where the schema is
//! closed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its (grammar-checked) source text.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An object value from `(key, value)` pairs, in order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

impl From<f64> for Value {
    /// A finite value as its shortest round-tripping text; non-finite
    /// values have no JSON number form and become `null`.
    fn from(v: f64) -> Self {
        if v.is_finite() {
            Value::Number(v.to_string())
        } else {
            Value::Null
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Number(v.to_string())
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Number(v.to_string())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

// ---------------------------------------------------------------- writing

/// Append `s` as a quoted JSON string, escaping `"`, `\` and every
/// control character.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    // copy each run of plain characters in one slice; the escaped ones are
    // all ASCII, so every cut falls on a char boundary
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `v` as a JSON number. Rust's `Display` for a finite `f64` is the
/// shortest decimal that parses back to the same bits (`12.5`, `640`,
/// `0.30000000000000004`), never in exponent form. Non-finite values have
/// no JSON number form and are written as `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `v` as a JSON integer.
pub fn push_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// A value with a JSON form.
pub trait ToJson {
    /// Append this value's compact JSON form to `out`.
    fn write_json(&self, out: &mut String);

    /// This value as a standalone compact JSON string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl ToJson for u64 {
    fn write_json(&self, out: &mut String) {
        push_u64(out, *self);
    }
}

impl ToJson for u32 {
    fn write_json(&self, out: &mut String) {
        push_u64(out, u64::from(*self));
    }
}

impl ToJson for usize {
    fn write_json(&self, out: &mut String) {
        push_u64(out, *self as u64);
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        push_f64(out, *self);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        push_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        push_str(out, self);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<K: std::fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    /// Keys are written as strings (JSON has no other key type), in the
    /// map's order.
    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        for (k, v) in self {
            o.field(&k.to_string(), v);
        }
        o.end();
    }
}

impl ToJson for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Number(n) => out.push_str(n),
            Value::String(s) => push_str(out, s),
            Value::Array(items) => items.write_json(out),
            Value::Object(members) => {
                let mut o = ObjectWriter::new(out);
                for (k, v) in members {
                    o.field(k, v);
                }
                o.end();
            }
        }
    }
}

/// Writes one JSON object member by member: `{"a":1,"b":"x"}`.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Open an object on `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    /// Append member `key` with `value`.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_str(self.out, key);
        self.out.push(':');
        value.write_json(self.out);
        self
    }

    /// Close the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

// ---------------------------------------------------------------- parsing

/// Parse one complete JSON text. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), text, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            return Err(self.error("expected `,` or `]`"));
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.error("expected `:`"));
            }
            self.skip_ws();
            members.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Value::Object(members));
            }
            return Err(self.error("expected `,` or `}`"));
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.error("invalid number")),
        }
        if self.eat(b'.') {
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("invalid number"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("invalid number"));
            }
            self.digits();
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // copy the run of plain characters in one slice
            let run = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let Some(b) = self.peek() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                match hi {
                    0xD800..=0xDBFF => {
                        if !(self.eat(b'\\') && self.eat(b'u')) {
                            return Err(self.error("unpaired surrogate"));
                        }
                        let lo = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&lo) {
                            return Err(self.error("unpaired surrogate"));
                        }
                        let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(c).ok_or_else(|| self.error("invalid escape"))?
                    }
                    0xDC00..=0xDFFF => return Err(self.error("unpaired surrogate")),
                    _ => char::from_u32(hi).ok_or_else(|| self.error("invalid escape"))?,
                }
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return Err(self.error("invalid \\u escape")),
            };
            self.pos += 1;
            v = v * 16 + u32::from(d);
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------- reading

/// A type that reads itself from a parsed [`Value`].
pub trait FromJson: Sized {
    /// Convert `v`, or explain why it does not fit.
    fn from_value(v: &Value) -> Result<Self, String>;

    /// The value of an absent object member, if absence is allowed
    /// (`None` for `Option` fields); `None` makes the member required.
    fn absent() -> Option<Self> {
        None
    }

    /// Parse `text` and convert it.
    fn from_json(text: &str) -> Result<Self, String> {
        Self::from_value(&parse(text)?)
    }
}

fn mismatch(want: &str, got: &Value) -> String {
    format!("expected {want}, found {}", got.kind())
}

fn number_text<'v>(v: &'v Value, want: &str) -> Result<&'v str, String> {
    match v {
        Value::Number(n) => Ok(n),
        other => Err(mismatch(want, other)),
    }
}

impl FromJson for u64 {
    fn from_value(v: &Value) -> Result<Self, String> {
        let n = number_text(v, "an unsigned integer")?;
        n.parse().map_err(|_| format!("expected an unsigned integer, found {n}"))
    }
}

impl FromJson for u32 {
    fn from_value(v: &Value) -> Result<Self, String> {
        let n = u64::from_value(v)?;
        u32::try_from(n).map_err(|_| format!("{n} is out of range for u32"))
    }
}

impl FromJson for usize {
    fn from_value(v: &Value) -> Result<Self, String> {
        let n = u64::from_value(v)?;
        usize::try_from(n).map_err(|_| format!("{n} is out of range for usize"))
    }
}

impl FromJson for f64 {
    fn from_value(v: &Value) -> Result<Self, String> {
        let n = number_text(v, "a number")?;
        // the parser already checked the JSON grammar, so `parse` sees no
        // `inf`/`NaN` spellings; an overflowing literal is out of range
        match n.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            _ => Err(format!("number {n} is out of range for f64")),
        }
    }
}

impl FromJson for bool {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(mismatch("a boolean", other)),
        }
    }
}

impl FromJson for String {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(mismatch("a string", other)),
        }
    }
}

impl FromJson for Value {
    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(v.clone())
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            v => T::from_value(v).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(mismatch("an array", other)),
        }
    }
}

impl<const N: usize> FromJson for [f64; N] {
    fn from_value(v: &Value) -> Result<Self, String> {
        let items = Vec::<f64>::from_value(v)?;
        let n = items.len();
        items.try_into().map_err(|_| format!("expected an array of {N} numbers, found {n}"))
    }
}

impl<K, V> FromJson for BTreeMap<K, V>
where
    K: std::str::FromStr + Ord,
    V: FromJson,
{
    /// Keys parse from their string form; a repeated key keeps the last
    /// value.
    fn from_value(v: &Value) -> Result<Self, String> {
        let Value::Object(members) = v else {
            return Err(mismatch("an object", v));
        };
        let mut map = BTreeMap::new();
        for (k, v) in members {
            let key = k.parse().map_err(|_| format!("invalid map key {k:?}"))?;
            map.insert(key, V::from_value(v).map_err(|e| format!("{k}: {e}"))?);
        }
        Ok(map)
    }
}

/// Field-by-field reader over one JSON object.
pub struct Fields<'v> {
    members: &'v [(String, Value)],
    used: Vec<bool>,
}

impl<'v> Fields<'v> {
    /// Start reading `v`, which must be an object.
    pub fn of(v: &'v Value) -> Result<Self, String> {
        match v {
            Value::Object(members) => Ok(Fields { members, used: vec![false; members.len()] }),
            other => Err(mismatch("an object", other)),
        }
    }

    fn find(&mut self, name: &str) -> Result<Option<&'v Value>, String> {
        let mut found = None;
        for (i, (k, v)) in self.members.iter().enumerate() {
            if k == name {
                if found.is_some() {
                    return Err(format!("duplicate field `{name}`"));
                }
                self.used[i] = true;
                found = Some(v);
            }
        }
        Ok(found)
    }

    /// Read member `name`. Absent members are an error unless the type
    /// allows absence (`Option`).
    pub fn get<T: FromJson>(&mut self, name: &str) -> Result<T, String> {
        match self.find(name)? {
            Some(v) => T::from_value(v).map_err(|e| format!("field `{name}`: {e}")),
            None => T::absent().ok_or_else(|| format!("missing field `{name}`")),
        }
    }

    /// Read member `name`, or `default` when it is absent.
    pub fn get_or<T: FromJson>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.find(name)? {
            Some(v) => T::from_value(v).map_err(|e| format!("field `{name}`: {e}")),
            None => Ok(default),
        }
    }

    /// Reject the object if any member was not read.
    pub fn deny_unknown(self) -> Result<(), String> {
        match self.members.iter().zip(&self.used).find(|(_, used)| !**used) {
            Some(((k, _), _)) => Err(format!("unknown field `{k}`")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind() {
        let v = parse(r#" {"a": [1, -2.5e3, true, false, null], "b": {"c": "d"}} "#).unwrap();
        assert_eq!(
            v,
            Value::object([
                (
                    "a",
                    Value::Array(vec![
                        Value::Number("1".into()),
                        Value::Number("-2.5e3".into()),
                        Value::Bool(true),
                        Value::Bool(false),
                        Value::Null,
                    ])
                ),
                ("b", Value::object([("c", Value::from("d"))])),
            ])
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Value::from("d")));
    }

    #[test]
    fn rejects_numbers_outside_the_grammar() {
        for bad in ["inf", "NaN", "+1", ".5", "1.", "01", "-", "1e", "1e+", "-.5", "0x10", "1.e5"] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
        for good in ["0", "-0", "10", "1.5", "1e5", "1E-5", "-0.0e+0", "123456789012345678901234"] {
            assert!(parse(good).is_ok(), "{good} must parse");
        }
    }

    #[test]
    fn rejects_malformed_structure() {
        for bad in [
            "",
            " ",
            "[",
            "]",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "{\"a\":1,}",
            "\"abc",
            "\"\\x\"",
            "\"\\u12\"",
            "\"a\u{1}b\"",
            "tru",
            "nul",
            "[1] 2",
            "{} {}",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_the_cap() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn fields_follow_the_schema_rules() {
        let v = parse(r#"{"a":1,"b":null,"x":true}"#).unwrap();
        let mut f = Fields::of(&v).unwrap();
        assert_eq!(f.get::<u64>("a").unwrap(), 1);
        assert_eq!(f.get::<Option<u64>>("b").unwrap(), None);
        assert_eq!(f.get::<Option<u64>>("missing").unwrap(), None);
        assert!(f.get::<u64>("missing").unwrap_err().contains("missing field"));
        assert_eq!(f.get_or("also_missing", 7u64).unwrap(), 7);
        assert!(f.deny_unknown().unwrap_err().contains("`x`"));
        let dup = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert!(Fields::of(&dup).unwrap().get::<u64>("a").unwrap_err().contains("duplicate"));
        assert!(Fields::of(&Value::Null).is_err());
    }

    #[test]
    fn conversions_are_exact_and_typed() {
        assert_eq!(u64::from_json("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(u64::from_json("9007199254740993").unwrap(), (1u64 << 53) + 1);
        assert!(u64::from_json("18446744073709551616").is_err());
        assert!(u64::from_json("1.0").is_err());
        assert!(u64::from_json("-1").is_err());
        assert!(u32::from_json("4294967296").is_err());
        assert_eq!(f64::from_json("30").unwrap(), 30.0);
        assert!(f64::from_json("1e400").is_err());
        assert!(f64::from_json("null").is_err());
        assert!(<[f64; 2]>::from_json("[1,2,3]").is_err());
        let m = BTreeMap::<i32, u64>::from_json(r#"{"-3":1,"2":4}"#).unwrap();
        assert_eq!(m.into_iter().collect::<Vec<_>>(), [(-3, 1), (2, 4)]);
        assert!(BTreeMap::<i32, u64>::from_json(r#"{"x":1}"#).is_err());
    }

    #[test]
    fn writer_is_compact_and_maps_non_finite_to_null() {
        let mut out = String::new();
        let mut o = ObjectWriter::new(&mut out);
        o.field("a", &30.0)
            .field("b", &f64::NAN)
            .field("c", &Some(f64::NEG_INFINITY))
            .field("d", &vec![1u64, 2])
            .field("e", &None::<u64>)
            .field("f", "x\"y\\\n\r\t\u{8}\u{c}\u{1}\u{1f} é");
        o.end();
        assert_eq!(
            out,
            r#"{"a":30,"b":null,"c":null,"d":[1,2],"e":null,"f":"x\"y\\\n\r\t\b\f\u0001\u001f é"}"#
        );
        let v = Value::object([("k", Value::from(f64::INFINITY)), ("n", Value::from(2.5))]);
        assert_eq!(v.to_json(), r#"{"k":null,"n":2.5}"#);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }
}
