//! A minimal JSON value type with a parser and serializer.
//!
//! This replaces `serde`/`serde_json` for the workspace's needs: model
//! persistence, Platt-calibration files, and experiment metadata. The
//! design is deliberately small — one [`Json`] tree type, hand-rolled
//! [`ToJson`]/[`FromJson`] conversions on the handful of persisted types,
//! and a strict parser with positioned errors.
//!
//! Policies (chosen for deterministic round-trips):
//!
//! - **Object order**: insertion order is preserved on parse and write, so
//!   `write(parse(text)) == text` byte-for-byte for text this module wrote.
//! - **Numbers**: stored as `f64`. Values that are mathematically integral
//!   (and within `i64`) serialize without a decimal point; everything else
//!   uses Rust's shortest round-trip decimal form.
//! - **NaN / infinity**: not representable in JSON; serializing them
//!   produces `null` (and [`FromJson`] impls for numeric fields reject
//!   `null`, so non-finite values fail loudly on the next load).
//! - **Depth**: nesting is capped (128 levels) so hostile input cannot
//!   overflow the stack.
//!
//! # Example
//!
//! ```
//! use rtped_core::json::Json;
//!
//! let value = Json::parse(r#"{"format": 1, "weights": [1.5, -2.0]}"#).unwrap();
//! assert_eq!(value.get("format").and_then(Json::as_u64), Some(1));
//! assert_eq!(value.to_string(), r#"{"format":1,"weights":[1.5,-2]}"#);
//! ```

use std::fmt;

use crate::error::Error;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 128;

/// A JSON document: null, boolean, number, string, array, or object.
///
/// Objects preserve insertion order (they are association lists, not maps);
/// duplicate keys are accepted by the parser with last-one-wins lookup
/// semantics in [`Json::get`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document, requiring that nothing but whitespace
    /// follows the first value.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset and 1-based line/column on
    /// malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Parses a JSON document from raw bytes (must be UTF-8).
    ///
    /// # Errors
    ///
    /// As [`Json::parse`], plus an error for invalid UTF-8.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Json, JsonError> {
        let text = std::str::from_utf8(bytes).map_err(|e| JsonError {
            message: format!("invalid UTF-8 in JSON input: {e}"),
            offset: e.valid_up_to(),
            line: 0,
            column: 0,
        })?;
        Json::parse(text)
    }

    /// Looks up a field of an object (last occurrence wins); `None` for
    /// missing fields and non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a number with an exact non-negative
    /// integer value.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an `i64`, if it is a number with an exact integer value.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Number(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a `&str`, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's fields in insertion order, if it is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Pretty serialization with two-space indentation and a trailing
    /// newline, for human-edited files like experiment metadata.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
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

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

/// Compact serialization (no whitespace) — the canonical on-disk form;
/// `value.to_string()` yields exactly these bytes.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    use fmt::Write;
    if !n.is_finite() {
        // JSON cannot represent NaN or infinity; `null` is the documented
        // policy (matching serde_json's lossy default).
        out.push_str("null");
    } else if n == 0.0 {
        out.push_str(if n.is_sign_negative() { "-0" } else { "0" });
    } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's `Display` for f64 is the shortest decimal that round-trips.
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A positioned JSON syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
    /// 1-based line (0 when unknown).
    pub line: usize,
    /// 1-based column (0 when unknown).
    pub column: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{} at line {}, column {}",
                self.message, self.line, self.column
            )
        } else {
            write!(f, "{} at byte {}", self.message, self.offset)
        }
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        let consumed = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = consumed.iter().filter(|&&b| b == b'\n').count() + 1;
        let column = consumed.iter().rev().take_while(|&&b| b != b'\n').count() + 1;
        JsonError {
            message: message.to_string(),
            offset: self.pos,
            line,
            column,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("invalid literal (expected '{literal}')")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("expected digits after decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("expected digits in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // The matched span is ASCII digits/sign/exponent by construction,
        // but route a (unreachable) failure through the parse error path
        // rather than panicking on hostile input.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| self.error("number out of representable range"))?;
        if n.is_finite() {
            Ok(Json::Number(n))
        } else {
            Err(self.error("number overflows f64"))
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: require a paired \uXXXX low.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("unpaired surrogate"));
                                    }
                                    let code = 0x10000
                                        + ((u32::from(unit) - 0xD800) << 10)
                                        + (u32::from(low) - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("unpaired surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.error("unpaired surrogate"));
                            } else {
                                char::from_u32(u32::from(unit))
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // parse_hex4 already advanced past it
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input was validated as str).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let Some(c) = rest.chars().next() else {
                        return Err(self.error("unterminated string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let unit = u16::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

/// Conversion of a Rust value into a [`Json`] tree.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion of a [`Json`] tree back into a Rust value, with explicit
/// schema errors (never panics on malformed trees).
pub trait FromJson: Sized {
    /// Reconstructs the value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Format`] when the tree does not match the expected
    /// schema.
    fn from_json(json: &Json) -> Result<Self, Error>;
}

/// Helper for [`FromJson`] impls: fetches a required object field.
///
/// # Errors
///
/// Returns [`Error::Format`] if `json` is not an object or lacks `key`.
pub fn required_field<'j>(json: &'j Json, key: &str) -> Result<&'j Json, Error> {
    json.get(key)
        .ok_or_else(|| Error::format(format!("missing required field \"{key}\"")))
}

/// Reads the `{"format":N,"kind":"..."}` header every versioned rtped
/// document carries: checks the format version and returns the kind.
/// `noun` names the document family in the version-mismatch message
/// (`"model"`, `"request"`).
///
/// # Errors
///
/// Returns [`Error::Format`] when the header is missing, the `format`
/// field is not a non-negative integer, the version differs from
/// `version`, or the `kind` is not a string.
pub fn schema_kind<'j>(json: &'j Json, noun: &str, version: u64) -> Result<&'j str, Error> {
    let format = required_field(json, "format")?
        .as_u64()
        .ok_or_else(|| Error::format("field \"format\" must be a non-negative integer"))?;
    if format != version {
        return Err(Error::format(format!(
            "unsupported {noun} format {format} (this build reads format {version})"
        )));
    }
    required_field(json, "kind")?
        .as_str()
        .ok_or_else(|| Error::format("field \"kind\" must be a string"))
}

/// Validates a versioned document's header ([`schema_kind`]) and its
/// kind; `rtped_svm::io` checks model files with it.
///
/// # Errors
///
/// Returns [`Error::Format`] on any [`schema_kind`] error, or when the
/// `kind` differs from `expected_kind`.
pub fn check_schema_header(
    json: &Json,
    expected_kind: &str,
    noun: &str,
    version: u64,
) -> Result<(), Error> {
    let kind = schema_kind(json, noun, version)?;
    if kind != expected_kind {
        return Err(Error::format(format!(
            "expected kind \"{expected_kind}\", found \"{kind}\""
        )));
    }
    Ok(())
}

macro_rules! impl_json_float {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Number(f64::from(*self))
            }
        }
        impl FromJson for $ty {
            fn from_json(json: &Json) -> Result<Self, Error> {
                json.as_f64()
                    .map(|n| n as $ty)
                    .ok_or_else(|| Error::format("expected a number"))
            }
        }
    )+};
}

impl_json_float!(f32, f64);

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Number(*self as f64)
            }
        }
        impl FromJson for $ty {
            fn from_json(json: &Json) -> Result<Self, Error> {
                json.as_u64()
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| Error::format("expected a non-negative integer"))
            }
        }
    )+};
}

impl_json_uint!(u8, u16, u32, u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Number(*self as f64)
    }
}

impl FromJson for i64 {
    fn from_json(json: &Json) -> Result<Self, Error> {
        json.as_i64()
            .ok_or_else(|| Error::format("expected an integer"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, Error> {
        json.as_bool()
            .ok_or_else(|| Error::format("expected a boolean"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::String(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::String(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, Error> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::format("expected a string"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, Error> {
        json.as_array()
            .ok_or_else(|| Error::format("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, Error> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::String(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::String(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Number(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Number(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Number(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Number(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Builds an object field list tersely: `obj([("a", 1u64.into()), ...])`.
#[must_use]
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> String {
        Json::parse(text).unwrap().to_string()
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Number(-1250.0));
        assert_eq!(
            Json::parse("\"hi\"").unwrap(),
            Json::String("hi".to_string())
        );
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"z":1,"a":2,"m":3}"#;
        assert_eq!(roundtrip(text), text);
    }

    #[test]
    fn nested_roundtrip_is_stable() {
        let text = r#"{"a":[1,2,[3,{"b":null}]],"c":{"d":[],"e":{},"f":"g"}}"#;
        let once = roundtrip(text);
        assert_eq!(once, text);
        assert_eq!(roundtrip(&once), once);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(roundtrip("[]"), "[]");
        assert_eq!(roundtrip("{}"), "{}");
        assert_eq!(roundtrip(r#"{"a":[]}"#), r#"{"a":[]}"#);
        assert_eq!(Json::Array(vec![]).to_string_pretty(), "[]\n");
    }

    #[test]
    fn integral_numbers_print_without_decimal_point() {
        assert_eq!(Json::Number(5.0).to_string(), "5");
        assert_eq!(Json::Number(-17.0).to_string(), "-17");
        assert_eq!(Json::Number(0.0).to_string(), "0");
        assert_eq!(Json::Number(-0.0).to_string(), "-0");
        assert_eq!(Json::Number(0.5).to_string(), "0.5");
    }

    #[test]
    fn float_precision_round_trips() {
        for v in [
            0.1,
            -0.018_768_454_976_861_294,
            1e-300,
            std::f64::consts::PI,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let text = Json::Number(v).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, v, "value {v} reprinted as {text}");
        }
    }

    #[test]
    fn nan_and_infinity_serialize_as_null() {
        assert_eq!(Json::Number(f64::NAN).to_string(), "null");
        assert_eq!(Json::Number(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Number(f64::NEG_INFINITY).to_string(), "null");
        // And null does not parse back as a number: the error is loud.
        assert!(f64::from_json(&Json::parse("null").unwrap()).is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "tab\t newline\n quote\" backslash\\ unicode \u{1F600} nul\u{0000}";
        let json = Json::String(original.to_string());
        let text = json.to_string();
        assert_eq!(Json::parse(&text).unwrap(), json);
        // Control characters must be escaped in the output.
        assert!(text.contains("\\u0000"));
        assert!(text.contains("\\t"));
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let parsed = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("\u{1F600}"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired high");
        assert!(Json::parse(r#""\ude00""#).is_err(), "unpaired low");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "nul", "tru", "{", "[", "[1,", "{\"a\"}", "{\"a\":}", "[1 2]", "01", "1.", "1e",
            "+1", "\"", "\"\\x\"", "{a:1}", "[1]]", "1 2", "--1", ".5",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn errors_carry_positions() {
        let err = Json::parse("{\"a\": 1,\n  \"b\": }").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn accessor_types_are_strict() {
        let v = Json::parse(r#"{"n": 1.5, "i": 3, "s": "x", "b": true}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), None);
        assert_eq!(v.get("i").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("i").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_f64), None);
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("a"), None);
    }

    #[test]
    fn vec_conversions_roundtrip() {
        let weights = vec![1.5f64, -2.25, 0.0];
        let json = weights.to_json();
        assert_eq!(json.to_string(), "[1.5,-2.25,0]");
        let back = Vec::<f64>::from_json(&json).unwrap();
        assert_eq!(back, weights);
        assert!(Vec::<f64>::from_json(&Json::parse("[1,\"x\"]").unwrap()).is_err());
    }

    #[test]
    fn pretty_printing_is_parseable_and_indented() {
        let v = obj([
            ("window", vec![Json::from(64u64), Json::from(128u64)].into()),
            ("nested", obj([("a", 1u64.into())])),
        ]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"window\""));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parse_bytes_rejects_invalid_utf8() {
        assert!(Json::parse_bytes(b"\"\xff\xfe\"").is_err());
        assert_eq!(Json::parse_bytes(b"[1,2]").unwrap().to_string(), "[1,2]");
    }

    #[test]
    fn whitespace_tolerant_parsing() {
        let text = " \t\r\n { \"a\" : [ 1 , 2 ] , \"b\" : null } \n";
        assert_eq!(roundtrip(text), r#"{"a":[1,2],"b":null}"#);
    }

    #[test]
    fn schema_header_accepts_matching_format_and_kind() {
        let v = obj([("format", 1u64.into()), ("kind", "run_report".into())]);
        assert!(check_schema_header(&v, "run_report", "report", 1).is_ok());
        assert_eq!(schema_kind(&v, "report", 1).unwrap(), "run_report");
        let numeric_kind = obj([("format", 1u64.into()), ("kind", 7u64.into())]);
        let err = schema_kind(&numeric_kind, "report", 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "format error: field \"kind\" must be a string"
        );
    }

    #[test]
    fn schema_header_rejections_carry_typed_messages() {
        let missing = obj([("kind", "x".into())]);
        let err = check_schema_header(&missing, "x", "report", 1).unwrap_err();
        assert!(err
            .to_string()
            .contains("missing required field \"format\""));

        let non_int = obj([("format", "1".into()), ("kind", "x".into())]);
        let err = check_schema_header(&non_int, "x", "report", 1).unwrap_err();
        assert!(err
            .to_string()
            .contains("field \"format\" must be a non-negative integer"));

        let future = obj([("format", 99u64.into()), ("kind", "x".into())]);
        let err = check_schema_header(&future, "x", "report", 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "format error: unsupported report format 99 (this build reads format 1)"
        );

        let wrong_kind = obj([("format", 1u64.into()), ("kind", "other".into())]);
        let err = check_schema_header(&wrong_kind, "x", "report", 1).unwrap_err();
        assert!(err
            .to_string()
            .contains("expected kind \"x\", found \"other\""));
    }
}
