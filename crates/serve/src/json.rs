//! The wire codec: one pull [`Reader`] and one push [`Writer`].
//!
//! The wire protocol is line-delimited JSON and the build environment has
//! no registry access, so the crate carries its own codec. There is no
//! value tree: [`Reader`] walks one line and hands each object key (a
//! borrowed slice, decoded only when it holds escapes) to the caller, who
//! reads the value straight into its typed field; [`Writer`] appends typed
//! fields to one `String`.
//!
//! The accepted input set is the full JSON grammar (RFC 8259) plus the
//! number spellings `str::parse::<f64>` takes for a token of
//! `-`, digits, `.`, `e`/`E` and signs (`05`, `1.`), exactly as the
//! recursive parser this codec replaced. Skipping a value the caller does
//! not want is iterative, with an explicit bracket stack, so no input
//! depth reaches the call stack.

use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;

use roadnet::NodeId;

#[cfg(test)]
pub(crate) mod tree;

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// One JSON value read without its children.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    Null,
    Bool(bool),
    /// Every JSON number as `f64` — exact for the integers this protocol
    /// carries (node ids and counters below 2^53).
    Num(f64),
    Str(Cow<'a, str>),
    /// An array or an object: validated, then skipped.
    Compound,
}

impl Scalar<'_> {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`: `None` if negative, fractional, above 2^53,
    /// or not a number. So `5.0`, `5e0`, `05` and `-0` all read as integers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // In [0, 2^53] the cast truncates, so it round-trips exactly
            // when the value is integral.
            Scalar::Num(n) if (0.0..=2f64.powi(53)).contains(n) && (*n as u64) as f64 == *n => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// What [`Reader::node_ids`] found.
#[derive(Debug, Clone, PartialEq)]
pub enum Ids {
    /// The value was not an array.
    NotArray,
    /// An array with an element that is not a node id.
    Invalid,
    Valid(Vec<NodeId>),
}

/// A pull reader over one JSON document.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0 }
    }

    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    /// End of the document: only whitespace may follow its one value.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    /// Read an object, calling `member` with each key once the reader sits
    /// on that key's value; `member` must consume exactly that value. A
    /// key borrows from the line unless it has escapes. Any other value
    /// is validated and skipped, and `Ok(false)` returned.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            self.skip()?;
            return Ok(false);
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            self.member_key_then(|r, key| member(r, key))?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(true);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Read a member key and its `:`, then hand the key to `then` with the
    /// reader on the value.
    fn member_key_then(
        &mut self,
        then: impl FnOnce(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':', "expected ':' after object key")?;
        self.skip_ws();
        then(self, key)
    }

    /// Read an array, calling `element` once the reader sits on each
    /// element; `element` must consume exactly that value. Any other value
    /// is validated and skipped, and `Ok(false)` returned.
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            self.skip()?;
            return Ok(false);
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(true);
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Read an array of node ids straight into a `Vec`. Every element is
    /// validated as JSON even after one fails to be a node id.
    pub fn node_ids(&mut self) -> Result<Ids, JsonError> {
        let mut ids = Vec::new();
        let mut valid = true;
        let is_array = self.array(|r| {
            let id = match r.plain_integer() {
                Some(n) => NodeId::try_from(n).ok(),
                None => r.scalar()?.as_u64().and_then(|n| NodeId::try_from(n).ok()),
            };
            match id {
                Some(id) => ids.push(id),
                None => valid = false,
            }
            Ok(())
        })?;
        Ok(match (is_array, valid) {
            (false, _) => Ids::NotArray,
            (true, false) => Ids::Invalid,
            (true, true) => Ids::Valid(ids),
        })
    }

    /// Read one value; arrays and objects are validated and skipped.
    pub fn scalar(&mut self) -> Result<Scalar<'a>, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') => self.skip().map(|()| Scalar::Compound),
            _ => self.leaf(),
        }
    }

    /// A value that is not an array or an object.
    fn leaf(&mut self) -> Result<Scalar<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b'-' | b'0'..=b'9') => self.number().map(Scalar::Num),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Validate and skip one value of any depth. Open containers live on
    /// an explicit stack (one byte each), never on the call stack.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        let mut open: Vec<u8> = Vec::new();
        self.skip_ws();
        loop {
            // The reader sits on a value.
            match self.peek() {
                Some(b'[') => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                    } else {
                        open.push(b']');
                        continue;
                    }
                }
                Some(b'{') => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                    } else {
                        open.push(b'}');
                        self.member_key_then(|_, _| Ok(()))?;
                        continue;
                    }
                }
                _ => {
                    self.leaf()?;
                }
            }
            // A value just ended: close containers until one continues.
            loop {
                let Some(&close) = open.last() else {
                    return Ok(());
                };
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.skip_ws();
                        if close == b'}' {
                            self.member_key_then(|_, _| Ok(()))?;
                        }
                        break;
                    }
                    Some(b) if b == close => {
                        self.pos += 1;
                        open.pop();
                    }
                    _ if close == b']' => return Err(self.err("expected ',' or ']'")),
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }
    }

    fn literal(&mut self, word: &str, value: Scalar<'a>) -> Result<Scalar<'a>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// A string: borrowed from the line unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                b'\\' => break,
                b if b < 0x20 => return Err(self.err("control character in string")),
                _ => self.pos += 1,
            }
        }
        if self.pos == bytes.len() {
            return Err(self.err("unterminated string"));
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one (possibly multi-byte) UTF-8 scalar.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The character of a `\u` escape (the reader is past the `u`),
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let cp = self.hex4()?;
        let c = if (0xD800..0xDC00).contains(&cp) {
            if self.peek() != Some(b'\\') {
                return Err(self.err("lone high surrogate"));
            }
            self.pos += 1;
            self.expect(b'u', "expected low surrogate")?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            cp
        };
        char::from_u32(c).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = self
            .text
            .get(self.pos..end)
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(hex)
    }

    /// A plain number token — at most 15 digits, no sign, fraction or
    /// exponent, so below 2^53 and exact — read by a digit loop. `None`
    /// (and nothing consumed) for any other value.
    fn plain_integer(&mut self) -> Option<u64> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut end = start;
        let mut value = 0u64;
        while let Some(&b) = bytes.get(end).filter(|b| b.is_ascii_digit()) {
            value = value.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            end += 1;
        }
        if end == start || end - start > 15 || matches!(bytes.get(end), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        self.pos = end;
        Some(value)
    }

    /// A number token, as `f64`: a plain integer by [`Self::plain_integer`],
    /// every other token through `str::parse::<f64>`.
    fn number(&mut self) -> Result<f64, JsonError> {
        if let Some(n) = self.plain_integer() {
            return Ok(n as f64);
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("invalid number"))
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

/// A push writer for one JSON object, built field by field into one
/// buffer. Keys are the protocol's own ASCII names and are written as
/// given; string values are escaped.
pub struct Writer {
    out: Vec<u8>,
    /// A member was written at the current level, so the next needs a `,`.
    comma: bool,
}

impl Writer {
    /// Open the top-level object.
    pub fn new() -> Writer {
        let mut out = Vec::with_capacity(256);
        out.push(b'{');
        Writer { out, comma: false }
    }

    /// Close the top-level object and return the line (no newline).
    pub fn finish(mut self) -> String {
        self.out.push(b'}');
        String::from_utf8(self.out).expect("the writer copies only whole UTF-8 strings")
    }

    fn key(&mut self, key: &str) {
        debug_assert!(key
            .bytes()
            .all(|b| b.is_ascii_graphic() && b != b'"' && b != b'\\'));
        if self.comma {
            self.out.push(b',');
        }
        self.comma = true;
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        write_escaped(value, &mut self.out);
    }

    pub fn u64(&mut self, key: &str, value: u64) {
        self.key(key);
        write_u64(value, &mut self.out);
    }

    pub fn f64(&mut self, key: &str, value: f64) {
        self.key(key);
        write_f64(value, &mut self.out);
    }

    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        let word: &[u8] = if value { b"true" } else { b"false" };
        self.out.extend_from_slice(word);
    }

    pub fn ids(&mut self, key: &str, ids: &[NodeId]) {
        self.key(key);
        // Ten digits and a comma at most per id.
        self.out.reserve(ids.len() * 11 + 2);
        self.out.push(b'[');
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            write_digits(u64::from(id), &mut self.out);
        }
        self.out.push(b']');
    }

    pub fn f64s(&mut self, key: &str, values: &[f64]) {
        self.key(key);
        self.out.push(b'[');
        for (i, &x) in values.iter().enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            write_f64(x, &mut self.out);
        }
        self.out.push(b']');
    }

    /// A nested object, filled by `fields`.
    pub fn object(&mut self, key: &str, fields: impl FnOnce(&mut Writer)) {
        self.key(key);
        self.out.push(b'{');
        self.comma = false;
        fields(self);
        self.out.push(b'}');
        self.comma = true;
    }

    /// An array of objects, one per item, each filled by `fields`.
    pub fn objects<T>(&mut self, key: &str, items: &[T], mut fields: impl FnMut(&mut Writer, &T)) {
        self.key(key);
        self.out.push(b'[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            self.out.push(b'{');
            self.comma = false;
            fields(self, item);
            self.out.push(b'}');
        }
        self.out.push(b']');
        self.comma = true;
    }
}

/// Decimal digits of `n`, by a digit loop.
fn write_digits(mut n: u64, out: &mut Vec<u8>) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// A `u64` as the wire has always carried it: through `f64`, so values
/// at or above 2^53 are rounded exactly as before.
fn write_u64(n: u64, out: &mut Vec<u8>) {
    if n < 1 << 53 {
        write_digits(n, out);
    } else {
        write_f64(n as f64, out);
    }
}

/// Integral values below 2^53 as integers, everything else in Rust's
/// shortest round-trip `f64` form.
fn write_f64(n: f64, out: &mut Vec<u8>) {
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let i = n as i64;
        if i < 0 {
            out.push(b'-');
        }
        write_digits(i.unsigned_abs(), out);
    } else {
        write!(out, "{n}").expect("writing to a Vec cannot fail");
    }
}

/// A JSON string literal: `"`, `\`, and control characters escaped.
fn write_escaped(s: &str, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escaped: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            b if b < 0x20 => &[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ],
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escaped);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

#[cfg(test)]
mod tests {
    use super::tree::Json;
    use super::*;

    #[test]
    fn roundtrips_scalars() {
        for text in ["null", "true", "false", "0", "-7", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_json()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn parses_nested_document() {
        let v = Json::parse(r#"{"op":"query","p":[1,2,3],"phi":0.5,"deep":{"a":[{}]}}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("query"));
        assert_eq!(v.get("phi").and_then(Json::as_f64), Some(0.5));
        let p: Vec<u64> = v
            .get("p")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(p, vec![1, 2, 3]);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::Obj(vec![
            ("z".into(), Json::from(1)),
            ("a".into(), Json::from(2)),
        ]);
        assert_eq!(v.to_json(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn escapes_roundtrip() {
        let original = Json::Str("line\nquote\" back\\slash \t\u{1}".to_string());
        let text = original.to_json();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(
            Json::parse(r#""é😀""#).unwrap(),
            Json::Str("é😀".to_string())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "nul", "01x", "\"", "{}extra", "[1 2]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn large_exact_integers_roundtrip() {
        let n = (1u64 << 53) - 1;
        let v = Json::parse(&n.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(n));
        assert_eq!(v.to_json(), n.to_string());
    }

    #[test]
    fn as_u64_rejects_negative_and_fractional() {
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("\"1\"").unwrap().as_u64(), None);
    }

    /// One whole document through the codec: the top-level value as a
    /// scalar, or the first error.
    fn read_scalar(text: &str) -> Result<Scalar<'_>, JsonError> {
        let mut r = Reader::new(text);
        let v = r.scalar()?;
        r.finish().map(|()| v)
    }

    /// The codec accepts and rejects exactly what the tree does, at the
    /// same byte with the same message, and reads the same scalar.
    #[test]
    fn reader_agrees_with_the_tree_on_documents() {
        for text in [
            "",
            " ",
            "{",
            "[1,",
            "{\"a\"}",
            "nul",
            "01x",
            "\"",
            "{}extra",
            "[1 2]",
            "null",
            "true",
            "false",
            "tru",
            "0",
            "-0",
            "05",
            "5.0",
            "5e0",
            "1.",
            "-",
            "1e",
            "1e400",
            "-1",
            "1.5",
            "9007199254740993",
            "123456789012345",
            "1234567890123456",
            "\"a\\u0041\\ud83d\\ude00\"",
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\n\"",
            "\"\\udc00\"",
            "\"\\u+041\"",
            "\"\\u12\"",
            "\"\\x\"",
            "\"a\u{1}\"",
            "\"\\",
            "[[],{},[{}],{\"a\":[1,{\"b\":null}]}]",
            "{\"a\":1,}",
            "[1,]",
            "{\"a\" 1}",
            "{1:2}",
            "[1}",
            "{\"a\":1]",
            " [ 1 , 2 ] ",
            "\"é\"",
            "-.5",
            "1.e5",
        ] {
            let want = Json::parse(text);
            let got = read_scalar(text);
            match (&want, &got) {
                (Ok(Json::Num(a)), Ok(Scalar::Num(b))) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{text:?}")
                }
                (Ok(Json::Str(a)), Ok(Scalar::Str(b))) => assert_eq!(a, b, "{text:?}"),
                (Ok(Json::Null), Ok(Scalar::Null)) => {}
                (Ok(Json::Bool(a)), Ok(Scalar::Bool(b))) => assert_eq!(a, b, "{text:?}"),
                (Ok(Json::Arr(_) | Json::Obj(_)), Ok(Scalar::Compound)) => {}
                (Err(a), Err(b)) => assert_eq!(a, b, "{text:?}"),
                _ => panic!("{text:?}: tree {want:?}, codec {got:?}"),
            }
        }
    }

    #[test]
    fn skip_is_iterative_at_any_depth() {
        let depth = 100_000;
        let open = "[".repeat(depth);
        let err = read_scalar(&open).unwrap_err();
        assert_eq!((err.offset, err.message), (depth, "expected a value"));
        let nested = format!("{open}{}", "]".repeat(depth));
        assert_eq!(read_scalar(&nested), Ok(Scalar::Compound));
        let objects = format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        assert_eq!(read_scalar(&objects), Ok(Scalar::Compound));
    }

    #[test]
    fn keys_borrow_unless_escaped() {
        let mut r = Reader::new(r#"{"plain":1,"\u0070":2}"#);
        let mut seen = Vec::new();
        assert!(r
            .object(|r, key| {
                let borrowed = matches!(key, Cow::Borrowed(_));
                seen.push((key.into_owned(), borrowed, r.scalar()?.as_u64()));
                Ok(())
            })
            .unwrap());
        r.finish().unwrap();
        assert_eq!(
            seen,
            [
                ("plain".to_string(), true, Some(1)),
                ("p".to_string(), false, Some(2))
            ]
        );
        let mut r = Reader::new(r#""no escapes""#);
        assert!(matches!(r.scalar(), Ok(Scalar::Str(Cow::Borrowed(_)))));
    }

    #[test]
    fn node_ids_read_straight_into_a_vec() {
        let ids = |text: &str| Reader::new(text).node_ids().unwrap();
        assert_eq!(
            ids("[1, 2.0, 3e0, 04, -0]"),
            Ids::Valid(vec![1, 2, 3, 4, 0])
        );
        assert_eq!(ids("[4294967295]"), Ids::Valid(vec![u32::MAX]));
        assert_eq!(ids("[4294967296]"), Ids::Invalid);
        assert_eq!(ids("[1, -1]"), Ids::Invalid);
        assert_eq!(ids("[1, \"2\"]"), Ids::Invalid);
        assert_eq!(ids("{}"), Ids::NotArray);
        assert!(Reader::new("[1, -1, x]").node_ids().is_err());
    }

    /// The writer's bytes equal the tree serializer's for the same value.
    #[test]
    fn writer_matches_the_tree_byte_for_byte() {
        let strings = ["", "plain", "q\"b\\s\n\r\t", "\u{1}\u{1f}\u{7f}", "é😀"];
        let numbers = [
            0.0,
            -0.0,
            0.5,
            -3.0,
            1e300,
            1e-7,
            4.0e15,
            9007199254740991.0,
            9007199254740992.0,
            f64::INFINITY,
            f64::NAN,
        ];
        let ints = [0, 7, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX];
        for s in strings {
            let mut w = Writer::new();
            w.str("s", s);
            let want = Json::Obj(vec![("s".into(), Json::from(s))]).to_json();
            assert_eq!(w.finish(), want);
        }
        for x in numbers {
            let mut w = Writer::new();
            w.f64("x", x);
            w.f64s("r", &[x, 1.0]);
            let want = Json::Obj(vec![
                ("x".into(), Json::Num(x)),
                ("r".into(), Json::Arr(vec![Json::Num(x), Json::Num(1.0)])),
            ]);
            assert_eq!(w.finish(), want.to_json());
        }
        for n in ints {
            let mut w = Writer::new();
            w.u64("n", n);
            w.object("o", |w| w.bool("b", n % 2 == 0));
            w.ids("ids", &[0, 1, u32::MAX]);
            let want = Json::Obj(vec![
                ("n".into(), Json::from(n)),
                (
                    "o".into(),
                    Json::Obj(vec![("b".into(), Json::Bool(n % 2 == 0))]),
                ),
                (
                    "ids".into(),
                    Json::Arr(vec![
                        Json::from(0),
                        Json::from(1),
                        Json::from(u64::from(u32::MAX)),
                    ]),
                ),
            ]);
            assert_eq!(w.finish(), want.to_json());
        }
    }
}
