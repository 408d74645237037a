//! JSON printing/parsing over the serde shim's [`Value`] model, with the
//! `serde_json` API surface this workspace uses: `to_vec`, `to_string`,
//! `to_string_pretty`, `from_slice`, `from_str`, `Value`, and the `json!`
//! macro (including nested object/array literals).

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON error (parse or conversion).
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.serialize_value()
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &to_value(value));
    Ok(out)
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Serialize to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&mut out, &to_value(value), 0);
    Ok(out)
}

/// Deserialize from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::deserialize_value(&value).map_err(Error::from)
}

/// Deserialize from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---- writer ------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
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

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        // Rust's Display for f64 is shortest-round-trip, so the parse
        // side recovers the value exactly.
        Value::Float(f) if f.is_finite() => out.push_str(&f.to_string()),
        Value::Float(_) => out.push_str("null"), // JSON has no NaN/Inf
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_value_pretty(out: &mut String, v: &Value, indent: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(indent + 1));
                write_value_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(indent + 1));
                write_escaped(out, k);
                out.push_str(": ");
                write_value_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        other => write_value(out, other),
    }
}

// ---- parser ------------------------------------------------------------

/// Deepest array/object nesting the parser accepts (real `serde_json`'s
/// default recursion limit). The parse recurses once per level, and every
/// [`Value`] built from untrusted bytes comes from here, so this one limit
/// also bounds the recursion of that value's `Drop`, `Clone` and
/// `Deserialize`.
const MAX_DEPTH: usize = 128;

/// Recursive-descent parser over already-validated UTF-8. Linear in the
/// input: string runs are copied whole, never re-validated.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing data"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    /// The input not yet consumed.
    fn rest(&self) -> &'a [u8] {
        self.text.as_bytes().get(self.pos..).unwrap_or_default()
    }

    /// An error naming what went wrong and the byte offset it was found
    /// at. Kept out of line so the recursive frames stay small.
    #[cold]
    fn error(&self, what: &str) -> Error {
        Error::new(format!("{what} at byte {}", self.pos))
    }

    #[cold]
    fn unexpected(&self) -> Error {
        match self.text.get(self.pos..).and_then(|s| s.chars().next()) {
            Some(c) => self.error(&format!("unexpected {c:?}")),
            None => self.error("unexpected end of input"),
        }
    }

    fn skip_ws(&mut self) {
        self.pos += self
            .rest()
            .iter()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.rest().starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    /// One value. The recursion runs through here, `array` and `object`
    /// only, so their frames are all a nesting level costs.
    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            _ => self.scalar(),
        }
    }

    /// A value that nests nothing: a literal, string or number.
    fn scalar(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.unexpected()),
        }
    }

    /// Consume the opening byte of one more array/object level, refusing
    /// to go past [`MAX_DEPTH`].
    fn open(&mut self, b: u8) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!(
                "recursion limit exceeded: nesting deeper than {MAX_DEPTH} levels"
            )));
        }
        self.eat(b)?;
        self.depth += 1;
        Ok(())
    }

    /// Consume the closing byte of the innermost open level.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.open(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.skip_ws();
                    }
                    Some(b']') => break,
                    _ => return Err(self.error("unterminated array")),
                }
            }
        }
        self.close();
        Ok(Value::Array(items))
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.open(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                let value = self.value()?;
                pairs.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.skip_ws();
                    }
                    Some(b'}') => break,
                    _ => return Err(self.error("unterminated object")),
                }
            }
        }
        self.close();
        Ok(Value::Object(pairs))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash in one
            // run. Both are ASCII, so the run ends on a char boundary and
            // needs no second UTF-8 validation.
            let rest = self.rest();
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let end = self.pos + run;
            let text = self
                .text
                .get(self.pos..end)
                .ok_or_else(|| self.error("invalid UTF-8"))?;
            out.push_str(text);
            self.pos = end;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1; // the backslash
                    self.escape(&mut out)?;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decode one escape sequence; `pos` is just past its backslash.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                out.push(self.unicode_escape()?);
                return Ok(()); // pos is past the escape already
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        out.push(c);
        Ok(())
    }

    /// The char of a `\uXXXX` escape; `pos` is just past the `u`. An
    /// astral-plane char is a high-surrogate escape followed by a
    /// low-surrogate one; any other surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let cp = self.hex4()?;
        if !(0xD800..0xDC00).contains(&cp) {
            // A lone low surrogate is no char either.
            return char::from_u32(cp).ok_or_else(|| self.error("bad codepoint"));
        }
        if !self.literal("\\u") {
            return Err(self.error("lone high surrogate"));
        }
        let lo = self.hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(self.error("high surrogate not followed by a low surrogate"));
        }
        char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
            .ok_or_else(|| self.error("bad surrogate pair"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let v = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|digits| digits.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|digits| u32::from_str_radix(digits, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        if !is_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error(&format!("bad number `{text}`")))
    }
}

// ---- json! macro -------------------------------------------------------

/// Build a [`Value`] from a JSON-shaped literal. Nested `{…}`/`[…]`
/// literals recurse; any other value position takes a Rust expression
/// implementing `Serialize`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut, clippy::vec_init_then_push)]
        let mut obj: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
            ::std::vec::Vec::new();
        $crate::json_object!(obj; $($body)*);
        $crate::Value::Object(obj)
    }};
    ([ $($body:tt)* ]) => {{
        #[allow(unused_mut, clippy::vec_init_then_push)]
        let mut arr: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_array!(arr; $($body)*);
        $crate::Value::Array(arr)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Implementation detail of [`json!`]: munches array elements.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    ($arr:ident;) => {};
    ($arr:ident; { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $arr.push($crate::json!({ $($inner)* }));
        $( $crate::json_array!($arr; $($rest)*); )?
    };
    ($arr:ident; [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $arr.push($crate::json!([ $($inner)* ]));
        $( $crate::json_array!($arr; $($rest)*); )?
    };
    ($arr:ident; $val:expr , $($rest:tt)*) => {
        $arr.push($crate::to_value(&$val));
        $crate::json_array!($arr; $($rest)*);
    };
    ($arr:ident; $val:expr) => {
        $arr.push($crate::to_value(&$val));
    };
}

/// Implementation detail of [`json!`]: munches `"key": value` pairs.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    ($obj:ident;) => {};
    ($obj:ident; $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $obj.push(($key.to_string(), $crate::json!({ $($inner)* })));
        $( $crate::json_object!($obj; $($rest)*); )?
    };
    ($obj:ident; $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $obj.push(($key.to_string(), $crate::json!([ $($inner)* ])));
        $( $crate::json_object!($obj; $($rest)*); )?
    };
    ($obj:ident; $key:literal : $val:expr , $($rest:tt)*) => {
        $obj.push(($key.to_string(), $crate::to_value(&$val)));
        $crate::json_object!($obj; $($rest)*);
    };
    ($obj:ident; $key:literal : $val:expr) => {
        $obj.push(($key.to_string(), $crate::to_value(&$val)));
    };
}

#[cfg(test)]
#[allow(clippy::vec_init_then_push)] // json! expands to push sequences
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let v = json!({
            "name": "hpmdr",
            "count": 3usize,
            "ratio": 0.125,
            "neg": -7,
            "flag": true,
            "nested": { "a": [1, 2, 3] },
        });
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
        assert_eq!(back["name"], "hpmdr");
        assert_eq!(back["nested"]["a"][1], 2);
    }

    #[test]
    fn float_precision_roundtrips() {
        for x in [1.0e-300f64, 0.1, 1.5e300, -2.2250738585072014e-308, 33.333] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back, x, "{s}");
        }
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("a\"b\\c\nd\te\u{1F600}".to_string());
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_parses() {
        let v = json!({ "rows": [ { "k": 1 } ], "empty": [] });
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parse_errors_do_not_panic() {
        for bad in ["", "{", "[1,", "\"abc", "truu", "{\"a\" 1}", "garbage"] {
            assert!(from_str::<Value>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn surrogate_pairs_decode_and_broken_ones_are_errors() {
        let escapes = |units: &[&str]| format!("\"\\u{}\"", units.join("\\u"));
        let v: Value = from_str(&escapes(&["D83D", "DE00", "00E9"])).unwrap();
        assert_eq!(v, "\u{1F600}\u{e9}");
        for (bad, why) in [
            // A high surrogate followed by a non-low `\u` escape used to
            // underflow `lo - 0xDC00`.
            (
                escapes(&["D800", "0041"]),
                "not followed by a low surrogate",
            ),
            (
                escapes(&["D800", "D800"]),
                "not followed by a low surrogate",
            ),
            (escapes(&["DC00"]), "bad codepoint"),
            (escapes(&["D800"]), "lone high surrogate"),
            (escapes(&["D800", "DC"]), "bad \\u escape"),
            (r#""\uD800\u"#.to_string(), "bad \\u escape"),
            (escapes(&["+041"]), "bad \\u escape"),
        ] {
            let err = from_str::<Value>(&bad).unwrap_err().to_string();
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn nesting_is_bounded_with_the_offset_named() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&arrays(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&arrays(MAX_DEPTH + 1))
            .unwrap_err()
            .to_string();
        assert!(err.contains("recursion limit exceeded"), "{err}");
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        // Arrays and objects count alike.
        let mixed = "[{\"a\":".repeat(MAX_DEPTH / 2 + 1);
        let err = from_str::<Value>(&mixed).unwrap_err().to_string();
        assert!(err.contains("recursion limit exceeded"), "{err}");
        // A closed level gives its depth back: siblings at the limit parse.
        let siblings = format!("[{}]", vec![arrays(MAX_DEPTH - 1); 3].join(","));
        assert!(from_str::<Value>(&siblings).is_ok());
    }

    #[test]
    fn scientific_notation_parses() {
        let v: Value = from_str("[1e3, -2.5E-2, 0.0]").unwrap();
        assert_eq!(v[0].as_f64(), Some(1000.0));
        assert_eq!(v[1].as_f64(), Some(-0.025));
    }
}
