//! The workspace's JSON text codec.
//!
//! Renders the `serde` crate's [`Value`] tree to JSON text and parses it
//! back: [`to_string`] and [`from_str`] are the whole API, and they have two
//! consumers — the behaviour repository's durable-store round-trip
//! (`deepdive::repository`) and `e2e_bench`'s result lines.  Not a
//! `serde_json`-compatible API (nothing here is generic over a type to
//! serialize); the crate keeps the name and path because the benchmark's own
//! manifest names it.  Floats are written with Rust's shortest round-trip
//! formatting, so `f64` values survive a round trip bit-exactly.  The parser
//! is the workspace's one hostile-input surface: it bounds nesting depth and
//! rejects numbers that overflow to a non-finite float.

pub use serde::Error;
use serde::Value;

/// Deepest nesting of arrays and objects [`from_str`] accepts (crates.io
/// `serde_json`'s limit).  The parser recurses once per level, so without a
/// bound a payload of `[[[[…` overflows the stack.
const MAX_DEPTH: usize = 128;

/// Renders a value as compact JSON text.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(value, &mut out)?;
    Ok(out)
}

/// Parses JSON text into a value.
pub fn from_str(s: &str) -> Result<Value, Error> {
    Parser::new(s).parse_document()
}

fn write_value(v: &Value, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if !x.is_finite() {
                return Err(Error::new("cannot serialize non-finite float as JSON"));
            }
            // `{:?}` is Rust's shortest representation that round-trips.
            out.push_str(&format!("{x:?}"));
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn parse_document(mut self) -> Result<Value, Error> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error::new(format!(
                "trailing characters at byte {}",
                self.pos
            )));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of JSON input"))
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::new(format!(
                        "recursion limit exceeded at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b't' => self.parse_literal("true", Value::Bool(true)),
            b'f' => self.parse_literal("false", Value::Bool(false)),
            b'n' => self.parse_literal("null", Value::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                c => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` in object, found `{}`",
                        c as char
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                c => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` in array, found `{}`",
                        c as char
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(Error::new(format!("expected string at byte {}", self.pos)));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let c = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    let slice = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| Error::new("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(slice).map_err(|_| Error::new("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if text.is_empty() {
            return Err(Error::new(format!("expected value at byte {start}")));
        }
        let is_float = text.contains(['.', 'e', 'E']);
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        match text.parse::<f64>() {
            // `1e999` parses to infinity, which `to_string` cannot write back.
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            Ok(_) => Err(Error::new(format!("number out of range at byte {start}"))),
            Err(_) => Err(Error::new(format!("invalid number `{text}`"))),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        from_str(&to_string(v).unwrap()).unwrap()
    }

    #[test]
    fn scalars_round_trip_through_text() {
        for v in [
            Value::F64(0.1234567890123456),
            Value::U64(u64::MAX),
            Value::I64(i64::MIN),
            Value::Bool(false),
            Value::Null,
        ] {
            assert_eq!(round_trip(&v), v);
        }
        assert!(to_string(&Value::F64(f64::NAN)).is_err());
    }

    #[test]
    fn collections_round_trip_through_text() {
        let doc = Value::Object(vec![
            (
                "1".to_string(),
                Value::Array(vec![Value::F64(1.0), Value::F64(2.5)]),
            ),
            ("9".to_string(), Value::Array(vec![])),
            ("empty".to_string(), Value::Object(vec![])),
        ]);
        assert_eq!(
            to_string(&doc).unwrap(),
            r#"{"1":[1.0,2.5],"9":[],"empty":{}}"#
        );
        assert_eq!(round_trip(&doc), doc);
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        let s = Value::Str("line\none \"two\" \\three\\ \ttab \u{1} é漢".to_string());
        assert_eq!(round_trip(&s), s);
    }

    #[test]
    fn malformed_documents_error() {
        for text in [
            "",
            "1.0 trailing",
            "[1.0,",
            "\"unterminated",
            "tru",
            "{\"a\" 1}",
        ] {
            assert!(from_str(text).is_err(), "{text:?} parsed");
        }
        // A float literal too large for an f64 is refused, not read as
        // infinity; so is nesting past the depth bound, from either bracket.
        let range = from_str("[1e999]").unwrap_err().to_string();
        assert_eq!(range, "number out of range at byte 1");
        assert!(from_str("-1e999").is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str(&at_limit).is_ok());
        let deep = from_str(&"[".repeat(MAX_DEPTH + 1))
            .unwrap_err()
            .to_string();
        assert_eq!(deep, "recursion limit exceeded at byte 128");
        assert!(from_str(&"{\"a\":".repeat(100_000)).is_err());
        // Siblings do not count as depth.
        assert!(from_str(&format!("[{}[]]", "[],".repeat(1_000))).is_ok());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = from_str(" [ 1 , 2 ,\n3 ] ").unwrap();
        assert_eq!(
            v,
            Value::Array(vec![Value::U64(1), Value::U64(2), Value::U64(3)])
        );
    }
}
