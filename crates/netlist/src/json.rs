//! A minimal recursive-descent JSON reader.
//!
//! The workspace builds fully offline with zero external dependencies, so
//! the Yosys frontend brings its own reader instead of `serde_json`. It
//! supports exactly what `yosys -o design.json` emits — objects, arrays,
//! strings (with escapes), integers, floats, booleans and `null` — and is
//! hardened against hostile input: every malformed byte becomes a
//! [`NetlistError::Json`] with a byte offset, deep nesting is bounded (no
//! stack overflow on `[[[[...`), and object key order is preserved so the
//! importer sees ports and cells in document order.

use crate::error::{NetlistError, Result};

/// Maximum nesting depth accepted (Yosys netlists use ~6 levels).
const MAX_DEPTH: usize = 96;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum JValue {
    Null,
    Bool(bool),
    /// Integral number that fits an `i64` (net ids, widths, parameters).
    Int(i64),
    /// Any other number (floats, out-of-range integers).
    Num(f64),
    Str(String),
    Arr(Vec<JValue>),
    Obj(Vec<(String, JValue)>),
}

impl JValue {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JValue> {
        match self {
            JValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, JValue)]> {
        match self {
            JValue::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JValue]> {
        match self {
            JValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<JValue> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after top-level value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> NetlistError {
        NetlistError::json(self.pos, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {}",
                b as char,
                match self.peek() {
                    Some(c) => format!("`{}`", c as char),
                    None => "end of input".to_string(),
                }
            )))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JValue> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JValue::Str(self.string()?)),
            Some(b't') => self.keyword("true", JValue::Bool(true)),
            Some(b'f') => self.keyword("false", JValue::Bool(false)),
            Some(b'n') => self.keyword("null", JValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, v: JValue) -> Result<JValue> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal (expected `{word}`)")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JValue> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JValue::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
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
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require \uDC00-\uDFFF next.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so boundaries
                    // are valid by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err("malformed number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("malformed number (empty fraction)"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("malformed number (empty exponent)"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JValue::Num)
            .map_err(|_| NetlistError::json(start, "malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_document() {
        let v = parse(r#"{"a": [1, -2, 3.5], "b": {"c": "x\n"}, "d": true, "e": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0], JValue::Int(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], JValue::Int(-2));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\n"));
        assert_eq!(v.get("d"), Some(&JValue::Bool(true)));
        assert_eq!(v.get("e"), Some(&JValue::Null));
    }

    #[test]
    fn preserves_member_order() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let e = parse("{} x").unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");
    }

    #[test]
    fn rejects_deep_nesting_without_overflow() {
        let src = "[".repeat(100_000);
        let e = parse(&src).unwrap_err();
        assert!(e.to_string().contains("nesting"), "{e}");
    }

    #[test]
    fn every_prefix_of_a_document_errors_cleanly() {
        let src = r#"{"modules": {"top": {"ports": {"a": {"direction": "input", "bits": [2]}}}}}"#;
        for cut in 0..src.len() {
            if !src.is_char_boundary(cut) {
                continue;
            }
            assert!(parse(&src[..cut]).is_err(), "prefix {cut} should fail");
        }
        assert!(parse(src).is_ok());
    }
}
