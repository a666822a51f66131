//! The workspace's one JSON reader: a strict recursive-descent parser
//! over the RFC 8259 grammar — objects, arrays, strings with the standard
//! escapes, numbers, booleans, null.
//!
//! The workspace emits JSON by hand (no serde; see [`crate::json_escape`]
//! and [`crate::json_f64`]). This parser reads it back: `ent-serve` parses
//! tenant requests with it (re-exported as `ent_serve::json`), and
//! [`crate::json_is_valid`], which the tests use to check every emitted
//! document, is `parse(s).is_ok()`, so both agree on one grammar. Nesting
//! is bounded ([`MAX_DEPTH`]) so a hostile document cannot blow the
//! parser's stack, and numbers must be finite doubles.

/// A parsed JSON value. Object fields keep arrival order; duplicate keys
/// keep the last value, like every mainstream parser.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON has only doubles).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a field of an object (`None` for other value kinds).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The deepest nesting of objects and arrays accepted: a document this
/// deep is hostile, not expressive.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a one-line description of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value enclosed by `depth` objects and arrays.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} levels"))
        }
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {}", *pos))
    }
}

/// `number = [ "-" ] int [ frac ] [ exp ]` (RFC 8259 §6): no leading
/// zeros, no bare `.`, no `+` sign, and the value must be a finite double.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut ok = match bytes.get(*pos) {
        Some(b'0') => {
            *pos += 1;
            true
        }
        Some(b'1'..=b'9') => digits(pos),
        _ => false,
    };
    if ok && bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        ok = digits(pos);
    }
    if ok && matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        ok = digits(pos);
    }
    // The scanned bytes are ASCII, so the slice is valid UTF-8.
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap_or_default();
    if !ok {
        return Err(format!("malformed number `{text}` at byte {start}"));
    }
    let n: f64 = text
        .parse()
        .map_err(|_| format!("malformed number `{text}` at byte {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number `{text}` at byte {start}"));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // Surrogate pairs: a high surrogate must be
                        // followed by an escaped low surrogate.
                        let ch = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                let low = parse_hex4(bytes, *pos + 3)?;
                                *pos += 6;
                                if (0xDC00..0xE000).contains(&low) {
                                    char::from_u32(0x10000 + ((code - 0xD800) << 10) + low - 0xDC00)
                                } else {
                                    None
                                }
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(code)
                        };
                        out.push(ch.ok_or_else(|| format!("bad unicode escape at {}", *pos))?);
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("raw control byte 0x{c:02x} in string"));
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // encoding is already valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "bad utf-8")?;
                let ch = rest.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let slice = bytes
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let text = std::str::from_utf8(slice).map_err(|_| "bad utf-8 in \\u escape")?;
    u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape `{text}`"))
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume `{`
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume `[`
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"op": "run", "tenant": "t1", "battery": 0.75, "seed": 3}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("run"));
        assert_eq!(v.get("battery").and_then(Json::as_f64), Some(0.75));
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#"{"src": "class Main \u0041\n\"x\" \\"}"#).unwrap();
        assert_eq!(
            v.get("src").and_then(Json::as_str),
            Some("class Main A\n\"x\" \\")
        );
        // A surrogate pair round-trips.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn roundtrips_runtime_escaper() {
        // Whatever `json_escape` emits, this parser reads back verbatim —
        // the two halves of the wire protocol agree.
        let nasty = "line1\nline2\t\"quoted\" \\slash\u{1} 😀";
        let doc = format!("\"{}\"", crate::json_escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    /// Documents in RFC 8259's grammar, shared with the
    /// `json_is_valid` tests in `telemetry`.
    pub(crate) fn well_formed() -> Vec<String> {
        let mut docs: Vec<String> = [
            "{}",
            "[]",
            "null",
            " [ true , false ] ",
            "0",
            "-0",
            "-12.5e-3",
            "1E+2",
            "0.5",
            "\"a \\\"b\\\" \\u00e9\"",
            "{\"a\": [1, 2.5, true, null], \"b\": {\"c\": \"d\"}}",
        ]
        .map(String::from)
        .to_vec();
        docs.push("[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH));
        docs
    }

    /// Documents outside RFC 8259's grammar (or past the depth bound),
    /// shared with the `json_is_valid` tests in `telemetry`.
    pub(crate) fn malformed() -> Vec<String> {
        let mut docs: Vec<String> = [
            "",
            "{",
            "{\"a\": }",
            "{\"a\" 1}",
            "{'a': 1}",
            "[1, ]",
            "[1, 2",
            "{} extra",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "\"bad \\q escape\"",
            "nul",
            "NaN",
            "01",
            "01a",
            "-01",
            "1.",
            "[1.]",
            "-.5",
            ".5",
            "+1",
            "-",
            "1e",
            "1e+",
            "0x10",
            "1e999",
        ]
        .map(String::from)
        .to_vec();
        docs.push("[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1));
        docs
    }

    #[test]
    fn accepts_well_formed_documents() {
        for doc in well_formed() {
            assert!(parse(&doc).is_ok(), "`{doc}` should parse");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in malformed() {
            assert!(parse(&doc).is_err(), "`{doc}` should fail");
        }
    }

    #[test]
    fn bounds_nesting_depth() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let fine = "[".repeat(32) + &"]".repeat(32);
        assert!(parse(&fine).is_ok());
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(2.0));
    }
}
