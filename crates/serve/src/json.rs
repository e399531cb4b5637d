//! Minimal zero-dependency JSON for the serving layer.
//!
//! Parsing is strict RFC-8259: numbers follow the §6 grammar (no leading
//! zeros, no `NaN`/`Infinity`, digits on both sides of a decimal point and
//! after an exponent), a `\u` escape takes exactly four hex digits, no
//! trailing commas, bounded nesting depth — a request body is
//! attacker-adjacent input and must not be able to recurse the parser off
//! the stack.
//! Writing goes the other way with one deliberate deviation: non-finite
//! numbers serialize as `null`, so a NaN can never silently round-trip
//! through a response into a downstream consumer.

use std::collections::BTreeMap;

/// Maximum nesting depth a request body may use.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int/float).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Sorted keys (BTreeMap) keep output deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a finite f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of numbers, if it is an all-number array.
    pub fn as_f64_array(&self) -> Option<Vec<f64>> {
        match self {
            Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
            _ => None,
        }
    }

    /// The value as indices, if it is an all-integer array.
    pub fn as_usize_array(&self) -> Option<Vec<usize>> {
        match self {
            Json::Arr(items) => {
                items.iter().map(|j| j.as_u64().map(|v| v as usize)).collect()
            }
            _ => None,
        }
    }
}

/// A typed parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the failure was detected at.
    pub at: usize,
    /// What went wrong.
    pub what: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// [`JsonError`] on any syntax violation, depth overflow, or non-finite
/// numeric literal.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> JsonError {
        JsonError { at: self.pos, what: what.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs are rejected rather than
                            // decoded — no request field needs them and
                            // half-pairs are a classic parser landmine.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    // Advance one UTF-8 scalar (input is &str, so valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len()
                        && (self.bytes[self.pos] & 0xC0) == 0x80
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input slice is valid UTF-8"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        // Exactly four hex digits: a sign or any other byte is rejected.
        let v = hex
            .iter()
            .try_fold(0, |v, &b| Some(16 * v + char::from(b).to_digit(16)?))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Skips one or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("bad number"));
        }
        Ok(())
    }

    /// `[ "-" ] ( "0" / digit1-9 *DIGIT ) [ "." 1*DIGIT ] [ ( "e" / "E" )
    /// [ "+" / "-" ] 1*DIGIT ]`, the grammar of RFC 8259 §6.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // A leading zero is the whole integer part, so `01` leaves `1` for
        // the caller to reject.
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        let v: f64 = s.parse().map_err(|_| self.err("bad number"))?;
        if !v.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Json::Num(v))
    }
}

/// Formats a slice of numbers as a JSON array through [`ed_obs::num`]
/// (non-finite → `null`: fail closed, a NaN must never leave the service
/// looking like data).
pub fn num_array(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| ed_obs::num(v)).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typical_request_body() {
        let v = parse(r#"{"case":"three_bus","ratings_mw":[100.5,200,-3e1],"n":7}"#).unwrap();
        assert_eq!(v.get("case").unwrap().as_str(), Some("three_bus"));
        assert_eq!(
            v.get("ratings_mw").unwrap().as_f64_array(),
            Some(vec![100.5, 200.0, -30.0])
        );
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        for (text, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-1.25e-2", -0.0125),
            ("1E+3", 1000.0),
            ("2e0", 2.0),
        ] {
            assert_eq!(parse(text), Ok(Json::Num(want)), "{text}");
        }
    }

    #[test]
    fn rejects_nan_infinity_and_garbage() {
        assert!(parse("NaN").is_err());
        assert!(parse("Infinity").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("1e999").is_err());
        assert!(parse("").is_err());
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u004""#).is_err());
        for number in ["01", "00", "1.", "-.5", "1.e3", "-", "1e", "1e+", "+1", ".5", "[01,299]"] {
            assert!(parse(number).is_err(), "{number} parsed");
        }
    }

    /// Seeded byte mutations of the request bodies `scripts/verify.sh`
    /// sends, kept valid UTF-8: every mutant parses or gets a typed error at
    /// an offset inside the input, and none panics.
    #[test]
    fn mutated_request_bodies_never_panic() {
        use ed_rng::{Rng, SeedableRng, StdRng};
        const BODIES: [&str; 8] = [
            r#"{"case":"three_bus"}"#,
            r#"{"case":"three_bus","inject_basis_fault":7}"#,
            r#"{"case":"three_bus","bounds":[100,200],"true_ratings":[130,120]}"#,
            r#"{"case":"three_bus","p_mw":[300,0]}"#,
            r#"{"case":"three_bus","p_mw":[01,299]}"#,
            r#"{"case": nope"#,
            r#"{"case":"three_bus","chaos":"panic"}"#,
            r#"{"case":"three_bus","chaos":"stall"}"#,
        ];
        // JSON's own bytes, so mutants stay close to the grammar.
        const SYNTAX: &[u8] = b"{}[]:,\"\\-+.eE0123456789 \tnultrfasu";
        let mut rng = StdRng::seed_from_u64(0x8259);
        let mut parsed = 0;
        for i in 0..20_000 {
            let mut bytes = BODIES[i % BODIES.len()].as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..bytes.len() + 1);
                let b = if rng.gen_bool(0.7) {
                    SYNTAX[rng.gen_range(0..SYNTAX.len())]
                } else {
                    rng.gen::<u8>()
                };
                match rng.gen_range(0..3u32) {
                    0 if at < bytes.len() => bytes[at] = b,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, b),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            match parse(&text) {
                Ok(_) => parsed += 1,
                Err(e) => assert!(e.at <= text.len(), "{text:?}: error at {} of {}", e.at, text.len()),
            }
        }
        assert!(parsed > 0, "no mutant parsed: the mutations are too coarse to probe the grammar");
    }

    #[test]
    fn depth_bomb_is_rejected_not_overflowed() {
        let bomb = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&bomb).is_err());
    }

    #[test]
    fn strings_round_trip_escapes() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(ed_obs::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn non_finite_output_becomes_null() {
        assert_eq!(ed_obs::num(f64::NAN), "null");
        assert_eq!(ed_obs::num(f64::INFINITY), "null");
        assert_eq!(num_array(&[1.0, f64::NAN]), "[1,null]");
    }
}
