//! JSON text half of the in-tree serde shim: renders [`serde::Value`]
//! trees to JSON and parses JSON back, exposing the `to_string` /
//! `to_string_pretty` / `from_str` entry points of the real `serde_json`
//! so call sites survive a swap to the crates.io package unchanged.
//!
//! Output is deterministic: struct fields keep declaration order and
//! floats print as the shortest decimal that parses back to the same
//! bits, so serialize → parse → serialize is a fixed point (used by the
//! spec round-trip tests). The crate formats numbers itself: a float's
//! text is byte for byte what `format!("{f:?}")` prints and an integer's
//! what `format!("{i}")` prints, and tests pin both.
//!
//! The writers take the tree through [`serde::Serialize::as_value`], so a
//! [`Value`] is written in place rather than deep-copied first, and
//! numbers and escape-free strings go straight into the output buffer.
//! Writing a large tree (a checkpoint payload) therefore costs one pass
//! over it and the output text, nothing more.
//!
//! The parser accepts exactly RFC 8259's grammar: a number with a leading
//! zero, an empty fraction or exponent, a `\u` escape that is not four
//! hex digits and a raw control character in a string are errors, each
//! naming its byte offset.

#![warn(missing_docs)]

pub use serde::{Error, Value};

use std::fmt::Write as _;

mod num;

/// Serializes any [`serde::Serialize`] type to its [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Reconstructs a [`serde::Deserialize`] type from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Serializes to compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.as_value(), None, 0);
    Ok(out)
}

/// Serializes to human-editable JSON (two-space indentation).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.as_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any [`serde::Deserialize`] type.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    T::from_value(&parse(text)?)
}

/// Parses JSON text into a raw [`Value`] tree.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => num::write_i64(out, *i),
        Value::UInt(u) => num::write_u64(out, *u),
        Value::Float(f) => num::write_f64(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline(out, indent, level);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, level + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline(out, indent, level);
            out.push('}');
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * level));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so the runs between them
    // are whole UTF-8 and are copied as they are.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                // `write!` into a `String` cannot fail.
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

/// Maximum container nesting the parser accepts (matches the real
/// serde_json's default recursion limit); deeper input is a parse error
/// rather than a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|()| Value::Null),
            Some(b't') => self.eat_keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(&format!("unexpected byte `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn seq(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain UTF-8 up to the next quote, escape
            // or control character.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs are not needed by any spec
                            // file; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u escape"))?;
                            s.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The four hex digits of a `\u` escape, and no sign or other byte.
    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.err("expected four hex digits in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, read as an
    /// integer when it has neither a fraction nor an exponent and fits in
    /// 64 bits, else as a finite float.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zero in number"));
            }
        } else {
            self.digits()?;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
            is_float = true;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
            is_float = true;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number characters");
        if !is_float {
            // The sign is parsed with the digits: `i64::MIN` has no
            // positive counterpart to negate.
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        // JSON has no NaN/Infinity tokens, and an overflowing literal
        // like `1e999` must not silently become f64::INFINITY either —
        // reject any non-finite result, matching the real serde_json.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            Ok(_) => Err(Error::custom(format!(
                "number `{text}` at byte {start} is out of the finite f64 range"
            ))),
            Err(_) => Err(Error::custom(format!(
                "invalid number `{text}` at byte {start}"
            ))),
        }
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), Error> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::Rng;

    #[test]
    fn primitives_roundtrip_through_text() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::UInt(u64::MAX),
            Value::Float(0.1),
            Value::Float(2.0),
            Value::Str("he\"llo\n".into()),
        ] {
            let text = to_string(&v).unwrap();
            assert_eq!(parse(&text).unwrap(), v, "text was {text}");
        }
    }

    #[test]
    fn nested_structure_roundtrips_pretty_and_compact() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("fig04".into())),
            (
                "seeds".into(),
                Value::Seq(vec![Value::UInt(1), Value::UInt(2)]),
            ),
            ("nested".into(), Value::Map(vec![("x".into(), Value::Null)])),
            ("empty".into(), Value::Seq(vec![])),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(parse(&text).unwrap(), v, "text was {text}");
        }
    }

    #[test]
    fn serialize_parse_serialize_is_a_fixed_point() {
        let v = Value::Map(vec![
            ("f".into(), Value::Float(0.30000000000000004)),
            ("g".into(), Value::Float(1e300)),
        ]);
        let a = to_string_pretty(&v).unwrap();
        let b = to_string_pretty(&parse(&a).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "--5",
            "-+5",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Outside RFC 8259's grammar: leading zeros, empty fractions and
        // exponents, a signed or short `\u` escape, raw control characters.
        for bad in [
            "01",
            "-01",
            "00",
            "[01]",
            "1.",
            "-.5",
            "1.e5",
            "1e",
            "1e+",
            "-",
            "\"\\u+041\"",
            "\"\\u04\"",
            "\"\u{1}\"",
            "\"\t\"",
            "\"a\nb\"",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.to_string().contains("at byte"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn each_valid_number_parses_to_its_value() {
        for (text, value) in [
            ("0", Value::UInt(0)),
            ("-0", Value::Int(0)),
            ("-0.0", Value::Float(-0.0)),
            ("-0e0", Value::Float(-0.0)),
            ("10", Value::UInt(10)),
            ("-12", Value::Int(-12)),
            ("0.5", Value::Float(0.5)),
            ("1E5", Value::Float(1e5)),
            ("1e+5", Value::Float(1e5)),
            ("2.5e-3", Value::Float(2.5e-3)),
            // Past 64 bits an integer falls back to a float.
            ("18446744073709551616", Value::Float(18446744073709551616.0)),
            ("-9223372036854775809", Value::Float(-9223372036854775809.0)),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
        }
        let err = parse("1E400").unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.to_string().contains("recursion"), "{err}");
        // Nesting inside the limit still parses.
        let ok = format!("{}{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn nan_and_infinity_are_rejected_on_parse() {
        // Bare non-finite tokens are not JSON...
        for bad in ["NaN", "nan", "Infinity", "-Infinity", "inf", "-inf"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // ...and literals that overflow f64 must not sneak in as ±Inf.
        for bad in ["1e999", "-1e999", "1e400000"] {
            let err = parse(bad).unwrap_err();
            assert!(err.to_string().contains("finite"), "{bad}: {err}");
        }
        // The largest finite magnitudes still parse.
        assert_eq!(
            parse("1.7976931348623157e308").unwrap(),
            Value::Float(f64::MAX)
        );
        assert_eq!(
            parse("-1.7976931348623157e308").unwrap(),
            Value::Float(f64::MIN)
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        // The writer has no non-finite representation either; it mirrors
        // the real serde_json's `null`.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_string(&Value::Float(v)).unwrap(), "null");
        }
    }

    #[test]
    fn shortest_round_trip_floats_reparse_to_identical_bits() {
        for f in [
            0.1,
            1.0 / 3.0,
            0.30000000000000004,
            -2.5e-10,
            1e300,
            -1e-300,
            f64::MIN_POSITIVE,       // smallest normal
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::MAX,
            -0.0,
            0.0,
            123456789.12345679,
            2.0f64.powi(-53),
        ] {
            let text = to_string(&Value::Float(f)).unwrap();
            match parse(&text).unwrap() {
                Value::Float(g) => assert_eq!(
                    g.to_bits(),
                    f.to_bits(),
                    "{f:e} -> {text} -> {g:e} lost bits"
                ),
                // -0.0 and 0.0 print as "-0.0"/"0.0": still floats.
                other => panic!("{text} reparsed as {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_keys_are_preserved_in_order_and_get_returns_the_first() {
        // Pin the shim's duplicate-key semantics: the parser keeps every
        // entry in input order (no last-wins overwrite), `get` resolves
        // to the first occurrence, and struct deserialization therefore
        // reads the first value too.
        let v = parse("{\"a\":1,\"b\":2,\"a\":3}").unwrap();
        match &v {
            Value::Map(entries) => {
                assert_eq!(entries.len(), 3, "duplicates must not collapse");
                assert_eq!(entries[0], ("a".into(), Value::UInt(1)));
                assert_eq!(entries[2], ("a".into(), Value::UInt(3)));
            }
            other => panic!("expected a map, got {other:?}"),
        }
        assert_eq!(v.get("a"), Some(&Value::UInt(1)), "get takes the first");
        let x: u64 = from_value(v.get("a").unwrap()).unwrap();
        assert_eq!(x, 1);
    }

    #[test]
    fn depth_limit_applies_to_maps_and_mixed_nesting() {
        // Arrays-only rejection is covered above; maps and alternating
        // container kinds must hit the same recursion limit.
        let deep_maps = "{\"k\":".repeat(200) + "1" + &"}".repeat(200);
        let err = parse(&deep_maps).unwrap_err();
        assert!(err.to_string().contains("recursion"), "{err}");
        let mixed = "[{\"k\":".repeat(100) + "1" + &"}]".repeat(100);
        let err = parse(&mixed).unwrap_err();
        assert!(err.to_string().contains("recursion"), "{err}");
        // Within the limit both parse fine.
        let ok_maps = "{\"k\":".repeat(60) + "1" + &"}".repeat(60);
        assert!(parse(&ok_maps).is_ok());
    }

    #[test]
    fn integers_keep_64_bit_precision() {
        let text = format!("{}", u64::MAX);
        assert_eq!(parse(&text).unwrap(), Value::UInt(u64::MAX));
        assert_eq!(
            parse("-9007199254740993").unwrap(),
            Value::Int(-9007199254740993)
        );
        // The one i64 whose magnitude overflows i64.
        let text = to_string(&i64::MIN).unwrap();
        assert_eq!(text, "-9223372036854775808");
        assert_eq!(parse(&text).unwrap(), Value::Int(i64::MIN));
        assert_eq!(from_str::<i64>(&text).unwrap(), i64::MIN);
    }

    /// The writer before it wrote in place — every number through a
    /// temporary `String`, every string char by char — kept verbatim as
    /// the reference the current writer must match byte for byte.
    mod reference {
        use super::Value;

        pub fn to_string(value: &Value, indent: Option<usize>) -> String {
            let mut out = String::new();
            write_value(&mut out, value, indent, 0);
            out
        }

        fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
            match value {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Int(i) => out.push_str(&i.to_string()),
                Value::UInt(u) => out.push_str(&u.to_string()),
                Value::Float(f) => {
                    if f.is_finite() {
                        out.push_str(&format!("{f:?}"));
                    } else {
                        out.push_str("null");
                    }
                }
                Value::Str(s) => write_string(out, s),
                Value::Seq(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline(out, indent, level + 1);
                        write_value(out, item, indent, level + 1);
                    }
                    newline(out, indent, level);
                    out.push(']');
                }
                Value::Map(entries) => {
                    if entries.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push('{');
                    for (i, (key, item)) in entries.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline(out, indent, level + 1);
                        write_string(out, key);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        write_value(out, item, indent, level + 1);
                    }
                    newline(out, indent, level);
                    out.push('}');
                }
            }
        }

        fn newline(out: &mut String, indent: Option<usize>, level: usize) {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat(' ').take(width * level));
            }
        }

        fn write_string(out: &mut String, s: &str) {
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
    }

    /// Random [`Value`] trees, up to four containers deep, whose leaves
    /// are drawn half from the writer's edge cases and half at random.
    struct Trees;

    impl proptest::Strategy for Trees {
        type Value = Value;

        fn pick(&self, rng: &mut SmallRng) -> Value {
            tree(rng, 0)
        }
    }

    fn tree(rng: &mut SmallRng, depth: usize) -> Value {
        let kinds = if depth < 4 { 8 } else { 6 };
        match rng.gen_range(0..kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Int(edge_or(rng, &[i64::MIN, i64::MAX, -1, 0], |r| {
                r.gen::<u64>() as i64
            })),
            3 => Value::UInt(edge_or(rng, &[0, 1, u64::MAX], |r| r.gen::<u64>())),
            4 => Value::Float(edge_or(
                rng,
                &[
                    0.0,
                    -0.0,
                    f64::MIN_POSITIVE,
                    f64::MIN_POSITIVE / 4.0,
                    -f64::from_bits(1),
                    f64::MAX,
                    f64::MIN,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    1e16,
                    1e-7,
                ],
                |r| f64::from_bits(r.gen::<u64>()),
            )),
            5 => Value::Str(text(rng)),
            6 => Value::Seq(
                (0..rng.gen_range(0..4))
                    .map(|_| tree(rng, depth + 1))
                    .collect(),
            ),
            _ => Value::Map(
                (0..rng.gen_range(0..4))
                    .map(|_| (text(rng), tree(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    fn edge_or<T: Copy>(
        rng: &mut SmallRng,
        edges: &[T],
        random: impl FnOnce(&mut SmallRng) -> T,
    ) -> T {
        if rng.gen_bool(0.5) {
            edges[rng.gen_range(0..edges.len())]
        } else {
            random(rng)
        }
    }

    /// Up to eight chars mixing plain ASCII with quotes, backslashes,
    /// every kind of control character, DEL and multi-byte UTF-8.
    fn text(rng: &mut SmallRng) -> String {
        const CHARS: [char; 19] = [
            'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}',
            '\u{1f}', '\u{7f}', 'é', '€', '\u{2028}', '😀',
        ];
        (0..rng.gen_range(0..8))
            .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn writer_is_byte_identical_to_the_reference(value in Trees) {
            prop_assert_eq!(to_string(&value).unwrap(), reference::to_string(&value, None));
            prop_assert_eq!(
                to_string_pretty(&value).unwrap(),
                reference::to_string(&value, Some(2))
            );
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Value::Str("é".into()));
    }
}
