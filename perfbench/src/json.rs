//! A minimal JSON value with a writer: enough for the result line, the
//! provenance and the fingerprint (the workspace is offline, no serde).

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, written exactly.
    Int(u64),
    /// A float, written with every digit of its shortest round-trip
    /// form. Non-finite values have no JSON spelling and are written as
    /// `null`; the result line refuses them before it gets here.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    #[must_use]
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A 64-bit pattern as a fixed-width hex string (digests, f64 bits):
    /// exact, and immune to float formatting.
    #[must_use]
    pub fn hex(bits: u64) -> Json {
        Json::Str(format!("{bits:016x}"))
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_valid_json() {
        let v = Json::obj([
            ("pr", Json::str("cur")),
            ("x", Json::Num(1.5)),
            ("whole", Json::Num(3.0)),
            ("tiny", Json::Num(1e-9)),
            ("n", Json::Int(7)),
            ("esc", Json::str("a\"b\\c\nd")),
            ("list", Json::Arr(vec![Json::Bool(true), Json::hex(255)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"pr": "cur", "x": 1.5, "whole": 3.0, "tiny": 1e-9, "n": 7, "esc": "a\"b\\c\nd", "list": [true, "00000000000000ff"]}"#
        );
    }
}
