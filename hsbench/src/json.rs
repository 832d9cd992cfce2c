//! A one-line JSON writer for the benchmark's output.

use std::fmt::{self, Write};

/// A JSON value; object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A boolean.
    Bool(bool),
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            // `{}` on f64 prints the shortest representation that reads
            // back to the same value: every digit as measured.
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
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
    fn renders_one_line_that_parses_back() {
        let v = Json::obj([
            ("a", Json::Num(1.25)),
            ("b", Json::Str("q\"\\\n".into())),
            ("c", Json::Arr(vec![Json::Bool(true), Json::Num(f64::NAN)])),
        ]);
        let text = v.to_string();
        assert!(!text.contains('\n'));
        let back = hs_telemetry::schema::parse(&text).expect("valid JSON");
        let obj = back.as_obj().expect("object");
        assert_eq!(obj["a"].as_num(), Some(1.25));
        assert_eq!(obj["b"].as_str(), Some("q\"\\\n"));
    }
}
