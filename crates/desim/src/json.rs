//! A minimal JSON value + serializer.
//!
//! The workspace builds fully offline (no serde), but metrics tables
//! (`serve-sim --json`, `shard-sim --json`) must be machine-readable so
//! bench trajectories can be tracked across PRs. This module is the one
//! shared emitter: a tree of [`Json`] values rendered with correct string
//! escaping and non-finite-float handling. It is an *emitter only* — no
//! parser, because nothing in the flow consumes JSON.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integers render without a decimal point (u64 counters dominate
    /// the metrics, and `1e19`-style rendering would lose precision).
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object (stable output for diffing across runs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Start an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Add a field to an object; panics when `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

fn escape(s: &str, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(out, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(out, "\\\"")?,
            '\\' => write!(out, "\\\\")?,
            '\n' => write!(out, "\\n")?,
            '\r' => write!(out, "\\r")?,
            '\t' => write!(out, "\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    write!(out, "\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // JSON has no NaN/Inf literals; null is the usual stand-in.
            Json::Num(n) if !n.is_finite() => write!(f, "null"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => escape(s, f),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    escape(k, f)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_keep_insertion_order() {
        let j = Json::obj()
            .field("b", 1u64)
            .field("a", 2u64)
            .field("ok", true);
        assert_eq!(j.to_string(), r#"{"b":1,"a":2,"ok":true}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::obj().field("k", "a\"b\\c\nd");
        assert_eq!(j.to_string(), r#"{"k":"a\"b\\c\nd"}"#);
    }

    #[test]
    fn integers_render_exactly() {
        let j = Json::from(u64::MAX);
        assert_eq!(j.to_string(), u64::MAX.to_string());
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(0.25).to_string(), "0.25");
    }

    #[test]
    fn arrays_nest() {
        let j = Json::from(vec![1u64, 2, 3]);
        assert_eq!(j.to_string(), "[1,2,3]");
        let nested = Json::Arr(vec![Json::obj().field("x", 1u64), Json::Null]);
        assert_eq!(nested.to_string(), r#"[{"x":1},null]"#);
    }
}
