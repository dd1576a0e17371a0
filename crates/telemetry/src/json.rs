//! A minimal JSON document builder.
//!
//! The build environment is offline, so the workspace carries no JSON
//! dependency; `hps-telemetry/v1` snapshots and the auditor's reports
//! (plain JSON, SARIF, effects and plans — re-exported as
//! `hps_audit::Json`) are built from this hand-rolled value type instead.
//! Output is deterministic: object keys keep insertion order and the
//! writer emits a stable two-space-indented layout, so golden files diff
//! byte-for-byte.

use std::fmt::Write;

/// A JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A signed number (counts and positions).
    Int(i64),
    /// An unsigned number (counters, cost units, bucket bounds).
    Uint(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds a field to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Uint(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Uint(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i64::from(v))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::str(s)
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let doc = Json::object()
            .field("schema", "hps-telemetry/v1")
            .field("count", 2u64)
            .field("big", u64::MAX)
            .field("position", 3usize)
            .field("delta", -4i64)
            .field("ok", true)
            .field("items", vec![Json::Uint(1), Json::Int(1), Json::str("two")])
            .field("empty", Json::Array(Vec::new()))
            .field("nothing", Json::Null);
        assert_eq!(
            doc.pretty(),
            "{\n  \"schema\": \"hps-telemetry/v1\",\n  \"count\": 2,\n  \
             \"big\": 18446744073709551615,\n  \"position\": 3,\n  \
             \"delta\": -4,\n  \"ok\": true,\n  \
             \"items\": [\n    1,\n    1,\n    \"two\"\n  ],\n  \"empty\": [],\n  \
             \"nothing\": null\n}\n"
        );
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(doc.pretty(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n");
    }

    #[test]
    fn output_is_deterministic() {
        let build = || {
            Json::object()
                .field("z", 1usize)
                .field("a", 2usize)
                .pretty()
        };
        assert_eq!(build(), build());
        // Insertion order is preserved, not sorted.
        assert!(build().find("\"z\"").unwrap() < build().find("\"a\"").unwrap());
    }
}
