//! A JSON writer just big enough for the result line and the baseline
//! file. (Reading is provscope's `parse_json`, which the tests use to
//! check what this writes.)

use std::fmt::Write as _;

pub enum Json {
    Bool(bool),
    Int(u64),
    /// Rendered with every digit `f64` round-trips through; a
    /// non-finite value (which no metric should produce) becomes `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// One line, no spaces after separators except for readability of
    /// `: ` and `, `.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented by two spaces per level.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline(out, depth + 1);
                    Json::Str(k.clone()).write(out, indent, depth + 1);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                if !members.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provscope::{parse_json, JsonValue};

    #[test]
    fn output_parses_back_with_provscope() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1234)),
            ("name", Json::str("a \"quoted\"\nline\\")),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([
                        ("value", Json::Num(1.2034567891234567)),
                        ("unit", Json::str("ms")),
                    ]),
                )]),
            ),
            (
                "list",
                Json::Arr(vec![Json::Num(1e-7), Json::Num(3e21), Json::Num(f64::NAN)]),
            ),
            ("empty", Json::Arr(Vec::new())),
        ]);
        for text in [doc.line(), doc.pretty()] {
            let v = parse_json(&text).expect("the writer's output is JSON");
            assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
            assert_eq!(v.get("attempted").and_then(JsonValue::as_f64), Some(1234.0));
            assert_eq!(
                v.get("name").and_then(JsonValue::as_str),
                Some("a \"quoted\"\nline\\")
            );
            let value = v
                .get("metrics")
                .and_then(|m| m.get("latency_ms"))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64);
            assert_eq!(value, Some(1.2034567891234567), "every digit survives");
            let list = v.get("list").and_then(JsonValue::as_arr).unwrap();
            assert_eq!(list[0].as_f64(), Some(1e-7));
            assert_eq!(list[1].as_f64(), Some(3e21));
            assert_eq!(list[2], JsonValue::Null);
        }
        assert!(!doc.line().contains('\n'));
    }
}
