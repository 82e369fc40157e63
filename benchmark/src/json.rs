//! A JSON value the harness can write. Reading goes through the strict
//! parser the repo already has, `mcs::prof::JsonValue`.

use mcs::prof::value::escape_json;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members keep insertion order, so output is stable run to run.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// One line, no spaces after separators.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented, one member per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&number(*n)),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
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
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    out.push('"');
                    out.push_str(&escape_json(k));
                    out.push_str(if indent.is_some() { "\": " } else { "\":" });
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

/// A JSON number with every digit the measurement has. JSON has no NaN or
/// infinity; a probe that produced one is reported as null.
fn number(n: f64) -> String {
    if !n.is_finite() {
        "null".to_string()
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs::prof::JsonValue;

    #[test]
    fn compact_output_round_trips_through_the_repo_parser() {
        let j = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(12.0)),
            ("name", Json::str("a \"quoted\" name")),
            (
                "metrics",
                Json::obj([("setup_s", Json::obj([("value", Json::Num(0.812_734_5))]))]),
            ),
            ("list", Json::Arr(vec![Json::Num(1.5), Json::Null])),
        ]);
        for text in [j.compact(), j.pretty()] {
            let v = JsonValue::parse(&text).expect("valid json");
            assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(12));
            assert_eq!(
                v.get("name").and_then(JsonValue::as_str),
                Some("a \"quoted\" name")
            );
            let setup = v.get("metrics").and_then(|m| m.get("setup_s"));
            assert_eq!(
                setup
                    .and_then(|s| s.get("value"))
                    .and_then(JsonValue::as_f64),
                Some(0.812_734_5)
            );
        }
        assert!(!j.compact().contains('\n'));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Num(3.0).compact(), "3");
        assert_eq!(Json::Num(0.25).compact(), "0.25");
    }
}
