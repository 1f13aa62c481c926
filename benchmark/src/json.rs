//! A JSON value and its writer, for the result line and the result files.
//! (The workspace's serde shim derives nothing.) Reading goes through the
//! repository's one parser, `scope_analyze::json::parse`.

use scope_analyze::json::escape;
use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Key order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// One line, no spaces.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented, one key or element per line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat(' ').take(width * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust prints the shortest digits that read back to the same
            // f64, so every measured digit survives; JSON has no NaN/inf.
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
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
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_analyze::json::{parse, Value as Parsed};

    /// What the repository's parser must read back from `v`'s text.
    fn parsed(v: &Value) -> Parsed {
        match v {
            Value::Null => Parsed::Null,
            Value::Bool(b) => Parsed::Bool(*b),
            Value::Num(n) => Parsed::Number(*n),
            Value::Str(s) => Parsed::String(s.clone()),
            Value::Arr(items) => Parsed::Array(items.iter().map(parsed).collect()),
            Value::Obj(pairs) => {
                Parsed::Object(pairs.iter().map(|(k, v)| (k.clone(), parsed(v))).collect())
            }
        }
    }

    fn sample() -> Value {
        Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(1000.0)),
            ("ratio", Value::Num(0.1 + 0.2)),
            ("tiny", Value::Num(1.5e-9)),
            ("neg", Value::Num(-3.25)),
            (
                "note",
                Value::Str("a \"quoted\" \\ line\nwith\ttabs \u{1} é".into()),
            ),
            ("none", Value::Null),
            (
                "list",
                Value::Arr(vec![
                    Value::Num(1.0),
                    Value::Arr(vec![]),
                    Value::obj::<&str>([]),
                ]),
            ),
        ])
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let v = sample();
        assert_eq!(parse(&v.to_compact()).unwrap(), parsed(&v));
        assert_eq!(parse(&v.to_pretty()).unwrap(), parsed(&v));
        assert!(!v.to_compact().contains('\n'));
        // Key order is the writer's own.
        let text = v.to_compact();
        assert!(text.find("\"correct\"").unwrap() < text.find("\"attempted\"").unwrap());
    }

    #[test]
    fn numbers_keep_every_digit_and_integers_stay_whole() {
        let text = Value::Arr(vec![Value::Num(1000.0), Value::Num(0.1 + 0.2)]).to_compact();
        assert_eq!(text, "[1000,0.30000000000000004]");
        assert_eq!(Value::Num(f64::NAN).to_compact(), "null");
    }
}
