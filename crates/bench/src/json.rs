//! A minimal JSON value builder/emitter.
//!
//! Reports are machine-readable JSON; `serde_json` is not on the
//! workspace's approved dependency list, and the needs here (emit only,
//! numbers/strings/arrays/objects) are small enough to hand-roll.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Finite number (NaN/inf serialize as `null`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts a field into an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value.into());
            }
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// JSON path (`$.rows[3].latency_s`) of the innermost value holding
    /// byte `offset` of `self.to_string()` — how `runall --check` names
    /// where a committed report and a fresh run part ways.
    pub fn path_at(&self, offset: usize) -> String {
        format!("${}", self.steps_to(offset))
    }

    fn steps_to(&self, offset: usize) -> String {
        // Children as (path step, bytes of the quoted key and its colon, value).
        let key_len = |k: &str| Json::from(k).to_string().len() + 1;
        let children: Vec<(String, usize, &Json)> = match self {
            Json::Arr(items) => (items.iter().enumerate())
                .map(|(i, v)| (format!("[{i}]"), 0, v))
                .collect(),
            Json::Obj(map) => (map.iter())
                .map(|(k, v)| (format!(".{k}"), key_len(k), v))
                .collect(),
            _ => Vec::new(),
        };
        let mut start = 1; // past `[` or `{`; one `,` follows every child
        for (step, key, value) in children {
            let end = start + key + value.to_string().len();
            if (1..end).contains(&offset) {
                // A byte of the key or the separator before it names the child.
                return step + &value.steps_to(offset.saturating_sub(start + key));
            }
            start = end + 1;
        }
        String::new()
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
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
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes to a compact JSON string (`to_string()` comes via `Display`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_nested_structures() {
        let j = Json::obj()
            .set("name", "fig8")
            .set("qps", 1234.5)
            .set("points", vec![1.0, 2.0])
            .set("ok", true);
        assert_eq!(
            j.to_string(),
            r#"{"name":"fig8","ok":true,"points":[1,2],"qps":1234.5}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd".into());
        assert_eq!(j.to_string(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn integers_have_no_fraction() {
        assert_eq!(Json::Num(1e6).to_string(), "1000000");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn path_at_names_the_value_holding_a_byte() {
        let j = Json::obj().set("a", 1.5).set(
            "rows",
            Json::Arr(vec![
                Json::obj().set("x", 10u64),
                Json::obj().set("x", 27u64),
            ]),
        );
        let text = j.to_string();
        assert_eq!(text, r#"{"a":1.5,"rows":[{"x":10},{"x":27}]}"#);
        assert_eq!(j.path_at(text.find("1.5").unwrap() + 2), "$.a");
        assert_eq!(j.path_at(text.find("27").unwrap()), "$.rows[1].x");
        assert_eq!(j.path_at(text.find("\"rows").unwrap()), "$.rows");
        assert_eq!(j.path_at(text.len() - 1), "$");
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn set_on_array_panics() {
        let _ = Json::Arr(vec![]).set("x", 1u64);
    }
}
