//! A JSON emitter: the benchmark only writes JSON, it never reads it.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Indented encoding for files people read: one element per line,
    /// except that objects and arrays holding only scalars stay inline.
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
        match self {
            Json::Arr(items) if !items.iter().all(Json::is_scalar) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.iter().all(|(_, v)| v.is_scalar()) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    write_string(key, out);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
            flat => flat.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // JSON has no NaN or infinity; a non-finite measurement is
            // written as null so the file still parses.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // `{:?}` is the shortest text that reads back to the same
            // f64, and always carries a `.` or an exponent.
            Json::Num(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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
    use std::io::Write as _;
    use std::process::{Command, Stdio};

    fn sample() -> Json {
        Json::obj([
            ("plain", Json::str("site_worst_case")),
            (
                "escapes",
                Json::str("quote \" slash \\ nl \n tab \t bell \u{7} µs"),
            ),
            ("int", Json::Int(-3)),
            ("num", Json::Num(1.5e-7)),
            ("whole", Json::Num(2.0)),
            ("nan", Json::Num(f64::NAN)),
            ("list", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ])
    }

    #[test]
    fn escapes_every_control_character() {
        let text = sample().encode();
        assert!(text.contains(r#"quote \" slash \\ nl \n tab \t bell \u0007 µs"#));
        assert!(text.contains(r#""num": 1.5e-7"#));
        assert!(text.contains(r#""whole": 2.0"#));
        assert!(text.contains(r#""nan": null"#));
        assert!(!text.contains('\n'));
    }

    #[test]
    fn pretty_keeps_scalar_containers_inline() {
        let j = Json::obj([
            (
                "command",
                Json::Arr(vec![Json::str("cargo"), Json::str("run")]),
            ),
            (
                "rows",
                Json::Arr(vec![Json::obj([("name", Json::str("a"))])]),
            ),
        ]);
        assert_eq!(
            j.encode_pretty(),
            "{\n  \"command\": [\"cargo\", \"run\"],\n  \"rows\": [\n    {\"name\": \"a\"}\n  ]\n}\n"
        );
    }

    /// `python3 -m json.tool` is the reader the result files are meant
    /// for. The test is skipped where there is no python3.
    #[test]
    fn python_json_tool_accepts_the_output() {
        let Ok(mut child) = Command::new("python3")
            .args(["-m", "json.tool"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
        else {
            eprintln!("python3 not found; skipping");
            return;
        };
        child
            .stdin
            .take()
            .expect("stdin was piped")
            .write_all(sample().encode().as_bytes())
            .expect("write to python3");
        let out = child.wait_with_output().expect("wait for python3");
        assert!(
            out.status.success(),
            "json.tool rejected the output: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let pretty = String::from_utf8_lossy(&out.stdout);
        assert!(pretty.contains("\\u0007"), "{pretty}");
    }
}
