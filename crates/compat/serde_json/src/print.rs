//! Deterministic JSON text output.

use serde::{Number, Value};
use std::fmt::Write as _;

/// Compact one-line JSON.
pub fn write_compact(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    out
}

/// Pretty JSON with 2-space indentation.
pub fn write_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

// Numbers and escapes are formatted straight into `out` (writing to a
// `String` cannot fail), never through a temporary string.
fn write_number(out: &mut String, n: &Number) {
    let _ = match *n {
        Number::Int(v) => write!(out, "{v}"),
        Number::UInt(v) => write!(out, "{v}"),
        // Rust's Display for f64 is shortest-round-trip, so output is
        // deterministic and reparses to the same value. Keep a `.0` marker
        // for integral floats so the text stays a float.
        Number::Float(v) if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 => {
            write!(out, "{v:.1}")
        }
        Number::Float(v) if v.is_finite() => write!(out, "{v}"),
        Number::Float(_) => write!(out, "null"),
    };
}

/// Writes `s` quoted, copying each run between escapes in one step: every
/// character that needs an escape is ASCII, so runs end on char boundaries.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let short = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0x00..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}
