//! A minimal TOML parser producing `serde::Value` trees.
//!
//! The build environment has no crates.io access, so the subset of TOML that
//! campaign specs need is implemented here:
//!
//! * `key = value` pairs with bare keys;
//! * basic strings (`"…"` with the standard escapes), integers, floats,
//!   booleans;
//! * arrays (`[1, 2, 3]`, multi-line allowed, trailing comma allowed);
//! * inline tables (`{ sides = [8, 8], concentration = 8 }`);
//! * table headers (`[section]`, dotted `[a.b]`) and arrays of tables
//!   (`[[topologies]]`);
//! * `#` comments and blank lines.
//!
//! Not supported (clear error instead): literal/multi-line strings, dates,
//! dotted keys in assignments.
//!
//! Arrays and inline tables nest at most `MAX_DEPTH` (128) levels deep, so a
//! hostile spec gets an error instead of overflowing the stack.

use serde::{Number, Value};

/// Deepest nesting of arrays and inline tables a document may use (the
/// limit `serde_json` applies to JSON).
const MAX_DEPTH: usize = 128;

/// Parses a TOML document into an object [`Value`].
pub fn parse(input: &str) -> Result<Value, String> {
    let mut parser = Parser {
        chars: input.chars().collect(),
        pos: 0,
        depth: 0,
    };
    let mut root = Vec::new();
    // Path of the table currently being filled; empty = root.
    let mut current_path: Vec<String> = Vec::new();
    loop {
        parser.skip_trivia();
        if parser.at_end() {
            break;
        }
        if parser.peek() == Some('[') {
            if parser.peek_at(1) == Some('[') {
                // [[array.of.tables]]
                parser.pos += 2;
                let path = parser.header_path()?;
                parser.expect(']')?;
                parser.expect(']')?;
                parser.end_of_line()?;
                push_array_table(&mut root, &path)?;
                current_path = path;
            } else {
                parser.pos += 1;
                let path = parser.header_path()?;
                parser.expect(']')?;
                parser.end_of_line()?;
                ensure_table(&mut root, &path)?;
                current_path = path;
            }
        } else {
            let key = parser.bare_key()?;
            parser.skip_spaces();
            parser.expect('=')?;
            parser.skip_spaces();
            let value = parser.value()?;
            parser.end_of_line()?;
            insert_value(&mut root, &current_path, key, value)?;
        }
    }
    Ok(Value::Object(root))
}

type Object = Vec<(String, Value)>;

/// Walks to the object at `path`, creating intermediate tables. For a path
/// ending in an array-of-tables, targets its **last** element.
fn navigate<'a>(root: &'a mut Object, path: &[String]) -> Result<&'a mut Object, String> {
    let mut current = root;
    for segment in path {
        let idx = match current.iter().position(|(k, _)| k == segment) {
            Some(i) => i,
            None => {
                current.push((segment.clone(), Value::Object(Vec::new())));
                current.len() - 1
            }
        };
        let slot = &mut current[idx].1;
        current = match slot {
            Value::Object(entries) => entries,
            Value::Array(items) => match items.last_mut() {
                Some(Value::Object(entries)) => entries,
                _ => return Err(format!("`{segment}` is not a table")),
            },
            _ => return Err(format!("`{segment}` is not a table")),
        };
    }
    Ok(current)
}

fn ensure_table(root: &mut Object, path: &[String]) -> Result<(), String> {
    navigate(root, path).map(|_| ())
}

fn push_array_table(root: &mut Object, path: &[String]) -> Result<(), String> {
    let (last, parents) = path.split_last().expect("header path is non-empty");
    let parent = navigate(root, parents)?;
    match parent.iter_mut().find(|(k, _)| k == last) {
        Some((_, Value::Array(items))) => {
            items.push(Value::Object(Vec::new()));
        }
        Some((_, _)) => return Err(format!("`{last}` is already a non-array value")),
        None => {
            parent.push((last.clone(), Value::Array(vec![Value::Object(Vec::new())])));
        }
    }
    Ok(())
}

fn insert_value(
    root: &mut Object,
    table_path: &[String],
    key: String,
    value: Value,
) -> Result<(), String> {
    let table = navigate(root, table_path)?;
    if table.iter().any(|(k, _)| *k == key) {
        return Err(format!("duplicate key `{key}`"));
    }
    table.push((key, value));
    Ok(())
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    /// Arrays and inline tables currently open.
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<char> {
        self.chars.get(self.pos + offset).copied()
    }

    fn error(&self, message: &str) -> String {
        let line = self.chars[..self.pos.min(self.chars.len())]
            .iter()
            .filter(|&&c| c == '\n')
            .count()
            + 1;
        format!("{message} (line {line})")
    }

    /// Skips spaces, newlines and comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(' ' | '\t' | '\r' | '\n') => self.pos += 1,
                Some('#') => {
                    while !matches!(self.peek(), None | Some('\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    /// Skips spaces and tabs only.
    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{c}`")))
        }
    }

    /// Requires a comment/newline/EOF after a completed construct.
    fn end_of_line(&mut self) -> Result<(), String> {
        self.skip_spaces();
        match self.peek() {
            None | Some('\n') => Ok(()),
            Some('\r') if self.peek_at(1) == Some('\n') => Ok(()),
            Some('#') => {
                while !matches!(self.peek(), None | Some('\n')) {
                    self.pos += 1;
                }
                Ok(())
            }
            Some(other) => Err(self.error(&format!("unexpected `{other}` after value"))),
        }
    }

    fn bare_key(&mut self) -> Result<String, String> {
        if self.peek() == Some('"') {
            return self.basic_string();
        }
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-') {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a key"));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    fn header_path(&mut self) -> Result<Vec<String>, String> {
        let mut path = Vec::new();
        loop {
            self.skip_spaces();
            path.push(self.bare_key()?);
            self.skip_spaces();
            if self.peek() == Some('.') {
                self.pos += 1;
            } else {
                return Ok(path);
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some('"') => self.basic_string().map(Value::String),
            Some('[') => self.nested(Self::array),
            Some('{') => self.nested(Self::inline_table),
            Some('t') | Some('f') => self.boolean(),
            Some(c) if c == '-' || c == '+' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a TOML value")),
        }
    }

    /// Parses one array or inline table, refusing to open more than
    /// `MAX_DEPTH` of them.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!(
                "arrays and inline tables nest deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn boolean(&mut self) -> Result<Value, String> {
        for (word, value) in [("true", true), ("false", false)] {
            if self.chars[self.pos..]
                .iter()
                .take(word.len())
                .collect::<String>()
                == word
            {
                self.pos += word.len();
                return Ok(Value::Bool(value));
            }
        }
        Err(self.error("invalid boolean"))
    }

    fn basic_string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some('\n') => return Err(self.error("unterminated string")),
                Some('"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some('"') => '"',
                        Some('\\') => '\\',
                        Some('n') => '\n',
                        Some('t') => '\t',
                        Some('r') => '\r',
                        Some('u') | Some('U') => {
                            let digits = if self.peek() == Some('u') { 4 } else { 8 };
                            self.pos += 1;
                            if self.pos + digits > self.chars.len() {
                                return Err(self.error("truncated unicode escape"));
                            }
                            let hex: String =
                                self.chars[self.pos..self.pos + digits].iter().collect();
                            self.pos += digits - 1; // final +1 below
                            let cp = u32::from_str_radix(&hex, 16)
                                .map_err(|_| self.error("invalid unicode escape"))?;
                            char::from_u32(cp).ok_or_else(|| self.error("invalid code point"))?
                        }
                        _ => return Err(self.error("invalid escape")),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if matches!(self.peek(), Some('+' | '-')) {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' | '_' => self.pos += 1,
                '.' | 'e' | 'E' => {
                    is_float = true;
                    self.pos += 1;
                    if matches!(self.peek(), Some('+' | '-')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let text: String = self.chars[start..self.pos]
            .iter()
            .filter(|&&c| c != '_')
            .collect();
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::UInt(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::Int(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::Float(f)))
            .map_err(|_| self.error(&format!("invalid number `{text}`")))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek() == Some(']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            items.push(self.value()?);
            self.skip_trivia();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some(']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn inline_table(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut entries: Object = Vec::new();
        loop {
            self.skip_spaces();
            if self.peek() == Some('}') {
                self.pos += 1;
                return Ok(Value::Object(entries));
            }
            let key = self.bare_key()?;
            self.skip_spaces();
            self.expect('=')?;
            self.skip_spaces();
            let value = self.value()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.error(&format!("duplicate key `{key}` in inline table")));
            }
            entries.push((key, value));
            self.skip_spaces();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some('}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.error("expected `,` or `}` in inline table")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_tables() {
        let doc = r#"
            # a campaign
            name = "quick"
            loads = [0.1, 0.2, 0.3]
            seeds = [1, 2]  # trailing comment
            enabled = true
            offset = -4

            [sim]
            warmup = 1_000
            measure = 2000

            [[topologies]]
            sides = [8, 8]
            concentration = 8

            [[topologies]]
            sides = [4, 4, 4]
        "#;
        let v = parse(doc).unwrap();
        assert_eq!(v["name"].as_str(), Some("quick"));
        assert_eq!(v["loads"].as_array().unwrap().len(), 3);
        assert_eq!(v["loads"][1].as_f64(), Some(0.2));
        assert_eq!(v["seeds"][0].as_u64(), Some(1));
        assert_eq!(v["enabled"].as_bool(), Some(true));
        assert_eq!(v["offset"].as_i64(), Some(-4));
        assert_eq!(v["sim"]["warmup"].as_u64(), Some(1000));
        let topologies = v["topologies"].as_array().unwrap();
        assert_eq!(topologies.len(), 2);
        assert_eq!(topologies[0]["concentration"].as_u64(), Some(8));
        assert_eq!(topologies[1]["sides"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn parses_inline_tables_and_multiline_arrays() {
        let doc = r#"
            topologies = [
                { sides = [8, 8], concentration = 8 },
                { sides = [4, 4, 4] },
            ]
            note = "escaped \"quote\" and \n newline"
        "#;
        let v = parse(doc).unwrap();
        let topologies = v["topologies"].as_array().unwrap();
        assert_eq!(topologies.len(), 2);
        assert_eq!(topologies[0]["sides"][1].as_u64(), Some(8));
        assert!(v["note"].as_str().unwrap().contains("\"quote\""));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("key").is_err());
        assert!(parse("key = ").is_err());
        assert!(parse("key = \"unterminated").is_err());
        assert!(parse("a = 1\na = 2").is_err());
        assert!(parse("[t\nkey = 1").is_err());
        assert!(parse("x = 1 y = 2").is_err());
    }

    #[test]
    fn nesting_is_limited_instead_of_overflowing_the_stack() {
        let deepest = format!("x = {}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let too_deep = format!(
            "x = {}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&too_deep).unwrap_err();
        assert!(err.contains("deeper than 128"), "{err}");
        // A hostile document far beyond any stack: an error, not an abort.
        let hostile = format!("x = {}", "[".repeat(200_000));
        assert!(parse(&hostile).unwrap_err().contains("deeper than 128"));
        let tables = format!("x = {}", "{ a = ".repeat(200_000));
        assert!(parse(&tables).unwrap_err().contains("deeper than 128"));
    }

    #[test]
    fn dotted_headers_nest() {
        let v = parse("[a.b]\nc = 3\n").unwrap();
        assert_eq!(v["a"]["b"]["c"].as_u64(), Some(3));
    }
}
