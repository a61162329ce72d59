//! Reading the benchmark's own JSON (`BENCHMARK.json`, `expected.json`,
//! `repeat` lines, the daemon's metrics frame) with the field scanners of
//! `ccs_serve::json`, and the number rendering of result lines.

pub use ccs_serve::json::{array_field, quoted, str_field, u64_field};

/// `text` without the whitespace outside strings: the `"name":value`
/// form the scanners match.
pub fn compact(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let (mut in_string, mut escaped) = (false, false);
    for c in text.chars() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else if !c.is_whitespace() {
            in_string = c == '"';
            out.push(c);
        }
    }
    out
}

/// The first `"name":<number>` field; `1e999` reads as infinity.
pub fn f64_field(obj: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\":");
    let rest = &obj[obj.find(&tag)? + tag.len()..];
    let end = rest
        .find(|c: char| !matches!(c, '-' | '+' | '.' | 'e' | 'E' | '0'..='9'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Renders a measured value with every digit Rust's shortest round-trip
/// formatting gives. A non-finite value (a tail reached by refused
/// requests) renders as `1e999`, a number that parses as infinity.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "1e999".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_keeps_strings_and_scanners_read_it() {
        let doc = compact("{ \"a\": [ 1, 2 ],\n  \"s\": \"x \\\" y\", \"f\": -2.5e3 }");
        assert_eq!(doc, r#"{"a":[1,2],"s":"x \" y","f":-2.5e3}"#);
        assert_eq!(str_field(&doc, "s").as_deref(), Some("x \" y"));
        assert_eq!(f64_field(&doc, "f"), Some(-2500.0));
        assert_eq!(array_field(&doc, "a").map(|a| a.len()), Some(2));
        assert_eq!(f64_field("{\"x\":1e999}", "x"), Some(f64::INFINITY));
        assert_eq!(f64_field("{\"x\":\"1\"}", "x"), None);
    }

    #[test]
    fn numbers_render_every_digit() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(f64::INFINITY), "1e999");
    }
}
