//! Minimal hand-rolled JSON helpers: the one codec of checkpoint
//! manifests, the daemon's wire protocol and its journal.
//!
//! The workspace deliberately carries no JSON dependency (the vendored
//! `serde` is an offline stub), so each of these renders and parses its
//! flat payloads with these field scanners, plus a balanced-bracket
//! array splitter for the one nested shape the protocol needs
//! (`"cells":[{...},...]`).
//!
//! These are *scanners*, not a general JSON parser: a field lookup
//! returns the first occurrence of `"name":` anywhere in the payload,
//! so every payload shape keeps its field names unique across nesting
//! levels (the manifest and protocol renderers uphold this). Malformed
//! input yields `None`, never a panic — the fuzz suite leans on that.

use std::fmt::Write as _;

/// Escapes `s` into `out` as JSON string contents (no surrounding
/// quotes).
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// `s` as a quoted JSON string.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(s, &mut out);
    out.push('"');
    out
}

/// Reverses [`escape_into`]. Lenient: a malformed escape is passed
/// through rather than failing, matching the manifest parser.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// The raw (still escaped) contents of the first `"name":"..."`, or
/// `None`.
fn raw_str_field<'a>(obj: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\":\"");
    let start = obj.find(&tag)? + tag.len();
    let rest = &obj[start..];
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&rest[..i]),
            _ => i += 1,
        }
    }
    None
}

/// The first `"name":"..."` string field, unescaped.
pub fn str_field(obj: &str, name: &str) -> Option<String> {
    raw_str_field(obj, name).map(unescape)
}

/// The first `"name":...` string-or-null field: `Some(None)` for an
/// explicit `null`.
pub fn opt_str_field(obj: &str, name: &str) -> Option<Option<String>> {
    if obj.contains(&format!("\"{name}\":null")) {
        return Some(None);
    }
    str_field(obj, name).map(Some)
}

/// The first `"name":<digits>` field.
pub fn u64_field(obj: &str, name: &str) -> Option<u64> {
    let tag = format!("\"{name}\":");
    let start = obj.find(&tag)? + tag.len();
    let digits = &obj[start..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    digits[..end].parse().ok()
}

/// The first `"name":<digits|null>` field: `Some(None)` for `null`.
pub fn opt_u64_field(obj: &str, name: &str) -> Option<Option<u64>> {
    if obj.contains(&format!("\"{name}\":null")) {
        return Some(None);
    }
    u64_field(obj, name).map(Some)
}

/// The first `"name":true|false` field.
pub fn bool_field(obj: &str, name: &str) -> Option<bool> {
    let tag = format!("\"{name}\":");
    let start = obj.find(&tag)? + tag.len();
    let rest = &obj[start..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Splits the first `"name":[...]` array into its top-level elements,
/// respecting nested objects/arrays and strings. Returns `None` when
/// the field is missing or the brackets never balance (truncated
/// payload); an empty array yields an empty vector.
pub fn array_field<'a>(obj: &'a str, name: &str) -> Option<Vec<&'a str>> {
    let tag = format!("\"{name}\":[");
    let start = obj.find(&tag)? + tag.len();
    let rest = &obj[start..];
    let bytes = rest.as_bytes();
    let mut elements = Vec::new();
    let mut depth = 0usize; // nesting below the array itself
    let mut elem_start = 0usize;
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1, // skip the escaped byte
                b'"' => in_string = false,
                _ => {}
            }
        } else {
            match b {
                b'"' => in_string = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' if depth > 0 => depth -= 1,
                b',' if depth == 0 => {
                    elements.push(rest[elem_start..i].trim());
                    elem_start = i + 1;
                }
                b']' => {
                    // depth == 0: the array closes.
                    let last = rest[elem_start..i].trim();
                    if !last.is_empty() {
                        elements.push(last);
                    }
                    return Some(elements);
                }
                _ => {}
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_fields_scan() {
        let obj = r#"{"v":1,"type":"status","id":42,"ok":true,"err":null,"msg":"a\"b"}"#;
        assert_eq!(u64_field(obj, "v"), Some(1));
        assert_eq!(u64_field(obj, "id"), Some(42));
        assert_eq!(str_field(obj, "type").as_deref(), Some("status"));
        assert_eq!(bool_field(obj, "ok"), Some(true));
        assert_eq!(opt_str_field(obj, "err"), Some(None));
        assert_eq!(str_field(obj, "msg").as_deref(), Some("a\"b"));
        assert_eq!(u64_field(obj, "missing"), None);
        assert_eq!(u64_field(obj, "type"), None, "string is not a number");
    }

    #[test]
    fn quoting_round_trips() {
        let nasty = "line\nquote\" slash\\ tab\t\u{1}end";
        let q = quoted(nasty);
        let obj = format!("{{\"m\":{q}}}");
        assert_eq!(str_field(&obj, "m").as_deref(), Some(nasty));
    }

    #[test]
    fn arrays_split_on_top_level_commas_only() {
        let obj = r#"{"cells":[{"a":1,"s":"x,y"},{"a":2,"n":[1,2]},{"a":3}],"id":9}"#;
        let cells = array_field(obj, "cells").unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(u64_field(cells[0], "a"), Some(1));
        assert_eq!(str_field(cells[0], "s").as_deref(), Some("x,y"));
        assert_eq!(u64_field(cells[1], "a"), Some(2));
        assert_eq!(u64_field(cells[2], "a"), Some(3));
        assert_eq!(array_field(obj, "nope"), None);
        assert_eq!(array_field(r#"{"cells":[]}"#, "cells").unwrap().len(), 0);
    }

    #[test]
    fn truncated_arrays_and_strings_yield_none() {
        assert_eq!(array_field(r#"{"cells":[{"a":1},{"a""#, "cells"), None);
        assert_eq!(str_field(r#"{"m":"never closed"#, "m"), None);
    }
}
