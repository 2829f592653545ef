//! Hand-rolled JSON for the wire format (the vendored serde facade does
//! not serialize, matching the rest of the workspace — see
//! `obs::Snapshot::to_json`).
//!
//! Two halves: rendering a [`ServedAnswer`] into the response body, and a
//! deliberately small reader that extracts *string fields from one flat
//! object* — exactly the shape of the `/query` request body
//! (`{"sql": "...", "relation": "..."}`). Unknown fields are skipped;
//! nested containers are rejected rather than mis-parsed.

use std::collections::HashMap;
use std::fmt::Write as _;

use aqua::{AnswerProvenance, ServedAnswer};
use relation::Value;

/// Append `s` as a JSON string literal (quotes included).
pub fn push_escaped(out: &mut String, s: &str) {
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

/// A float as a JSON value: finite numbers verbatim, non-finite as `null`
/// (JSON has no NaN/Infinity).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => push_f64(out, f.get()),
        Value::Str(s) => push_escaped(out, s),
        Value::Date(d) => {
            let _ = write!(out, "{d}");
        }
    }
}

/// Render a served answer as the `/query` response body:
///
/// ```json
/// {
///   "provenance": "sampled",
///   "confidence": 0.95,
///   "rewritten": "SELECT ...",
///   "aggregates": ["c", "s"],
///   "groups": [
///     {"key": ["CA"], "values": [12.0, 34.5],
///      "bounds": [{"half_width": 1.2, "confidence": 0.95, "kind": "..."}, null]}
///   ]
/// }
/// ```
///
/// Bounds align with `aggregates`; `null` marks an unbounded aggregate
/// (e.g. MIN/MAX) or a degraded exact answer (which has no bounds at all).
pub fn render_answer(served: &ServedAnswer) -> String {
    let answer = &served.answer;
    let mut out = String::with_capacity(256 + answer.result.group_count() * 96);
    out.push_str("{\"provenance\":");
    match &answer.provenance {
        AnswerProvenance::Sampled => out.push_str("\"sampled\""),
        AnswerProvenance::Exact => out.push_str("\"exact\""),
        AnswerProvenance::ExactFallback { reason } => {
            out.push_str("\"exact_fallback\",\"degraded_reason\":");
            push_escaped(&mut out, reason);
        }
    }
    out.push_str(",\"confidence\":");
    push_f64(&mut out, answer.confidence);
    out.push_str(",\"rewritten\":");
    push_escaped(&mut out, &served.rewritten);
    out.push_str(",\"aggregates\":[");
    for (i, name) in answer.result.aggregate_names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(&mut out, name);
    }
    out.push_str("],\"groups\":[");
    for (gi, (key, values)) in answer.result.iter().enumerate() {
        if gi > 0 {
            out.push(',');
        }
        out.push_str("{\"key\":[");
        for (i, v) in key.values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_value(&mut out, v);
        }
        out.push_str("],\"values\":[");
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_f64(&mut out, *v);
        }
        out.push(']');
        // `bounds` rows share the result's key order (see
        // `ApproximateAnswer`), so index instead of searching.
        if let Some(gb) = answer.bounds.get(gi) {
            debug_assert_eq!(&gb.key, key);
            out.push_str(",\"bounds\":[");
            for (i, b) in gb.bounds.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match b {
                    Some(b) => {
                        out.push_str("{\"half_width\":");
                        push_f64(&mut out, b.half_width);
                        out.push_str(",\"confidence\":");
                        push_f64(&mut out, b.confidence);
                        let _ = write!(out, ",\"kind\":\"{:?}\"", b.kind);
                        out.push('}');
                    }
                    None => out.push_str("null"),
                }
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// An error response body: `{"error": "..."}`.
pub fn render_error(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 12);
    out.push_str("{\"error\":");
    push_escaped(&mut out, message);
    out.push('}');
    out
}

/// A structured error response body carrying the HTTP status and, for
/// retryable conditions (503 shed, 504 deadline), a machine-readable
/// backoff hint:
/// `{"error": "...", "status": 503, "retry_after_ms": 100}`.
pub fn render_error_status(message: &str, status: u16, retry_after_ms: Option<u64>) -> String {
    let mut out = String::with_capacity(message.len() + 48);
    out.push_str("{\"error\":");
    push_escaped(&mut out, message);
    let _ = write!(out, ",\"status\":{status}");
    if let Some(ms) = retry_after_ms {
        let _ = write!(out, ",\"retry_after_ms\":{ms}");
    }
    out.push('}');
    out
}

/// Parse a flat JSON object of string fields. Non-string values and
/// nested containers are errors; duplicate keys keep the last value.
pub fn parse_flat_object(text: &str) -> Result<HashMap<String, String>, String> {
    let mut chars = text.char_indices().peekable();
    let mut fields = HashMap::new();

    skip_ws(&mut chars);
    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
        return finish(chars, fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars, text)?;
        skip_ws(&mut chars);
        expect(&mut chars, ':')?;
        skip_ws(&mut chars);
        match chars.peek() {
            Some((_, '"')) => {
                let value = parse_string(&mut chars, text)?;
                fields.insert(key, value);
            }
            Some((_, c)) => return Err(format!("expected string value, found '{c}'")),
            None => return Err("unexpected end of input".into()),
        }
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => return finish(chars, fields),
            Some((_, c)) => return Err(format!("expected ',' or '}}', found '{c}'")),
            None => return Err("unexpected end of input".into()),
        }
    }
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn finish(
    mut chars: Chars<'_>,
    fields: HashMap<String, String>,
) -> Result<HashMap<String, String>, String> {
    skip_ws(&mut chars);
    match chars.next() {
        None => Ok(fields),
        Some((_, c)) => Err(format!("trailing content after object: '{c}'")),
    }
}

fn skip_ws(chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn expect(chars: &mut Chars<'_>, want: char) -> Result<(), String> {
    match chars.next() {
        Some((_, c)) if c == want => Ok(()),
        Some((_, c)) => Err(format!("expected '{want}', found '{c}'")),
        None => Err(format!("expected '{want}', found end of input")),
    }
}

fn parse_string(chars: &mut Chars<'_>, _text: &str) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|(_, c)| c.to_digit(16))
                            .ok_or("bad \\u escape")?;
                        code = code * 16 + d;
                    }
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                Some((_, c)) => return Err(format!("bad escape '\\{c}'")),
                None => return Err("unterminated string".into()),
            },
            Some((_, c)) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_object_round_trip() {
        let m = parse_flat_object(r#" {"sql": "SELECT 'a''b'", "relation": "census"} "#).unwrap();
        assert_eq!(m["sql"], "SELECT 'a''b'");
        assert_eq!(m["relation"], "census");
        assert!(parse_flat_object("{}").unwrap().is_empty());
    }

    #[test]
    fn escapes_decode() {
        let m = parse_flat_object(r#"{"k": "a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(m["k"], "a\"b\\c\ndA");
    }

    #[test]
    fn rejects_non_flat_and_malformed() {
        assert!(parse_flat_object(r#"{"k": 1}"#).is_err());
        assert!(parse_flat_object(r#"{"k": {"x": "y"}}"#).is_err());
        assert!(parse_flat_object(r#"{"k": "v""#).is_err());
        assert!(parse_flat_object(r#"{"k": "v"} extra"#).is_err());
        assert!(parse_flat_object("not json").is_err());
    }

    #[test]
    fn escaping_output() {
        let mut s = String::new();
        push_escaped(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(render_error("boom"), r#"{"error":"boom"}"#);
    }

    #[test]
    fn structured_error_bodies() {
        assert_eq!(
            render_error_status("overloaded", 503, Some(100)),
            r#"{"error":"overloaded","status":503,"retry_after_ms":100}"#
        );
        assert_eq!(
            render_error_status("nope", 400, None),
            r#"{"error":"nope","status":400}"#
        );
    }
}
