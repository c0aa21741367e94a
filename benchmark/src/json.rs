//! The benchmark's own JSON reader and writer.
//!
//! The reader is a field *extractor*, not a parser: it walks one object
//! and hands back the raw text of the value stored under a key. Unknown
//! keys are skipped, and truncated or malformed input yields `None`
//! instead of an error, so the instrument keeps reading `stale`/`epoch`
//! from a `health` line whose `queued` counter has wrapped (see the
//! README's known defects). It shares no code with `fannr-serve`.

/// Raw text of the value stored under `key` in the object `obj`.
pub fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let b = obj.as_bytes();
    let mut i = skip_ws(b, 0);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b'}') {
        return None;
    }
    loop {
        if b.get(i) != Some(&b'"') {
            return None;
        }
        let key_end = skip_string(b, i)?;
        let name = &obj[i + 1..key_end - 1];
        i = skip_ws(b, key_end);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i = skip_ws(b, i + 1);
        let end = skip_value(b, i)?;
        if name == key {
            return Some(&obj[i..end]);
        }
        i = skip_ws(b, end);
        match b.get(i) {
            Some(b',') => i = skip_ws(b, i + 1),
            _ => return None,
        }
    }
}

/// The raw elements of the array `arr`; empty when `arr` is not an array
/// or is cut short.
pub fn elements(arr: &str) -> Vec<&str> {
    let b = arr.as_bytes();
    let mut out = Vec::new();
    let mut i = skip_ws(b, 0);
    if b.get(i) != Some(&b'[') {
        return out;
    }
    i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b']') {
        return out;
    }
    loop {
        let Some(end) = skip_value(b, i) else {
            return Vec::new();
        };
        out.push(&arr[i..end]);
        i = skip_ws(b, end);
        match b.get(i) {
            Some(b',') => i = skip_ws(b, i + 1),
            Some(b']') => return out,
            _ => return Vec::new(),
        }
    }
}

/// A string value without its quotes. Escapes are left as written: the
/// protocol's `status`, `id` and `strategy` values never carry any.
pub fn str_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let raw = field(obj, key)?;
    raw.strip_prefix('"')?.strip_suffix('"')
}

/// A non-negative integer that fits `u64`; anything else is `None`.
pub fn u64_field(obj: &str, key: &str) -> Option<u64> {
    field(obj, key)?.parse().ok()
}

/// Any JSON number, however large, as an `f64`.
pub fn f64_field(obj: &str, key: &str) -> Option<f64> {
    let raw = field(obj, key)?;
    let first = *raw.as_bytes().first()?;
    if !(first == b'-' || first.is_ascii_digit()) {
        return None;
    }
    raw.parse().ok()
}

pub fn bool_field(obj: &str, key: &str) -> Option<bool> {
    match field(obj, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

/// Index just past the string starting at `b[i] == '"'`.
fn skip_string(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    loop {
        match b.get(j)? {
            b'"' => return Some(j + 1),
            b'\\' => j += 2,
            _ => j += 1,
        }
    }
}

/// Index just past the value starting at `b[i]`; `None` when it is cut
/// short.
fn skip_value(b: &[u8], i: usize) -> Option<usize> {
    match b.get(i)? {
        b'"' => skip_string(b, i),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            loop {
                match b.get(j)? {
                    b'"' => {
                        j = skip_string(b, j)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        _ => {
            let mut j = i;
            while let Some(c) = b.get(j) {
                if matches!(c, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r') {
                    break;
                }
                j += 1;
            }
            (j > i).then_some(j)
        }
    }
}

/// Append `[a,b,c]` to `out`.
pub fn push_ids(out: &mut String, ids: &[u32]) {
    use std::fmt::Write;
    out.push('[');
    for (i, v) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// A finite number with all its digits; JSON has no NaN or infinity, so
/// those become 0.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"status":"ok","id":"17","p_star":484,"dist":535,"subset":[1,2,{"x":"]"}],"strategy":"IER-kNN/PHL","micros":1521}"#;

    #[test]
    fn extracts_scalars_and_skips_nested_values() {
        assert_eq!(str_field(OK, "status"), Some("ok"));
        assert_eq!(str_field(OK, "id"), Some("17"));
        assert_eq!(u64_field(OK, "p_star"), Some(484));
        assert_eq!(u64_field(OK, "micros"), Some(1521));
        assert_eq!(field(OK, "subset"), Some(r#"[1,2,{"x":"]"}]"#));
        assert_eq!(u64_field(OK, "absent"), None);
    }

    #[test]
    fn truncated_input_is_none_not_a_panic() {
        for cut in 0..OK.len() {
            let part = &OK[..cut];
            // Fields that end before the cut may still be found; nothing
            // may panic and nothing past the cut may be invented.
            let _ = field(part, "micros");
            assert_eq!(u64_field(part, "absent"), None);
        }
        assert_eq!(u64_field(r#"{"a":12"#, "a"), Some(12));
        assert_eq!(u64_field(r#"{"a":"#, "a"), None);
        assert_eq!(str_field(r#"{"a":"unterminated"#, "a"), None);
        assert_eq!(field(r#"{"a":[1,2"#, "a"), None);
    }

    #[test]
    fn oversized_numbers_do_not_hide_later_fields() {
        // `queued` after a counter underflow: 2^64 - 1, and the float
        // spelling a writer that goes through f64 produces.
        for queued in [
            "18446744073709551615",
            "18446744073709552000",
            "1.8446744073709552e19",
        ] {
            let line = format!(r#"{{"status":"health","queued":{queued},"epoch":7,"stale":true}}"#);
            assert_eq!(u64_field(&line, "epoch"), Some(7));
            assert_eq!(bool_field(&line, "stale"), Some(true));
            assert!(f64_field(&line, "queued").unwrap() > 9.007e15);
        }
        assert_eq!(u64_field(r#"{"q":18446744073709552000}"#, "q"), None);
        assert_eq!(u64_field(r#"{"q":-1}"#, "q"), None);
        assert_eq!(f64_field(r#"{"q":nan}"#, "q"), None);
    }

    #[test]
    fn malformed_fields_are_ignored() {
        let line = r#"{"junk":tru,"epoch":3}"#;
        assert_eq!(bool_field(line, "junk"), None);
        assert_eq!(u64_field(line, "epoch"), Some(3));
        assert_eq!(u64_field("not json", "epoch"), None);
        assert_eq!(u64_field(r#"{"epoch" 3}"#, "epoch"), None);
    }

    #[test]
    fn arrays_iterate_and_objects_nest() {
        assert_eq!(
            elements("[1, {\"a\":[2]} ,\"x\"]"),
            vec!["1", "{\"a\":[2]}", "\"x\""]
        );
        assert!(elements("[1,2").is_empty());
        assert!(elements("[]").is_empty());
        let nested = field(r#"{"a":1,"b":{"value":2.5,"unit":"ms"}}"#, "b").unwrap();
        assert_eq!(f64_field(nested, "value"), Some(2.5));
    }

    #[test]
    fn writer_round_trips() {
        let mut s = String::new();
        push_ids(&mut s, &[3, 14, 15]);
        assert_eq!(s, "[3,14,15]");
        assert_eq!(elements(&s), vec!["3", "14", "15"]);
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1.25), "1.25");
    }
}
