//! The workspace's one JSON string escaper (RFC 8259 §7). The bench
//! writer, the analyzer's `--json` diagnostics and the `ldl-serve`
//! wire encoder all emit string literals through it.

use std::fmt;

/// Writes `s` as a JSON string literal, quotes included: `"` and `\`
/// escaped, control characters as `\n` / `\r` / `\t` or `\u00XX`.
/// Unescaped stretches go out as one `write_str` each.
pub fn write_string<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut start = 0;
    // Every byte that needs escaping is ASCII, so `start` and `i` always
    // fall on char boundaries.
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[start..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        start = i + 1;
    }
    out.write_str(&s[start..])?;
    out.write_char('"')
}

/// [`write_string`] into a fresh `String`.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_string(&mut out, s).expect("writing to a String cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("l1\nl2\tx\r"), "\"l1\\nl2\\tx\\r\"");
        assert_eq!(string("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        // Multi-byte characters pass through untouched.
        assert_eq!(string("µs → \"ok\""), "\"µs → \\\"ok\\\"\"");
    }
}
