//! The benchmark's own end of the two wire formats: the `ldl-shell`
//! prompt protocol on a pipe and `ldl-serve`'s line-delimited JSON on a
//! Unix socket. Written here rather than borrowed from `ldl-serve`'s
//! client so that the reply checker shares no code with what it checks.

use crate::gen::Expect;

/// JSON string literal for `s` (request side).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"op":"<op>"}` or `{"op":"<op>","<key>":"<value>"}`.
pub fn request(op: &str, arg: Option<(&str, &str)>) -> String {
    match arg {
        None => format!("{{\"op\":{}}}", json_str(op)),
        Some((k, v)) => format!(
            "{{\"op\":{},{}:{}}}",
            json_str(op),
            json_str(k),
            json_str(v)
        ),
    }
}

/// What the benchmark reads out of one `ldl-serve` response line.
#[derive(Debug, Default)]
pub struct Reply {
    pub ok: bool,
    pub error: Option<String>,
    /// Count and digest of the `rows` array.
    pub rows: Expect,
    /// The `count` member the server reports next to `rows`.
    pub count: Option<u64>,
    pub digest: Option<String>,
    pub base_inserted: Option<u64>,
    pub base_retracted: Option<u64>,
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scanner<'_> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes.get(self.pos).copied()
    }

    /// A string literal, unescaped.
    fn string(&mut self) -> Result<Vec<u8>, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.bytes.get(self.pos).ok_or("dangling escape")?;
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }

    /// Skips one value of any kind.
    fn skip(&mut self) -> Result<(), String> {
        match self.peek().ok_or("unexpected end")? {
            b'"' => self.string().map(|_| ()),
            open @ (b'[' | b'{') => {
                let close = if open == b'[' { b']' } else { b'}' };
                self.pos += 1;
                if self.peek() == Some(close) {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    if open == b'{' {
                        self.string()?;
                        self.eat(b':')?;
                    }
                    self.skip()?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b) if b == close => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("bad container at byte {}", self.pos)),
                    }
                }
            }
            _ => {
                self.scalar();
                Ok(())
            }
        }
    }

    /// A bare scalar (number, `true`, `false`, `null`) as text.
    fn scalar(&mut self) -> &str {
        self.ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| !matches!(b, b',' | b'}' | b']') && !b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("")
    }
}

/// Reads one response object. The `rows` array is digested as it is
/// scanned, never materialized.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let mut s = Scanner {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let mut reply = Reply::default();
    s.eat(b'{')?;
    if s.peek() == Some(b'}') {
        return Ok(reply);
    }
    loop {
        let key = s.string()?;
        s.eat(b':')?;
        match key.as_slice() {
            b"ok" => reply.ok = s.scalar() == "true",
            b"error" => reply.error = Some(String::from_utf8_lossy(&s.string()?).into_owned()),
            b"digest" => reply.digest = Some(String::from_utf8_lossy(&s.string()?).into_owned()),
            b"count" => reply.count = s.scalar().parse().ok(),
            b"base_inserted" => reply.base_inserted = s.scalar().parse().ok(),
            b"base_retracted" => reply.base_retracted = s.scalar().parse().ok(),
            b"rows" => {
                s.eat(b'[')?;
                if s.peek() == Some(b']') {
                    s.pos += 1;
                } else {
                    loop {
                        let row = s.string()?;
                        reply.rows.add_row_text(&row);
                        match s.peek() {
                            Some(b',') => s.pos += 1,
                            Some(b']') => {
                                s.pos += 1;
                                break;
                            }
                            _ => return Err("bad rows array".into()),
                        }
                    }
                }
            }
            _ => s.skip()?,
        }
        match s.peek() {
            Some(b',') => s.pos += 1,
            Some(b'}') => return Ok(reply),
            _ => return Err(format!("bad object at byte {}", s.pos)),
        }
    }
}

/// What the benchmark reads out of one `ldl-shell` query reply: the
/// text between the echoed line's end and the next prompt.
pub fn parse_shell_answer(reply: &str, pred: &str) -> Result<Expect, String> {
    let mut got = Expect::default();
    let mut reported: Option<usize> = None;
    for line in reply.lines() {
        if let Some(tuple) = line
            .strip_prefix(pred)
            .filter(|rest| rest.starts_with('(') && rest.ends_with(')'))
        {
            got.add_row_text(tuple.as_bytes());
        } else if let Some((n, _)) = line.split_once(" answer(s)") {
            reported = n.trim().parse().ok();
        } else if !line.trim().is_empty() {
            return Err(format!("unexpected shell output: {line}"));
        }
    }
    match reported {
        Some(n) if n == got.count => Ok(got),
        Some(n) => Err(format!("shell reported {n} answers, printed {}", got.count)),
        None => Err("no answer count in shell reply".into()),
    }
}
