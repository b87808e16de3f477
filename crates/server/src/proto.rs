//! The wire protocol: newline-framed requests, count-framed responses.
//!
//! One request per line, one response per request, over any ordered byte
//! stream (the server speaks it on TCP; tests drive it through in-memory
//! pipes). Everything is ASCII and self-framing, so a response can be
//! compared byte-for-byte against a serial baseline — the property the
//! load generator's equivalence check is built on.
//!
//! ```text
//! -> QUERY [raw] [budget=N] //a//b        -> OK <n>\n<code>\n*n
//! -> QUERYBATCH [raw] [budget=N] <k>      -> k framed responses, in
//!    //a//b                                  request order, each exactly
//!    ... (k path lines)                      what QUERY would have sent
//! -> PING                                 -> PONG
//! -> STATS                                -> STATS {json}
//! -> SHUTDOWN                             -> BYE        (server then stops)
//! any error                               -> ERR <message>
//! ```
//!
//! `raw` declares the query's inputs as neither sorted nor indexed, which
//! sends the planner into Table 1's bottom row (SHCJ / VPJ)
//! instead of the sorted-input row — the knob the load generator uses to
//! exercise both planner rows under load. `budget=N` requests an explicit
//! per-query frame budget; without it the service default applies. A
//! non-positive budget is rejected at parse time — `budget=0` used to
//! slip through and surface later as a confusing admission `TooLarge`.
//!
//! `QUERYBATCH` submits `k` queries as one unit: the header line carries
//! the options and the count, the next `k` lines carry one path each, and
//! the server answers with `k` responses from **one admission grant and
//! one shared document scan** where the paths allow it. Each response is
//! byte-identical to the one a lone `QUERY` would have produced.

use std::io::{self, BufRead, Write};

/// Most queries one `QUERYBATCH` may carry — bounds what a single header
/// line can make the server buffer before it answers anything.
pub const MAX_BATCH: usize = 256;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a descendant path query.
    Query {
        /// The `//a//b[c="v"]` path text.
        path: String,
        /// Treat inputs as unsorted/unindexed (Table 1 bottom row).
        raw: bool,
        /// Explicit frame budget, if requested.
        budget: Option<usize>,
    },
    /// Run a batch of descendant path queries from one admission grant.
    /// The header is followed by `count` path lines on the wire.
    QueryBatch {
        /// How many path lines follow (1..=[`MAX_BATCH`]).
        count: usize,
        /// Treat inputs as unsorted/unindexed, as for [`Request::Query`].
        raw: bool,
        /// Explicit frame budget for the whole batch, if requested.
        budget: Option<usize>,
    },
    /// Liveness probe.
    Ping,
    /// Admission/service counter snapshot.
    Stats,
    /// Stop the server.
    Shutdown,
}

/// Parses the shared `[raw] [budget=N]` option tokens of `QUERY` and
/// `QUERYBATCH`. A zero budget is rejected here: it used to parse and
/// then fail admission with a misleading `TooLarge`, so the protocol now
/// names the real problem at the line that caused it.
fn parse_options<'a, I: Iterator<Item = &'a str>>(
    toks: I,
) -> Result<(bool, Option<usize>), String> {
    let mut raw = false;
    let mut budget = None;
    for tok in toks {
        if tok.eq_ignore_ascii_case("raw") {
            raw = true;
        } else if let Some(n) = tok.strip_prefix("budget=") {
            let b: usize = n.parse().map_err(|_| format!("bad budget {n:?}"))?;
            if b == 0 {
                return Err("budget must be at least 1".into());
            }
            budget = Some(b);
        } else {
            return Err(format!("unknown option {tok:?}"));
        }
    }
    Ok((raw, budget))
}

impl Request {
    /// Parses one request line (without the trailing newline).
    pub fn parse(line: &str) -> Result<Request, String> {
        let line = line.trim();
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        match verb.to_ascii_uppercase().as_str() {
            "PING" => Ok(Request::Ping),
            "STATS" => Ok(Request::Stats),
            "SHUTDOWN" => Ok(Request::Shutdown),
            "QUERY" | "Q" => {
                // Options precede the path; the path starts at the first
                // `//` token and runs to the end of the line (predicate
                // values may contain spaces).
                let start = rest
                    .find("//")
                    .ok_or_else(|| format!("no //path in {line:?}"))?;
                let (opts, path) = rest.split_at(start);
                let (raw, budget) = parse_options(opts.split_whitespace())?;
                Ok(Request::Query {
                    path: path.to_owned(),
                    raw,
                    budget,
                })
            }
            "QUERYBATCH" | "QB" => {
                // Options precede the trailing count token.
                let mut toks: Vec<&str> = rest.split_whitespace().collect();
                let count_tok = toks.pop().ok_or("QUERYBATCH needs a count")?;
                let count: usize = count_tok
                    .parse()
                    .map_err(|_| format!("bad batch count {count_tok:?}"))?;
                if count == 0 || count > MAX_BATCH {
                    return Err(format!("batch count must be 1..={MAX_BATCH}, got {count}"));
                }
                let (raw, budget) = parse_options(toks.into_iter())?;
                Ok(Request::QueryBatch { count, raw, budget })
            }
            other => Err(format!("unknown command {other:?}")),
        }
    }

    /// Renders the request as one protocol line (no newline). A
    /// `QueryBatch` line is only the header — the caller sends the
    /// `count` path lines after it.
    pub fn encode(&self) -> String {
        match self {
            Request::Ping => "PING".into(),
            Request::Stats => "STATS".into(),
            Request::Shutdown => "SHUTDOWN".into(),
            Request::Query { path, raw, budget } => {
                let mut s = String::from("QUERY");
                push_options(&mut s, *raw, *budget);
                s.push(' ');
                s.push_str(path);
                s
            }
            Request::QueryBatch { count, raw, budget } => {
                let mut s = String::from("QUERYBATCH");
                push_options(&mut s, *raw, *budget);
                s.push_str(&format!(" {count}"));
                s
            }
        }
    }
}

fn push_options(s: &mut String, raw: bool, budget: Option<usize>) {
    if raw {
        s.push_str(" raw");
    }
    if let Some(b) = budget {
        s.push_str(&format!(" budget={b}"));
    }
}

/// Writes a successful query response: `OK <n>` then one code per line,
/// rendered into one buffer and handed to `w` in one `write_all`.
pub fn write_ok<W: Write>(w: &mut W, codes: &[u64]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(24 + codes.len() * 12);
    buf.extend_from_slice(b"OK ");
    push_decimal_line(&mut buf, codes.len() as u64);
    for &c in codes {
        push_decimal_line(&mut buf, c);
    }
    w.write_all(&buf)
}

/// Appends `n` in decimal and a newline, formatting the digits back to
/// front in a stack buffer.
fn push_decimal_line(out: &mut Vec<u8>, mut n: u64) {
    // 20 digits hold `u64::MAX`; one more byte holds the newline.
    let mut line = [b'\n'; 21];
    let mut start = 20;
    loop {
        start -= 1;
        line[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&line[start..]);
}

/// Parses an unsigned decimal: ASCII digits only, at least one, and no
/// value past `u64::MAX`.
fn parse_decimal(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// Writes an error response. The message is flattened to one line.
pub fn write_err<W: Write>(w: &mut W, msg: &str) -> io::Result<()> {
    writeln!(w, "ERR {}", msg.replace('\n', " "))
}

/// A query response as the client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `OK` with the result codes, plus the exact bytes of the response
    /// (the unit of the serial-equivalence check).
    Ok {
        /// Result codes in ascending order.
        codes: Vec<u64>,
        /// The response verbatim.
        bytes: Vec<u8>,
    },
    /// `ERR <message>`.
    Err(String),
}

/// Most codes [`read_response`] reserves room for before it has read
/// them: the count comes off the wire.
const MAX_RESERVE: usize = 1 << 16;

/// Reads one query response off `r`. Every line is appended straight to
/// the response's `bytes` and its digits parsed in place there.
///
/// A code line must be ASCII digits ending in `\n` that fit a `u64`
/// (`InvalidData` otherwise); a stream that ends before the last one does
/// is `UnexpectedEof`.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
    let invalid = |what: &str, line: &[u8]| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad {what} {:?}", String::from_utf8_lossy(line)),
        )
    };
    let mut bytes = Vec::new();
    if r.read_until(b'\n', &mut bytes)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    if let Some(msg) = bytes.strip_prefix(b"ERR ") {
        let msg = std::str::from_utf8(msg).map_err(|_| invalid("error line", &bytes))?;
        return Ok(Response::Err(msg.trim_end().to_owned()));
    }
    let n = bytes
        .strip_prefix(b"OK ")
        .map(<[u8]>::trim_ascii_end)
        .and_then(parse_decimal)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| invalid("response header", &bytes))?;
    let mut codes = Vec::with_capacity(n.min(MAX_RESERVE));
    for _ in 0..n {
        let start = bytes.len();
        r.read_until(b'\n', &mut bytes)?;
        let line = &bytes[start..];
        let Some(digits) = line.strip_suffix(b"\n") else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        };
        codes.push(parse_decimal(digits).ok_or_else(|| invalid("code line", line))?);
    }
    Ok(Response::Ok { codes, bytes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        for r in [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Query {
                path: "//a//b".into(),
                raw: false,
                budget: None,
            },
            Request::Query {
                path: r#"//Section[Title="A B"]//Figure"#.into(),
                raw: true,
                budget: Some(32),
            },
            Request::QueryBatch {
                count: 16,
                raw: false,
                budget: None,
            },
            Request::QueryBatch {
                count: 1,
                raw: true,
                budget: Some(8),
            },
        ] {
            assert_eq!(Request::parse(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Request::parse("FROB").is_err());
        assert!(Request::parse("QUERY nopath").is_err());
        assert!(Request::parse("QUERY budget=x //a").is_err());
        assert!(Request::parse("QUERY frob //a").is_err());
        assert!(Request::parse("QUERYBATCH").is_err());
        assert!(Request::parse("QUERYBATCH nope").is_err());
        assert!(Request::parse("QUERYBATCH 0").is_err());
        assert!(Request::parse(&format!("QUERYBATCH {}", MAX_BATCH + 1)).is_err());
        assert!(Request::parse("QUERYBATCH frob 4").is_err());
    }

    #[test]
    fn zero_budget_is_a_parse_error() {
        // Used to parse fine and then fail admission as `TooLarge`, which
        // misdirected the client toward the server's capacity.
        let err = Request::parse("QUERY budget=0 //a//b").unwrap_err();
        assert!(err.contains("budget must be at least 1"), "{err}");
        assert!(Request::parse("QUERYBATCH budget=0 4").is_err());
        // Boundary: 1 is the smallest accepted request.
        assert_eq!(
            Request::parse("QUERY budget=1 //a").unwrap(),
            Request::Query {
                path: "//a".into(),
                raw: false,
                budget: Some(1),
            }
        );
        assert_eq!(
            Request::parse("QB raw 4").unwrap(),
            Request::QueryBatch {
                count: 4,
                raw: true,
                budget: None,
            }
        );
    }

    #[test]
    fn response_round_trips() {
        let mut buf = Vec::new();
        write_ok(&mut buf, &[3, 16, 99]).unwrap();
        let resp = read_response(&mut buf.as_slice()).unwrap();
        match resp {
            Response::Ok { codes, bytes } => {
                assert_eq!(codes, vec![3, 16, 99]);
                assert_eq!(bytes, buf);
            }
            Response::Err(e) => panic!("unexpected error: {e}"),
        }

        let mut ebuf = Vec::new();
        write_err(&mut ebuf, "bad\nthing").unwrap();
        assert_eq!(
            read_response(&mut ebuf.as_slice()).unwrap(),
            Response::Err("bad thing".into())
        );
    }

    /// The wire bytes pinned against `std`'s formatter, not against the
    /// renderer under test: the benchmark's oracle renders its expected
    /// bytes with `write_ok` itself.
    #[test]
    fn write_ok_matches_std_formatting() {
        let mut codes: Vec<u64> = vec![0, 1, 9, 10, 99, 100, u64::MAX - 1, u64::MAX];
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            codes.extend([next - 1, next, next + 1]);
            p = next;
        }
        let mut x = 0xC0DEu64;
        for _ in 0..1_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            codes.push(x >> (x % 64));
        }
        for set in [&codes[..0], &codes[..1], &codes[..]] {
            let mut want = format!("OK {}\n", set.len());
            for c in set {
                want.push_str(&format!("{c}\n"));
            }
            let mut got = Vec::new();
            write_ok(&mut got, set).unwrap();
            assert_eq!(String::from_utf8(got).unwrap(), want);
        }
    }

    #[test]
    fn read_response_rejects_malformed_bodies() {
        for (body, kind) in [
            ("OK 1\n\n", io::ErrorKind::InvalidData),
            ("OK 1\n12a\n", io::ErrorKind::InvalidData),
            ("OK 1\n-5\n", io::ErrorKind::InvalidData),
            ("OK 1\n18446744073709551616\n", io::ErrorKind::InvalidData),
            ("OK 2\n3\n", io::ErrorKind::UnexpectedEof),
            ("OK 2\n3\n4", io::ErrorKind::UnexpectedEof),
            ("OK x\n", io::ErrorKind::InvalidData),
            ("", io::ErrorKind::UnexpectedEof),
        ] {
            let err = read_response(&mut body.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), kind, "{body:?}: {err}");
        }
        let max = read_response(&mut "OK 1\n18446744073709551615\n".as_bytes()).unwrap();
        assert!(matches!(max, Response::Ok { codes, .. } if codes == [u64::MAX]));
    }

    /// A reader that hands out one byte per call, so every line of the
    /// response crosses a `BufReader` refill.
    struct OneByte<'a>(&'a [u8]);

    impl io::Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((&b, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            if buf.is_empty() {
                return Ok(0);
            }
            buf[0] = b;
            self.0 = rest;
            Ok(1)
        }
    }

    #[test]
    fn large_response_round_trips_one_byte_at_a_time() {
        let codes: Vec<u64> = (0..20_000u64).map(|i| i * i * 7919 + i).collect();
        let mut wire = Vec::new();
        write_ok(&mut wire, &codes).unwrap();
        write_ok(&mut wire, &[42]).unwrap();
        let mut r = io::BufReader::new(OneByte(&wire));
        let first = read_response(&mut r).unwrap();
        let second = read_response(&mut r).unwrap();
        let split = wire.len() - b"OK 1\n42\n".len();
        assert_eq!(
            first,
            Response::Ok {
                codes,
                bytes: wire[..split].to_vec()
            }
        );
        assert_eq!(
            second,
            Response::Ok {
                codes: vec![42],
                bytes: wire[split..].to_vec()
            }
        );
    }
}
