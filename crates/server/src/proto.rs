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

/// Writes a successful query response: `OK <n>` then one code per line.
pub fn write_ok<W: Write>(w: &mut W, codes: &[u64]) -> io::Result<()> {
    let mut buf = String::with_capacity(8 + codes.len() * 12);
    buf.push_str("OK ");
    buf.push_str(&codes.len().to_string());
    buf.push('\n');
    for c in codes {
        buf.push_str(&c.to_string());
        buf.push('\n');
    }
    w.write_all(buf.as_bytes())
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

/// Reads one query response off `r`.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    if let Some(msg) = header.strip_prefix("ERR ") {
        return Ok(Response::Err(msg.trim_end().to_owned()));
    }
    let n: usize = header
        .strip_prefix("OK ")
        .and_then(|s| s.trim_end().parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response header {header:?}"),
            )
        })?;
    let mut bytes = header.into_bytes();
    let mut codes = Vec::with_capacity(n);
    for _ in 0..n {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        let c: u64 = line.trim_end().parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad code line {line:?}"),
            )
        })?;
        codes.push(c);
        bytes.extend_from_slice(line.as_bytes());
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
}
