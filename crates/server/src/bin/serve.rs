//! `pbitree-serve` — stand up the query service on a TCP port.
//!
//! ```text
//! pbitree-serve [--addr 127.0.0.1:0] [--addr-file <path>] [--sf <f>]
//!               [--seed <n>] [--pages <n>] [--reserve <n>] [--budget <n>]
//!               [--max-queue <n>] [--shards <n>] [--trace <path>]
//! ```
//!
//! Prints `listening on <addr>` once live (and writes the concrete
//! address to `--addr-file` when given, the race-free way for scripts to
//! discover an OS-assigned port), then serves until a client sends
//! `SHUTDOWN`. On exit it prints the service's STATS JSON and, with
//! `--trace`, saves the schema-v1 span trace of every query run.

#![forbid(unsafe_code)]

use std::process::exit;
use std::sync::Arc;

use pbitree_server::{spawn, QueryService, ServiceConfig};

struct Args {
    addr: String,
    addr_file: Option<std::path::PathBuf>,
    trace: Option<std::path::PathBuf>,
    cfg: ServiceConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: pbitree-serve [--addr host:port] [--addr-file path] [--sf f] [--seed n] \
         [--pages n] [--reserve n] [--budget n] [--max-queue n] [--shards n] [--trace path]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:0".into(),
        addr_file: None,
        trace: None,
        cfg: ServiceConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--addr" => args.addr = val(),
            "--addr-file" => args.addr_file = Some(val().into()),
            "--trace" => args.trace = Some(val().into()),
            "--sf" => args.cfg.sf = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.cfg.seed = val().parse().unwrap_or_else(|_| usage()),
            "--pages" => args.cfg.buffer_pages = val().parse().unwrap_or_else(|_| usage()),
            "--reserve" => args.cfg.reserve_frames = val().parse().unwrap_or_else(|_| usage()),
            "--budget" => args.cfg.default_budget = val().parse().unwrap_or_else(|_| usage()),
            "--max-queue" => args.cfg.max_queue = val().parse().unwrap_or_else(|_| usage()),
            "--shards" => args.cfg.shards = val().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let tracer = args
        .trace
        .as_ref()
        .map(|_| Arc::new(pbitree_joins::trace::Tracer::new()));

    eprintln!(
        "loading corpus: sf={} seed={:#x} pages={}",
        args.cfg.sf, args.cfg.seed, args.cfg.buffer_pages
    );
    let mut service = QueryService::new(args.cfg).unwrap_or_else(|e| {
        eprintln!("error: corpus load failed: {e:?}");
        exit(1);
    });
    if let Some(t) = &tracer {
        service = service.with_tracer(t.clone());
    }

    let handle = spawn(Arc::new(service), args.addr.as_str()).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {}: {e}", args.addr);
        exit(1);
    });
    let addr = handle.addr();
    if let Some(p) = &args.addr_file {
        // Write to a temp name then rename, so readers polling the path
        // never observe a partial address.
        let tmp = p.with_extension("tmp");
        if let Err(e) =
            std::fs::write(&tmp, addr.to_string()).and_then(|()| std::fs::rename(&tmp, p))
        {
            eprintln!("error: cannot write {}: {e}", p.display());
            exit(1);
        }
    }
    println!("listening on {addr}");

    let service = handle.service().clone();
    if let Err(e) = handle.join() {
        eprintln!("error: {e}");
        exit(1);
    }
    println!("STATS {}", service.stats_json());
    if let (Some(path), Some(t)) = (&args.trace, &tracer) {
        match t.save(path) {
            Ok(()) => eprintln!("trace: {} spans -> {}", t.span_count(), path.display()),
            Err(e) => {
                eprintln!("error: cannot write trace {}: {e}", path.display());
                exit(1);
            }
        }
    }
}
