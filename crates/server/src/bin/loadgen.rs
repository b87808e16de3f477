//! `pbitree-loadgen` — drive a query server with concurrent clients and
//! report latency percentiles.
//!
//! ```text
//! pbitree-loadgen --addr <host:port> [--clients 100] [--requests 10]
//!                 [--seed 7] [--batch k] [--out report.json] [--shutdown]
//! pbitree-loadgen --embedded [--sf 0.005] [--pages 500] ...
//! ```
//!
//! The run has two phases. First a **serial baseline**: one connection
//! issues every workload query once and records the exact response bytes.
//! Then the **concurrent phase**: `--clients` connections each issue
//! `--requests` queries drawn from the seeded B1–B10 mix, and every
//! response is compared byte-for-byte against the baseline — the
//! acceptance check that concurrency never changes a result. The process
//! exits non-zero if any request errored or mismatched.
//!
//! `--embedded` spins the server up in-process (still over real TCP on a
//! loopback port) so one command exercises the whole stack; `--shutdown`
//! sends `SHUTDOWN` when done, which also stops an embedded server.
//!
//! `--batch k` (k > 1) mixes `QUERYBATCH` into the concurrent phase:
//! each round a client flips a coin between one plain `QUERY` and one
//! batch of `k` sorted-input queries in a single exchange. Every
//! sub-response is still compared byte-for-byte against the serial
//! baseline — the batched path must be invisible in the results. A
//! batched query's recorded latency is its batch's round-trip: that is
//! what the caller actually waited.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use pbitree_datagen::rng::Rng;
use pbitree_server::report::{xmark_workload, LatencyBucket, RunReport, WorkItem};
use pbitree_server::server::Client;
use pbitree_server::{proto::Response, QueryService, ServiceConfig};

struct Args {
    addr: Option<String>,
    embedded: bool,
    clients: usize,
    requests: usize,
    seed: u64,
    batch: usize,
    out: Option<std::path::PathBuf>,
    shutdown: bool,
    cfg: ServiceConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: pbitree-loadgen (--addr host:port | --embedded) [--clients n] [--requests n] \
         [--seed n] [--batch k] [--out path] [--shutdown] [--sf f] [--pages n] [--budget n] \
         [--max-queue n]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        embedded: false,
        clients: 100,
        requests: 10,
        seed: 7,
        batch: 1,
        out: None,
        shutdown: false,
        cfg: ServiceConfig {
            sf: 0.005,
            ..ServiceConfig::default()
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--addr" => args.addr = Some(val()),
            "--embedded" => args.embedded = true,
            "--clients" => args.clients = val().parse().unwrap_or_else(|_| usage()),
            "--requests" => args.requests = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = val().parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = Some(val().into()),
            "--shutdown" => args.shutdown = true,
            "--sf" => args.cfg.sf = val().parse().unwrap_or_else(|_| usage()),
            "--pages" => args.cfg.buffer_pages = val().parse().unwrap_or_else(|_| usage()),
            "--budget" => args.cfg.default_budget = val().parse().unwrap_or_else(|_| usage()),
            "--max-queue" => args.cfg.max_queue = val().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.addr.is_none() && !args.embedded {
        usage();
    }
    if args.batch == 0 || args.batch > pbitree_server::proto::MAX_BATCH {
        usage();
    }
    args
}

/// One client thread's tally.
#[derive(Default)]
struct Tally {
    ok: u64,
    errors: u64,
    mismatches: u64,
    /// `(workload index, latency ns)` per successful request.
    lat: Vec<(usize, u64)>,
}

fn main() {
    let args = parse_args();

    let embedded = if args.embedded {
        let service = QueryService::new(args.cfg).unwrap_or_else(|e| {
            eprintln!("error: corpus load failed: {e:?}");
            exit(1);
        });
        let handle = pbitree_server::spawn(Arc::new(service), "127.0.0.1:0").unwrap_or_else(|e| {
            eprintln!("error: cannot bind loopback: {e}");
            exit(1);
        });
        eprintln!("embedded server on {}", handle.addr());
        Some(handle)
    } else {
        None
    };
    let addr: String = match (&embedded, &args.addr) {
        (Some(h), _) => h.addr().to_string(),
        (None, Some(a)) => a.clone(),
        (None, None) => unreachable!("parse_args enforces addr or embedded"),
    };

    let work = xmark_workload();

    // Phase 1: serial baseline — the byte-exact expected response of
    // every workload query.
    eprintln!("serial baseline: {} queries", work.len());
    let mut baseline: HashMap<usize, Vec<u8>> = HashMap::new();
    {
        let mut c = Client::connect(&addr).unwrap_or_else(|e| {
            eprintln!("error: cannot connect {addr}: {e}");
            exit(1);
        });
        for (i, item) in work.iter().enumerate() {
            match c.query(&item.path, item.raw, None) {
                Ok(Response::Ok { bytes, .. }) => {
                    baseline.insert(i, bytes);
                }
                Ok(Response::Err(e)) => {
                    eprintln!("error: baseline {} failed: {e}", item.name);
                    exit(1);
                }
                Err(e) => {
                    eprintln!("error: baseline {} failed: {e}", item.name);
                    exit(1);
                }
            }
        }
    }

    // Phase 2: concurrent clients replay the mix; every response must be
    // byte-identical to the baseline.
    eprintln!(
        "concurrent phase: {} clients x {} requests",
        args.clients, args.requests
    );
    let work = Arc::new(work);
    // Batched rounds draw sorted-input queries only: one QUERYBATCH
    // header carries one `raw` flag for all its paths.
    let sorted_ix: Arc<Vec<usize>> = Arc::new(
        work.iter()
            .enumerate()
            .filter(|(_, it)| !it.raw)
            .map(|(i, _)| i)
            .collect(),
    );
    let baseline = Arc::new(baseline);
    let wall = Instant::now();
    let mut joins = Vec::new();
    for client_id in 0..args.clients {
        let (work, baseline, addr) = (work.clone(), baseline.clone(), addr.clone());
        let sorted_ix = sorted_ix.clone();
        let (requests, seed, batch) = (args.requests, args.seed, args.batch);
        joins.push(std::thread::spawn(move || -> Tally {
            let mut tally = Tally::default();
            let mut rng = Rng::seed_from_u64(seed ^ (client_id as u64).wrapping_mul(0x9E37_79B9));
            let mut c = match Client::connect(&addr) {
                Ok(c) => c,
                Err(_) => {
                    tally.errors += requests as u64;
                    return tally;
                }
            };
            for _ in 0..requests {
                if batch > 1 && rng.gen_range(0..2) == 1 {
                    let picks: Vec<usize> = (0..batch)
                        .map(|_| sorted_ix[rng.gen_range(0..sorted_ix.len())])
                        .collect();
                    let paths: Vec<&str> = picks.iter().map(|&i| work[i].path.as_str()).collect();
                    let t0 = Instant::now();
                    match c.query_batch(&paths, false, None) {
                        Ok(resps) => {
                            let ns = t0.elapsed().as_nanos() as u64;
                            for (&i, r) in picks.iter().zip(&resps) {
                                match r {
                                    Response::Ok { bytes, .. }
                                        if baseline.get(&i).map(|b| b.as_slice())
                                            == Some(bytes.as_slice()) =>
                                    {
                                        tally.ok += 1;
                                        tally.lat.push((i, ns));
                                    }
                                    Response::Ok { .. } => tally.mismatches += 1,
                                    Response::Err(_) => tally.errors += 1,
                                }
                            }
                        }
                        Err(_) => tally.errors += batch as u64,
                    }
                    continue;
                }
                let i = rng.gen_range(0..work.len());
                let item: &WorkItem = &work[i];
                let t0 = Instant::now();
                match c.query(&item.path, item.raw, None) {
                    Ok(Response::Ok { bytes, .. }) => {
                        let ns = t0.elapsed().as_nanos() as u64;
                        if baseline.get(&i).map(|b| b.as_slice()) == Some(bytes.as_slice()) {
                            tally.ok += 1;
                            tally.lat.push((i, ns));
                        } else {
                            tally.mismatches += 1;
                        }
                    }
                    Ok(Response::Err(_)) | Err(_) => tally.errors += 1,
                }
            }
            tally
        }));
    }
    let mut report = RunReport {
        clients: args.clients,
        requests: 0,
        errors: 0,
        mismatches: 0,
        wall_secs: 0.0,
        overall: LatencyBucket::default(),
        per_query: Vec::new(),
    };
    let mut by_name: HashMap<String, usize> = HashMap::new();
    for j in joins {
        let tally = j.join().expect("client thread panicked");
        report.requests += tally.ok;
        report.errors += tally.errors;
        report.mismatches += tally.mismatches;
        for (i, ns) in tally.lat {
            report.overall.push(ns);
            let name = &work[i].name;
            let slot = *by_name.entry(name.clone()).or_insert_with(|| {
                report
                    .per_query
                    .push((name.clone(), LatencyBucket::default()));
                report.per_query.len() - 1
            });
            report.per_query[slot].1.push(ns);
        }
    }
    report.wall_secs = wall.elapsed().as_secs_f64();
    report.per_query.sort_by(|a, b| a.0.cmp(&b.0));

    if args.shutdown {
        match Client::connect(&addr).and_then(|mut c| c.shutdown()) {
            Ok(()) => eprintln!("server shut down"),
            Err(e) => eprintln!("warning: shutdown failed: {e}"),
        }
    }
    if let Some(h) = embedded {
        if !args.shutdown {
            h.shutdown();
        }
        if let Err(e) = h.join() {
            eprintln!("warning: server join failed: {e}");
        }
    }

    let json = report.to_json();
    if let Some(p) = &args.out {
        if let Err(e) = std::fs::write(p, &json) {
            eprintln!("error: cannot write {}: {e}", p.display());
            exit(1);
        }
    }
    print!("{json}");
    if report.errors > 0 || report.mismatches > 0 {
        eprintln!(
            "FAILED: {} errors, {} mismatches",
            report.errors, report.mismatches
        );
        exit(1);
    }
}
