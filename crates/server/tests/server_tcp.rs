//! End-to-end TCP tests: protocol, concurrent clients, clean shutdown.

use std::sync::Arc;

use pbitree_server::proto::{write_ok, Response};
use pbitree_server::server::Client;
use pbitree_server::{spawn, QueryService, ServiceConfig};
use pbitree_storage::CostModel;
use pbitree_xml::DescendantPath;

fn service(sf: f64) -> QueryService {
    QueryService::new(ServiceConfig {
        sf,
        buffer_pages: 128,
        reserve_frames: 16,
        default_budget: 24,
        cost: CostModel::free(),
        ..ServiceConfig::default()
    })
    .unwrap()
}

#[test]
fn tcp_round_trip_matches_in_process_results() {
    let svc = Arc::new(service(0.002));
    let handle = spawn(svc.clone(), "127.0.0.1:0").unwrap();

    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(c.ping().unwrap());

    for (path, raw) in [("//person//creditcard", false), ("//item//keyword", true)] {
        let want = svc.execute(path, raw, None).unwrap().codes;
        match c.query(path, raw, None).unwrap() {
            Response::Ok { codes, .. } => assert_eq!(codes, want, "{path}"),
            Response::Err(e) => panic!("{path}: {e}"),
        }
    }

    // Errors come back as ERR without dropping the connection.
    assert!(matches!(
        c.query("not-a-path", false, None),
        Err(_) | Ok(Response::Err(_))
    ));
    match c.query("//person", false, Some(1_000_000)).unwrap() {
        Response::Err(e) => assert!(e.contains("admission"), "{e}"),
        Response::Ok { .. } => panic!("oversized budget was admitted"),
    }
    assert!(c.ping().unwrap(), "connection survived the errors");

    let stats = c.stats().unwrap();
    assert!(stats.contains("\"queries\""), "{stats}");

    c.shutdown().unwrap();
    handle.join().unwrap();

    // Answers of thousands of codes, alone and batched: each response
    // spans many `BufReader` refills on both ends of the socket. The
    // corpus is larger here, so the paths have that many answers.
    let big = Arc::new(service(0.05));
    let handle = spawn(big.clone(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let paths = ["//site//#text", "//description//#text"];
    let check = |path: &str, raw: bool, resp: Response| {
        let Response::Ok { codes, bytes } = resp else {
            panic!("{path} raw={raw}: {resp:?}");
        };
        let mut want = Vec::new();
        write_ok(&mut want, &big.execute(path, raw, None).unwrap().codes).unwrap();
        assert!(
            bytes == want,
            "{path} raw={raw}: bytes differ from in process"
        );
        let naive: Vec<u64> = DescendantPath::parse(path)
            .unwrap()
            .evaluate_naive(big.document())
            .into_iter()
            .map(|c| c.get())
            .collect();
        assert!(naive.len() >= 5_000, "{path}: only {} codes", naive.len());
        assert_eq!(codes, naive, "{path} raw={raw}");
    };
    for path in paths {
        for raw in [false, true] {
            check(path, raw, c.query(path, raw, None).unwrap());
        }
    }
    let batch = c.query_batch(&paths, false, None).unwrap();
    assert_eq!(batch.len(), paths.len());
    for (path, resp) in paths.into_iter().zip(batch) {
        check(path, false, resp);
    }
    c.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn many_clients_identical_responses_and_clean_shutdown() {
    let svc = Arc::new(service(0.002));
    let handle = spawn(svc.clone(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Serial baseline bytes through one connection.
    let paths = [
        ("//person//creditcard", false),
        ("//item//keyword", true),
        ("//listitem//text", false),
    ];
    let mut base = Vec::new();
    {
        let mut c = Client::connect(addr).unwrap();
        for &(p, raw) in &paths {
            match c.query(p, raw, None).unwrap() {
                Response::Ok { bytes, .. } => base.push(bytes),
                Response::Err(e) => panic!("{p}: {e}"),
            }
        }
    }
    let base = Arc::new(base);

    std::thread::scope(|s| {
        for t in 0..16 {
            let base = Arc::clone(&base);
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for r in 0..4 {
                    let i = (t + r) % paths.len();
                    let (p, raw) = paths[i];
                    match c.query(p, raw, None).unwrap() {
                        Response::Ok { bytes, .. } => {
                            assert_eq!(bytes, base[i], "{p} differed from serial bytes")
                        }
                        Response::Err(e) => panic!("{p}: {e}"),
                    }
                }
            });
        }
    });

    assert_eq!(svc.queries_served(), 3 + 16 * 4);

    // Handle-initiated shutdown (no client) also terminates cleanly.
    handle.shutdown();
    handle.join().unwrap();

    // The admission gate is closed: an in-process query is refused.
    assert!(svc.execute("//person", false, None).is_err());
}
