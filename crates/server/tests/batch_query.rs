//! Batched-query equivalence tests: `QUERYBATCH` must be a pure
//! performance construct. Every response in a batch — result codes over
//! the in-process API, exact response bytes over TCP — must be identical
//! to what the same query would have produced through a lone `QUERY`,
//! across page-compression modes, for shareable and unshareable queries
//! alike — and a multi-group batch moves the same pages every time.

use pbitree_server::proto::Response;
use pbitree_server::{spawn, Algorithm, Client, QueryService, ServiceConfig};
use pbitree_storage::CostModel;
use std::sync::Arc;

/// XMark tags that exist at the test scale factor, mixing large and
/// small populations so random pairs hit empty and non-empty results.
const TAGS: &[&str] = &[
    "person",
    "creditcard",
    "item",
    "keyword",
    "site",
    "open_auction",
    "bidder",
    "listitem",
    "text",
    "emailaddress",
];

fn service(compression: bool) -> QueryService {
    QueryService::new(ServiceConfig {
        sf: 0.002,
        buffer_pages: 128,
        reserve_frames: 16,
        default_budget: 48,
        cost: CostModel::free(),
        compression,
        ..ServiceConfig::default()
    })
    .unwrap()
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `k` random `//a//b` chains over the known tag pool.
fn random_chains(k: usize, seed: u64) -> Vec<String> {
    let mut x = seed | 1;
    (0..k)
        .map(|_| {
            let a = TAGS[(xorshift(&mut x) % TAGS.len() as u64) as usize];
            let d = TAGS[(xorshift(&mut x) % TAGS.len() as u64) as usize];
            format!("//{a}//{d}")
        })
        .collect()
}

/// The property: a batch of k random two-step chains returns, position
/// by position, exactly the codes k serial queries return — compression
/// off and on — and the shared-scan operator actually answered them.
#[test]
fn batch_matches_serial_across_compression() {
    for compression in [false, true] {
        let svc = service(compression);
        let paths = random_chains(16, 0xB0C);
        let serial: Vec<Vec<u64>> = paths
            .iter()
            .map(|p| svc.execute(p, false, None).unwrap().codes)
            .collect();
        let batch = svc.execute_batch(&paths, false, None).unwrap();
        assert_eq!(batch.len(), paths.len());
        let mut shared = 0;
        for (i, out) in batch.iter().enumerate() {
            let out = out.as_ref().unwrap();
            assert_eq!(
                out.codes, serial[i],
                "{} diverged (compression={compression})",
                paths[i]
            );
            if out.algorithms == [Algorithm::SharedScan] {
                shared += 1;
            }
        }
        assert_eq!(
            shared,
            paths.len(),
            "every two-step chain over known tags should ride the shared scan"
        );
    }
}

/// Mixed batches — raw queries, predicate steps, longer chains, unknown
/// tags, and parse errors — still answer every position exactly as the
/// serial path does, errors included.
#[test]
fn mixed_batch_falls_back_per_query() {
    let svc = service(false);
    let paths: Vec<String> = [
        "//person//creditcard",
        "//site//open_auction//bidder",   // three steps: serial chain
        "//person[name=p]//emailaddress", // predicate: serial chain
        "//no_such_tag//person",          // unknown tag: empty result
        "not a path",                     // parse error
        "//item//keyword",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let batch = svc.execute_batch(&paths, false, None).unwrap();
    for (i, p) in paths.iter().enumerate() {
        match (&batch[i], svc.execute(p, false, None)) {
            (Ok(got), Ok(want)) => assert_eq!(got.codes, want.codes, "{p}"),
            (Err(got), Err(want)) => {
                assert_eq!(got.to_string(), want.to_string(), "{p}")
            }
            (got, want) => panic!("{p}: batch {got:?} vs serial {want:?}"),
        }
    }
    // Raw batches skip the shared scan but still answer correctly.
    let raws = svc.execute_batch(&paths[..1], true, None).unwrap();
    let raw_out = raws[0].as_ref().unwrap();
    assert_ne!(raw_out.algorithms, vec![Algorithm::SharedScan]);
    assert_eq!(
        raw_out.codes,
        svc.execute(&paths[0], true, None).unwrap().codes
    );
}

/// One batch takes one admission grant, however many queries it carries.
#[test]
fn batch_admits_once() {
    let svc = service(false);
    let before = svc.admission().stats().admitted;
    let served_before = svc.queries_served();
    let paths = random_chains(12, 0xFACE);
    let batch = svc.execute_batch(&paths, false, None).unwrap();
    assert_eq!(svc.admission().stats().admitted, before + 1);
    let ok = batch.iter().filter(|o| o.is_ok()).count() as u64;
    assert_eq!(svc.queries_served(), served_before + ok);
    // And the grant is back: nothing left in use.
    assert_eq!(svc.admission().stats().in_use, 0);
}

/// The TCP leg: `QUERYBATCH` responses are byte-identical to `QUERY`
/// responses for the same paths, one frame per sub-query, in order.
#[test]
fn tcp_batch_responses_byte_identical_to_serial() {
    let svc = Arc::new(service(false));
    let handle = spawn(svc, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let paths = random_chains(8, 0xC0FFEE);
    let mut extended: Vec<String> = paths.clone();
    // Proto-valid but service-invalid: both the lone QUERY and the batch
    // route it to the same path parser, so even the ERR bytes agree.
    extended.push("//broken[".into());

    let mut serial = Client::connect(addr).unwrap();
    let want: Vec<Response> = extended
        .iter()
        .map(|p| serial.query(p, false, None).unwrap())
        .collect();

    let mut batched = Client::connect(addr).unwrap();
    let refs: Vec<&str> = extended.iter().map(|s| s.as_str()).collect();
    let got = batched.query_batch(&refs, false, None).unwrap();
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        match (g, w) {
            (Response::Ok { bytes: gb, .. }, Response::Ok { bytes: wb, .. }) => {
                assert_eq!(gb, wb, "{}: bytes diverged", extended[i]);
            }
            (Response::Err(ge), Response::Err(we)) => assert_eq!(ge, we),
            other => panic!("{}: frame kind diverged: {other:?}", extended[i]),
        }
    }

    assert!(batched.ping().unwrap(), "connection unusable after a batch");

    // Close every client before joining: the accept thread joins each
    // handler, and a handler only exits when its peer hangs up.
    drop(serial);
    drop(batched);
    let mut c = Client::connect(addr).unwrap();
    c.shutdown().unwrap();
    drop(c);
    handle.join().unwrap();
}

/// Shareable groups share the pool, so the order a batch runs them in
/// decides which pages the next group still finds resident. A batch runs
/// its groups in first-appearance order: from a cold pool too small for
/// their inputs, the same batch moves the same pages every time — exactly
/// the pages of its groups issued as consecutive single-group batches.
/// Every seeded permutation of the batch repeats its own page counts,
/// and answers each query with the codes a lone `QUERY` returns.
#[test]
fn batch_groups_run_in_first_appearance_order() {
    let svc = QueryService::new(ServiceConfig {
        sf: 0.05,
        buffer_pages: 24,
        reserve_frames: 4,
        default_budget: 20,
        ..ServiceConfig::default()
    })
    .unwrap();
    // Three groups (descendant tags listitem, text, keyword), chained so
    // one group's descendant file is the next group's ancestor file; their
    // inputs span about twice the pool.
    let groups: Vec<Vec<String>> = [
        &["//item//listitem", "//description//listitem"][..],
        &["//listitem//text", "//parlist//text"],
        &["//text//keyword"],
    ]
    .iter()
    .map(|g| g.iter().map(|p| p.to_string()).collect())
    .collect();
    let batch: Vec<String> = [
        &groups[0][0],
        &groups[1][0],
        &groups[2][0],
        &groups[0][1],
        &groups[1][1],
    ]
    .map(String::clone)
    .to_vec();
    let serial: Vec<Vec<u64>> = batch
        .iter()
        .map(|p| svc.execute(p, false, None).unwrap().codes)
        .collect();
    let cold_io = |batches: &[Vec<String>]| {
        svc.pool().evict_all().unwrap();
        let before = svc.pool().io_stats();
        for b in batches {
            for (p, out) in b.iter().zip(svc.execute_batch(b, false, None).unwrap()) {
                let out = out.unwrap();
                assert_eq!(out.algorithms, [Algorithm::SharedScan], "{p}");
                let i = batch.iter().position(|q| q == p).unwrap();
                assert_eq!(out.codes, serial[i], "{p} differs from its lone QUERY");
            }
        }
        svc.pool().io_stats().since(&before)
    };
    let first = cold_io(std::slice::from_ref(&batch));
    assert!(first.reads() > 24, "inputs fit the pool: {first}");
    assert_eq!(cold_io(&groups), first, "consecutive single-group batches");
    // Permutation 0 is the batch as written.
    let mut x = 0x5EED_u64;
    for perm in 0..6 {
        let mut order = batch.clone();
        for i in (1..order.len()).rev().filter(|_| perm > 0) {
            order.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
        }
        let own = cold_io(std::slice::from_ref(&order));
        for run in 1..5 {
            assert_eq!(
                cold_io(std::slice::from_ref(&order)),
                own,
                "permutation {perm} {order:?}, run {run}"
            );
        }
    }
}
