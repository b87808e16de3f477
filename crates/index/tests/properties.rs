//! Property-style tests: the B+-tree must agree with `BTreeMap` under
//! arbitrary inputs. Cases are drawn from a deterministic xorshift stream
//! so every failure reproduces by seed without external dependencies.

use pbitree_index::BPlusTree;
use pbitree_storage::{recover, BufferPool, CostModel, Disk, MemBackend, SharedBackend, Wal};
use std::collections::BTreeMap;

fn pool() -> BufferPool {
    BufferPool::new(Disk::in_memory_free(), 32)
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Bulk load + get/range agree with a BTreeMap built from the same data.
#[test]
fn bulk_load_matches_btreemap() {
    for seed in 1..=16u64 {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let n = (xorshift(&mut x) % 2000) as usize;
        let keys: std::collections::BTreeSet<u64> = (0..n).map(|_| xorshift(&mut x)).collect();
        let p = pool();
        let model: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k ^ 0xFF)).collect();
        let t = BPlusTree::bulk_load(&p, model.iter().map(|(&k, &v)| (k, v))).unwrap();
        assert_eq!(t.len(), model.len() as u64, "seed {seed}");
        // Point probes, present and absent.
        for &k in model.keys().take(50) {
            assert_eq!(t.get(&p, &k).unwrap(), Some(k ^ 0xFF), "seed {seed}");
        }
        for k in [0u64, 1, u64::MAX, 12345] {
            assert_eq!(
                t.get(&p, &k).unwrap(),
                model.get(&k).copied(),
                "seed {seed}"
            );
        }
        // Full iteration in order.
        let got: Vec<(u64, u64)> = t.iter(&p).unwrap().collect();
        let expect: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(got, expect, "seed {seed}");
    }
}

/// A committed mutation of a logged tree: the entry inserted, or the
/// entry a delete removed.
#[derive(Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Delete(u64, u64),
}

/// The multiset of entries `ops` leave, each key's values sorted.
fn model_of(ops: &[Op]) -> BTreeMap<u64, Vec<u64>> {
    let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &op in ops {
        match op {
            Op::Insert(k, v) => model.entry(k).or_default().push(v),
            Op::Delete(k, v) => {
                let vs = model.get_mut(&k).expect("deleted a key the model lacks");
                vs.swap_remove(
                    vs.iter()
                        .position(|&x| x == v)
                        .expect("value of another key"),
                );
                if vs.is_empty() {
                    model.remove(&k);
                }
            }
        }
    }
    model.values_mut().for_each(|vs| vs.sort_unstable());
    model
}

/// The tree holds exactly `model`: its length, its keys in order with
/// multiplicity, and every key's values as a multiset.
fn assert_matches(
    p: &BufferPool,
    t: &BPlusTree<u64, u64>,
    model: &BTreeMap<u64, Vec<u64>>,
    at: &str,
) {
    let mut got: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut last = 0;
    for (k, v) in t.iter(p).unwrap() {
        assert!(k >= last, "{at}: keys out of order");
        last = k;
        got.entry(k).or_default().push(v);
    }
    got.values_mut().for_each(|vs| vs.sort_unstable());
    assert_eq!(&got, model, "{at}");
    let total: usize = model.values().map(Vec::len).sum();
    assert_eq!(t.len(), total as u64, "{at}");
}

/// Incremental (logged) inserts and deletes agree with the model,
/// including duplicates, across seeded crashes: at a crash the pool and
/// every frame it cached vanish, after a log flush or without one, and
/// `recover` must rebuild exactly the committed prefix of the history
/// that reached the disk. Without a flush that is what the WAL gate forced
/// out for the evictions of the 8-frame pool, usually nothing since the
/// last flush.
#[test]
fn inserts_match_model() {
    for seed in 1..=12u64 {
        let mut x = seed.wrapping_mul(0xC2B2AE3D27D4EB4F) | 1;
        let n = (xorshift(&mut x) % 1500) as usize;
        let backend = SharedBackend::new(MemBackend::new());
        let cold = || BufferPool::new(Disk::new(Box::new(backend.clone()), CostModel::free()), 8);
        let mut p = cold();
        let mut wal = Wal::create(&p);
        let wal_file = wal.file();
        let mut t = BPlusTree::<u64, u64>::new_logged(&p, &wal).unwrap();
        let file = t.file_id();
        wal.flush(&p).unwrap();
        // Operation ids: the tree's creation is 1, `ops[i]` is i + 2.
        let mut ops: Vec<Op> = Vec::new();
        let mut crashes = 0;
        for i in 0..n {
            let k = xorshift(&mut x) % (u16::MAX as u64 + 1);
            let roll = xorshift(&mut x);
            if roll.is_multiple_of(4) {
                // Delete the first entry at or after `k`: the delete takes
                // the first entry of its key.
                let Some((k, v)) = t.range_from(&p, &k).unwrap().next() else {
                    continue;
                };
                assert!(t.delete_logged(&p, &wal, &k).unwrap(), "seed {seed}");
                ops.push(Op::Delete(k, v));
            } else {
                t.insert_logged(&p, &wal, k, roll).unwrap();
                ops.push(Op::Insert(k, roll));
            }
            if roll % 97 == 5 {
                if roll % 2 == 1 {
                    wal.flush(&p).unwrap();
                }
                drop((t, wal, p));
                p = cold();
                let report;
                (wal, report) = recover(&p, wal_file).unwrap();
                let survived = report.last_op as usize - 1;
                assert!(survived <= ops.len(), "seed {seed}: recovered unlogged ops");
                if roll % 2 == 1 {
                    assert_eq!(survived, ops.len(), "seed {seed}: flushed ops lost");
                }
                ops.truncate(survived);
                t = BPlusTree::open_logged(&p, file).unwrap();
                assert_matches(
                    &p,
                    &t,
                    &model_of(&ops),
                    &format!("seed {seed} crash at op {i}"),
                );
                crashes += 1;
            }
        }
        assert_matches(&p, &t, &model_of(&ops), &format!("seed {seed}"));
        assert!(
            n < 500 || crashes > 0,
            "seed {seed}: {n} ops crashed nowhere"
        );
    }
}

/// range_from yields exactly the model's range, even when the lower
/// bound hits duplicate keys.
#[test]
fn range_from_matches_model() {
    for seed in 1..=24u64 {
        let mut x = seed.wrapping_mul(0xD6E8FEB86659FD93) | 1;
        let n = 1 + (xorshift(&mut x) % 800) as usize;
        let keys: Vec<u64> = (0..n).map(|_| xorshift(&mut x) % 500).collect();
        let bound = xorshift(&mut x) % 600;
        let p = pool();
        let mut sorted = keys;
        sorted.sort_unstable();
        let t = BPlusTree::bulk_load(&p, sorted.iter().map(|&k| (k, k))).unwrap();
        let got: Vec<u64> = t.range_from(&p, &bound).unwrap().map(|(k, _)| k).collect();
        let expect: Vec<u64> = sorted.iter().copied().filter(|&k| k >= bound).collect();
        assert_eq!(got, expect, "seed {seed} bound {bound}");
    }
}
