//! Property-style tests: the B+-tree must agree with `BTreeMap` under
//! arbitrary inputs. Cases are drawn from a deterministic xorshift stream
//! so every failure reproduces by seed without external dependencies.

use pbitree_index::BPlusTree;
use pbitree_storage::{BufferPool, Disk, Wal};
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

/// Incremental (logged) inserts agree with the model, including duplicates.
#[test]
fn inserts_match_model() {
    for seed in 1..=12u64 {
        let mut x = seed.wrapping_mul(0xC2B2AE3D27D4EB4F) | 1;
        let n = (xorshift(&mut x) % 1500) as usize;
        let p = pool();
        let wal = Wal::create(&p);
        let mut t = BPlusTree::<u64, u64>::new_logged(&p, &wal).unwrap();
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for _ in 0..n {
            let k = xorshift(&mut x) % (u16::MAX as u64 + 1);
            let v = xorshift(&mut x);
            t.insert_logged(&p, &wal, k, v).unwrap();
            model.entry(k).or_default().push(v);
        }
        let total: usize = model.values().map(|v| v.len()).sum();
        assert_eq!(t.len(), total as u64, "seed {seed}");
        // Key sequence (with multiplicity) matches.
        let got: Vec<u64> = t.iter(&p).unwrap().map(|(k, _)| k).collect();
        let expect: Vec<u64> = model
            .iter()
            .flat_map(|(&k, vs)| std::iter::repeat_n(k, vs.len()))
            .collect();
        assert_eq!(got, expect, "seed {seed}");
        // Values per key match as multisets.
        for (&k, vs) in model.iter().take(30) {
            let mut got: Vec<u64> = t
                .range_from(&p, &k)
                .unwrap()
                .take_while(|(kk, _)| *kk == k)
                .map(|(_, v)| v)
                .collect();
            got.sort_unstable();
            let mut expect = vs.clone();
            expect.sort_unstable();
            assert_eq!(got, expect, "seed {seed}");
        }
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
