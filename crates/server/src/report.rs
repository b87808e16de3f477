//! Load-generator workload mix and latency reporting.
//!
//! The workload is the B1–B10 benchmark mix restated as descendant paths
//! over the XMark corpus (one path per ancestor-tag × descendant-tag
//! combination of each spec), each emitted in both planner flavors
//! (sorted-input and `raw`). Clients draw from the mix with a seeded
//! vendored PRNG, so a run is reproducible from its seed.
//!
//! The report is hand-rolled JSON: overall throughput plus p50/p95/p99
//! latency, and a per-query breakdown.

use pbitree_datagen::queries::xmark_queries;

/// One workload entry: a named path plus its planner flavor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkItem {
    /// Spec name (`B1`..`B10`), suffixed `/raw` for the raw flavor.
    pub name: String,
    /// The `//a//b` path.
    pub path: String,
    /// Whether the query declares its inputs unsorted (`raw`).
    pub raw: bool,
}

/// The B1–B10 mix as protocol queries, both flavors of each path.
pub fn xmark_workload() -> Vec<WorkItem> {
    let mut out = Vec::new();
    for spec in xmark_queries() {
        for a in spec.a_tags {
            for d in spec.d_tags {
                let path = format!("//{a}//{d}");
                for raw in [false, true] {
                    out.push(WorkItem {
                        name: format!("{}{}", spec.name, if raw { "/raw" } else { "" }),
                        path: path.clone(),
                        raw,
                    });
                }
            }
        }
    }
    out
}

/// The `p`-th percentile (0–100) of `sorted` (ascending), by the
/// nearest-rank method. Empty input yields 0.
pub fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Latencies of one bucket (overall or per query name).
#[derive(Debug, Clone, Default)]
pub struct LatencyBucket {
    /// Request latencies in nanoseconds, unordered.
    pub lat_ns: Vec<u64>,
}

impl LatencyBucket {
    /// Adds one observation.
    pub fn push(&mut self, ns: u64) {
        self.lat_ns.push(ns);
    }

    /// `(p50, p95, p99)` in milliseconds.
    pub fn percentiles_ms(&mut self) -> (f64, f64, f64) {
        self.lat_ns.sort_unstable();
        (
            ms(percentile_ns(&self.lat_ns, 50.0)),
            ms(percentile_ns(&self.lat_ns, 95.0)),
            ms(percentile_ns(&self.lat_ns, 99.0)),
        )
    }
}

/// The full run summary the load generator emits.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests completed successfully.
    pub requests: u64,
    /// Requests that failed (protocol errors, mismatches).
    pub errors: u64,
    /// Responses that differed from the serial baseline, byte for byte.
    pub mismatches: u64,
    /// Wall-clock seconds of the concurrent phase.
    pub wall_secs: f64,
    /// Overall latencies.
    pub overall: LatencyBucket,
    /// Per-query-name latencies, in first-seen order.
    pub per_query: Vec<(String, LatencyBucket)>,
}

impl RunReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&mut self) -> String {
        let (p50, p95, p99) = self.overall.percentiles_ms();
        let qps = if self.wall_secs > 0.0 {
            self.requests as f64 / self.wall_secs
        } else {
            0.0
        };
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"server_loadgen\",\n");
        s.push_str(&format!("  \"clients\": {},\n", self.clients));
        s.push_str(&format!("  \"requests\": {},\n", self.requests));
        s.push_str(&format!("  \"errors\": {},\n", self.errors));
        s.push_str(&format!("  \"mismatches\": {},\n", self.mismatches));
        s.push_str(&format!("  \"wall_secs\": {:.3},\n", self.wall_secs));
        s.push_str(&format!("  \"throughput_qps\": {qps:.1},\n"));
        s.push_str(&format!("  \"p50_ms\": {p50:.3},\n"));
        s.push_str(&format!("  \"p95_ms\": {p95:.3},\n"));
        s.push_str(&format!("  \"p99_ms\": {p99:.3},\n"));
        s.push_str("  \"per_query\": [\n");
        let n = self.per_query.len();
        for (i, (name, bucket)) in self.per_query.iter_mut().enumerate() {
            let (q50, q95, q99) = bucket.percentiles_ms();
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"requests\": {}, \"p50_ms\": {:.3}, \
                 \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
                name,
                bucket.lat_ns.len(),
                q50,
                q95,
                q99,
                if i + 1 < n { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_covers_all_specs_in_both_flavors() {
        let w = xmark_workload();
        // 10 specs, B9 has two descendant tags => 11 paths, 2 flavors.
        assert_eq!(w.len(), 22);
        assert!(w.iter().all(|i| i.path.starts_with("//")));
        assert_eq!(w.iter().filter(|i| i.raw).count(), 11);
        assert!(w.iter().any(|i| i.name == "B9/raw"));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 50.0), 50);
        assert_eq!(percentile_ns(&v, 95.0), 95);
        assert_eq!(percentile_ns(&v, 99.0), 99);
        assert_eq!(percentile_ns(&v, 100.0), 100);
        assert_eq!(percentile_ns(&[7], 50.0), 7);
        assert_eq!(percentile_ns(&[], 99.0), 0);
    }

    #[test]
    fn report_renders_valid_shape() {
        let mut r = RunReport {
            clients: 4,
            requests: 10,
            errors: 0,
            mismatches: 0,
            wall_secs: 2.0,
            overall: LatencyBucket {
                lat_ns: vec![1_000_000, 2_000_000, 3_000_000],
            },
            per_query: vec![(
                "B1".into(),
                LatencyBucket {
                    lat_ns: vec![1_500_000],
                },
            )],
        };
        let j = r.to_json();
        assert!(j.contains("\"throughput_qps\": 5.0"));
        assert!(j.contains("\"p50_ms\": 2.000"));
        assert!(j.contains("\"name\": \"B1\""));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
