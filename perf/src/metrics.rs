//! The metric tables of `BENCHMARK.json`, in one place: the same eight
//! end-to-end names on every workload, and every per-layer name a traced
//! run reports (0 where the workload bypasses the layer).

use std::collections::BTreeMap;

use crate::harness::Report;

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// The end-to-end metrics, `--trace 0`: the same eight on every workload.
///
/// The bounds are what the reference box can honour (README, calibration):
/// the contract measures each metric's quartile spread over ten runs with
/// ten different seeds and refuses a spread above the bound, so a bound
/// has to cover both the box's timing noise (the three timing metrics) and
/// the seed-to-seed variation of the inputs (the counts: `service` reads
/// 6 % more or fewer pages from one XMark corpus to the next; per seed
/// every count repeats exactly).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("p50_ms", "ms", false, 0.25),
    e2e("tail_ms", "ms", false, 0.25),
    e2e("sim_disk_s", "s", false, 0.12),
    e2e("pages_io", "pages", false, 0.1),
    e2e("stored_bytes_per_elem", "B", false, 0.05),
    e2e("peak_rss_mb", "MiB", false, 0.15),
];

/// `(name, unit)` of the per-layer metrics, `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.ancestor_ns", "ns"),
    ("codec.encode_ns_per_elem", "ns"),
    ("codec.decode_ns_per_elem", "ns"),
    ("codec.bytes_per_elem", "B"),
    ("buffer.hit_ns", "ns"),
    ("buffer.miss_ns", "ns"),
    ("buffer.hit_rate", "ratio"),
    ("heap.write_ns_per_elem", "ns"),
    ("heap.scan_ns_per_elem", "ns"),
    ("heap.insert_logged_ns", "ns"),
    ("heap.delete_logged_us", "us"),
    ("heap.delete_pages_per_op", "pages"),
    ("zone.skip_rate", "ratio"),
    ("zone.records_filtered", "count"),
    ("sort.ns_per_elem", "ns"),
    ("sort.pages_io", "pages"),
    ("wal.commit_ns", "ns"),
    ("wal.log_bytes_per_user_byte", "ratio"),
    ("wal.gate_flushes_per_kop", "count"),
    ("wal.recover_ms", "ms"),
    ("wal.recover_ops_per_s", "1/s"),
    ("disk.seq_reads", "pages"),
    ("disk.rand_reads", "pages"),
    ("disk.seq_writes", "pages"),
    ("disk.rand_writes", "pages"),
    ("disk.prefetched", "pages"),
    ("bptree.bulk_load_ns_per_key", "ns"),
    ("bptree.get_ns", "ns"),
    ("bptree.range_ns_per_entry", "ns"),
    ("bptree.pages_per_get", "pages"),
    ("bptree.insert_logged_us", "us"),
    ("bptree.delete_logged_us", "us"),
    ("batch.refill_ns_per_elem", "ns"),
    ("batch.contained_ns_per_elem", "ns"),
    ("batch.bound_ns", "ns"),
    ("op.shcj.cpu_ms", "ms"),
    ("op.shcj.pages_io", "pages"),
    ("op.mhcj.cpu_ms", "ms"),
    ("op.mhcj.pages_io", "pages"),
    ("op.mhcj_rollup.cpu_ms", "ms"),
    ("op.mhcj_rollup.pages_io", "pages"),
    ("op.vpj.cpu_ms", "ms"),
    ("op.vpj.pages_io", "pages"),
    ("op.stacktree.cpu_ms", "ms"),
    ("op.stacktree.pages_io", "pages"),
    ("op.adb.cpu_ms", "ms"),
    ("op.adb.pages_io", "pages"),
    ("op.inljn.cpu_ms", "ms"),
    ("op.inljn.pages_io", "pages"),
    ("phase.partition_ms", "ms"),
    ("phase.build_ms", "ms"),
    ("phase.probe_ms", "ms"),
    ("phase.merge_ms", "ms"),
    ("phase.sort_ms", "ms"),
    ("phase.other_ms", "ms"),
    ("rollup.false_hit_rate", "ratio"),
    ("planner.choose_ns", "ns"),
    ("parallel.speedup_t2", "ratio"),
    ("sharded.sim_ratio_s2", "ratio"),
    ("sharded.replicated", "count"),
    ("shared.pages_per_query_k16", "pages"),
    ("update.insert_us", "us"),
    ("update.remove_us", "us"),
    ("xml.path_parse_ns", "ns"),
    ("xml.encode_s", "s"),
    ("server.parse_ns", "ns"),
    ("server.admit_ns", "ns"),
    ("server.execute_ms", "ms"),
    ("server.render_ns_per_code", "ns"),
    ("server.transport_ms", "ms"),
    ("server.ping_us", "us"),
    ("server.batch_ms_per_query_k16", "ms"),
    ("server.peak_waiting", "count"),
    ("trace.span_tiling_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("proc.cpu_s", "s"),
];

/// The per-layer metrics where a higher value is the better one; every
/// other reads better lower.
const HIGHER_IS_BETTER: &[&str] = &[
    "buffer.hit_rate",
    "zone.skip_rate",
    "wal.recover_ops_per_s",
    "parallel.speedup_t2",
    "trace.span_tiling_pct",
];

/// The four workloads with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "raw_join",
        "Data 47x the 500-frame pool, unsorted raw pages, cold per op: the paper's partitioning joins (SHCJ, MHCJ+Rollup, VPJ), their spills and the pool miss path do the work; no codec, index, WAL or server.",
    ),
    (
        "sorted_indexed",
        "Packed pages in document order, resident in 8192 frames: StackTree, ADB+ and INLJN exercise codec decode, batch kernels, the pool hit path, sort and B+-tree; bypasses partitioning and spills.",
    ),
    (
        "service",
        "XMark corpus behind the TCP query service: parse, admission, planner, render and socket are a visible share of a ~4 ms op; latency and page counts at 1 client, throughput at 2.",
    ),
    (
        "update_recover",
        "Logged inserts, removes and index gets beside read-joins in a 128-frame pool, one crash + WAL recovery per pass checked against a model: write path, log growth and recovery cost.",
    ),
];

/// `BENCHMARK.json`, rendered from the tables above so the file and the
/// program cannot drift apart (a unit test compares them).
pub fn benchmark_json(run_seconds: u32) -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let mut s =
        String::from("{\n  \"command\": [\"bash\", \"perf/run.sh\"],\n  \"paths\": [\"perf\"],\n");
    s.push_str(&format!(
        "  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n"
    ));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u)| {
            format!(
                "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\"}}",
                better(HIGHER_IS_BETTER.contains(n))
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Per-layer metrics whose value is a count that must repeat exactly
/// (checked bit-for-bit by `--check-counts`).
pub fn is_count(name: &str) -> bool {
    name.starts_with("disk.")
        || name.ends_with(".pages_io")
        || matches!(
            name,
            "zone.records_filtered"
                | "zone.skip_rate"
                | "buffer.hit_rate"
                | "codec.bytes_per_elem"
                | "heap.delete_pages_per_op"
                | "wal.log_bytes_per_user_byte"
                | "wal.gate_flushes_per_kop"
                | "bptree.pages_per_get"
                | "rollup.false_hit_rate"
                | "sharded.sim_ratio_s2"
                | "sharded.replicated"
                | "shared.pages_per_query_k16"
        )
}

/// `(name, unit)` rows of [`END_TO_END`].
pub fn end_to_end() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit))
}

/// `(name, unit)` rows of [`PER_LAYER`].
pub fn per_layer() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().copied()
}

/// Values a run collected, by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Moves the collected values into `report` in table order: every
    /// name of `table` is emitted (0 when the workload did not touch the
    /// layer), and a name outside the table is a bug in the workload.
    pub fn emit(
        self,
        table: impl Iterator<Item = (&'static str, &'static str)>,
        report: &mut Report,
    ) {
        let table: Vec<_> = table.collect();
        for name in self.0.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not declared in its table"
            );
        }
        for (name, unit) in table {
            let v = self.0.get(name).copied().unwrap_or(0.0);
            report.metric(name, v, unit);
            if is_count(name) || matches!(name, "sim_disk_s" | "pages_io" | "stored_bytes_per_elem")
            {
                report.count(name, v.to_bits());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
        for (name, unit) in e2e.chain(PER_LAYER.iter().copied()) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(HIGHER_IS_BETTER
            .iter()
            .all(|h| PER_LAYER.iter().any(|(n, _)| n == h)));
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn benchmark_json_is_the_rendered_tables() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(crate::DEFAULT_SECONDS as u32),
            "regenerate with: perf/run.sh --emit-benchmark-json > BENCHMARK.json"
        );
    }
}
