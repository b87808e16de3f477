//! What every workload shares: the metric report, the per-op latency log
//! with the quiet-pass estimator and the rank-stability check, order
//! statistics, and `/proc` readings.

use std::time::Instant;

use pbitree_storage::StatsSnapshot;

use crate::metrics::Values;
use crate::spans::Spans;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops issued in the measured phases (the contract's `attempted`).
    pub attempted: u64,
    /// Ops whose output differed from its oracle, errored or was refused.
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Exactly repeatable counts, compared bit-for-bit by `--check-counts`.
    pub counts: Vec<(String, u64)>,
    /// Free-form lines printed before the metrics (sizes, planner choices,
    /// rank-stability table).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_owned(), value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one checked op outcome: measured ops count as attempted,
    /// and a wrong output fails the run whether measured or not.
    pub fn check(&mut self, measuring: bool, ok: bool) {
        self.attempted += u64::from(measuring);
        self.failed += u64::from(!ok);
    }
}

/// Run-wide knobs parsed from the command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Target measured seconds; each workload turns it into a fixed pass
    /// count through its nominal per-pass time (see `passes`).
    pub seconds: f64,
    pub trace: bool,
    /// `--smoke`: one measured pass at 5 % scale, oracles on.
    pub smoke: bool,
    /// `--counts-only`: two measured passes, one set-up (the child side of
    /// `--check-counts`).
    pub counts_only: bool,
    /// `--check-ranks`: a failed rank-stability check fails the run (the
    /// calibration runs set it; a gated run only prints the verdict, so a
    /// noisy neighbour cannot turn a timing wobble into a failed op).
    pub check_ranks: bool,
    pub trace_out: Option<std::path::PathBuf>,
    pub start: Instant,
}

impl RunCfg {
    /// Dataset scale: the paper's full cardinalities, or 5 % under `--smoke`.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            0.05
        } else {
            1.0
        }
    }

    /// `(warm-up, measured)` pass counts. The measured count is fixed by
    /// `--seconds` and the workload's nominal pass time on the reference
    /// box — never by a timer — so every count metric is a pure function
    /// of `(seed, seconds)`. At least `min` passes always run.
    pub fn passes(&self, warmup: usize, nominal_pass_s: f64, min: usize) -> (usize, usize) {
        // A traced run needs one pass of each kind.
        if self.smoke {
            return (1, if self.trace { 2 } else { 1 });
        }
        if self.counts_only {
            return (warmup, 2);
        }
        let n = (self.seconds / nominal_pass_s).round() as usize;
        (warmup, n.max(min))
    }

    /// Whether measured pass `k` of a traced run records spans and runs on
    /// the program's tracer. Traced and untraced passes alternate, so slow
    /// drift of the box cancels out of `trace.overhead_pct`; an untraced
    /// run traces nothing.
    pub fn traced_pass(&self, k: usize) -> bool {
        self.trace && k % 2 == 1
    }

    /// How many times the program-side set-up is repeated; `setup_s` is
    /// the quietest of them.
    pub fn setup_reps(&self) -> usize {
        if self.smoke || self.counts_only {
            1
        } else {
            5
        }
    }
}

/// Counter deltas, CPU seconds and per-pass rates summed over the measured
/// passes of one kind (index 0 untraced, 1 traced).
#[derive(Default)]
pub struct PassSum {
    pub snap: StatsSnapshot,
    pub prefetched: u64,
    pub cpu_s: f64,
    /// Ops per wall second, one entry per pass.
    pub rates: Vec<f64>,
    /// Page transfers of each pass: identical work shows as identical
    /// entries.
    pub pages: Vec<u64>,
}

/// Adds `d` into `acc` counter by counter (`IoStats` has `since` but no
/// sum of its own).
pub fn add_snapshot(acc: &mut StatsSnapshot, d: &StatsSnapshot) {
    acc.io.seq_reads += d.io.seq_reads;
    acc.io.rand_reads += d.io.rand_reads;
    acc.io.seq_writes += d.io.seq_writes;
    acc.io.rand_writes += d.io.rand_writes;
    acc.io.sim_ns += d.io.sim_ns;
    acc.pool.absorb(&d.pool);
}

impl PassSum {
    pub fn add(&mut self, d: &StatsSnapshot, prefetched: u64) {
        add_snapshot(&mut self.snap, d);
        self.prefetched += prefetched;
        self.pages.push(d.io.total());
    }

    /// "pass ops/s: …" and whether every pass moved the same pages.
    pub fn lines(sums: &[PassSum; 2]) -> Vec<String> {
        let rates = sums.iter().flat_map(|s| &s.rates);
        let pages: Vec<u64> = sums.iter().flat_map(|s| s.pages.iter().copied()).collect();
        vec![
            format!(
                "pass ops/s: {}",
                rates
                    .map(|r| format!("{r:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            format!(
                "passes_identical {} (pages_io per pass: {} … {})",
                pages.windows(2).all(|w| w[0] == w[1]),
                pages.iter().min().copied().unwrap_or(0),
                pages.iter().max().copied().unwrap_or(0)
            ),
        ]
    }
}

/// Sets the metrics every traced run derives from its two kinds of pass.
pub fn trace_run_metrics(values: &mut Values, sums: &[PassSum; 2], spans: &Spans) {
    let (u, t) = (median(&sums[0].rates), median(&sums[1].rates));
    values.set("trace.overhead_pct", (u - t) / u * 100.0);
    values.set("trace.span_tiling_pct", spans.op_tiling() * 100.0);
    values.set("proc.cpu_s", sums[1].cpu_s);
}

/// Median of `xs` (mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs`.
pub fn min_of(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// 1-based nearest-rank index of the `p`-th percentile among `n` samples.
pub fn rank_of(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Python's `statistics.quantiles(xs, n=4)` (exclusive method) — the
/// rule the benchmark contract states its spreads in.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |i: usize| {
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(1), q(2), q(3))
}

/// Per-op wall latencies of the measured passes, each tagged with its
/// pass, its position in the script and its op class.
///
/// # The quiet pass
///
/// Every measured pass of every workload is the **same work**: the same
/// ops in the same order from the same starting state. On a shared box
/// interference (a busy sibling core, a descheduled vCPU) comes and goes at
/// every time scale from milliseconds to minutes and only ever *adds* time
/// — a register-only loop on the reference box runs 17 % over its own
/// minimum at the median. So the timing metrics are computed on the
/// *quiet pass*: for each script position, the minimum latency over the
/// `N` passes. It is the estimate of the undisturbed cost that repeats
/// from run to run; medians over passes did not (see README, calibration).
pub struct LatencyLog {
    classes: Vec<&'static str>,
    /// `(pass, position, class index, ns)`.
    ops: Vec<(u32, u32, u16, u64)>,
}

/// Where the percentile ranks fell.
pub struct RankCheck {
    pub lines: Vec<String>,
    pub stable: bool,
}

impl LatencyLog {
    pub fn new(classes: &[&'static str]) -> Self {
        LatencyLog {
            classes: classes.to_vec(),
            ops: Vec::new(),
        }
    }

    pub fn push(&mut self, pass: usize, pos: usize, class: usize, ns: u64) {
        self.ops.push((pass as u32, pos as u32, class as u16, ns));
    }

    /// The quiet pass: `(min ns over passes, class)` per script position,
    /// over the passes `keep` admits.
    fn quiet(&self, keep: impl Fn(usize) -> bool) -> Vec<(u64, u16)> {
        let positions = self.ops.iter().map(|o| o.1 as usize + 1).max().unwrap_or(0);
        let mut best: Vec<Option<(u64, u16)>> = vec![None; positions];
        for &(pass, pos, class, ns) in &self.ops {
            if keep(pass as usize) {
                let slot = &mut best[pos as usize];
                if slot.is_none_or(|(b, _)| ns < b) {
                    *slot = Some((ns, class));
                }
            }
        }
        best.into_iter().flatten().collect()
    }

    /// Ops per second of the quiet pass.
    pub fn quiet_rate(&self) -> f64 {
        let q = self.quiet(|_| true);
        q.len() as f64 / (q.iter().map(|x| x.0).sum::<u64>() as f64 / 1e9)
    }

    /// The tail percentile the script supports: p95 from 200 ops a pass on
    /// (ten positions beyond it), p90 below.
    pub fn tail_percentile(&self) -> f64 {
        if self.quiet(|_| true).len() >= 200 {
            95.0
        } else {
            90.0
        }
    }

    /// Nearest-rank percentile of the quiet pass, in ms.
    pub fn quiet_percentile_ms(&self, p: f64) -> f64 {
        let mut v: Vec<u64> = self.quiet(|_| true).into_iter().map(|x| x.0).collect();
        v.sort_unstable();
        v[rank_of(p, v.len()) - 1] as f64 / 1e6
    }

    /// One line per class: op count, median and range of its latencies
    /// over all measured ops.
    pub fn class_lines(&self) -> Vec<String> {
        (0..self.classes.len())
            .filter_map(|c| {
                let mut v: Vec<u64> = self
                    .ops
                    .iter()
                    .filter(|o| usize::from(o.2) == c)
                    .map(|o| o.3)
                    .collect();
                if v.is_empty() {
                    return None;
                }
                v.sort_unstable();
                let ms = |ns: u64| ns as f64 / 1e6;
                Some(format!(
                    "class {:<16} n={:<6} p50 {:.4} ms  min {:.4}  max {:.4}",
                    self.classes[c],
                    v.len(),
                    ms(v[v.len() / 2]),
                    ms(v[0]),
                    ms(v[v.len() - 1])
                ))
            })
            .collect()
    }

    /// The rank-stability self-check. A percentile over a mixed script
    /// jumps when its rank lands between two cost classes, so each rank
    /// must sit inside one class: in the window of `margin` ranks (at
    /// least 2 % of the script) either side of the rank, one class must
    /// hold a clear majority — classes overlap at their edges, so "inside"
    /// cannot mean "pure" — and pass by pass the op at that rank must come
    /// from that same class.
    pub fn rank_check(&self, margin: usize) -> RankCheck {
        let tail = self.tail_percentile();
        // Modal class of the window around the `p`-th percentile rank,
        // with the rank and the class's share of the window.
        let class_at = |v: &[(u64, u16)], p: f64, half: usize| {
            let r = rank_of(p, v.len()) - 1;
            let window = &v[r.saturating_sub(half)..=(r + half).min(v.len() - 1)];
            let mut tally = vec![0usize; self.classes.len()];
            for x in window {
                tally[usize::from(x.1)] += 1;
            }
            let (class, votes) = tally
                .iter()
                .enumerate()
                .max_by_key(|(_, n)| **n)
                .expect("classes");
            (r + 1, class, *votes as f64 / window.len() as f64)
        };
        // Tiny scripts (five ops a pass) have no room for a margin.
        let half_of = |n: usize| margin.min(n / 20).max(n / 50);
        let mut lines = Vec::new();
        let mut stable = true;
        let mut quiet = self.quiet(|_| true);
        quiet.sort_unstable();
        let mut want = [0usize; 2];
        let mut cells = Vec::new();
        for (slot, p) in [50.0, tail].into_iter().enumerate() {
            let (rank, class, share) = class_at(&quiet, p, half_of(quiet.len()));
            want[slot] = class;
            let inside = share > 0.6;
            stable &= inside;
            cells.push(format!(
                "p{p:.0}@{rank}/{}={} ({:.0}% of its window{})",
                quiet.len(),
                self.classes[class],
                share * 100.0,
                if inside { "" } else { ": on a class boundary" }
            ));
        }
        lines.push(format!("rank quiet pass: {}", cells.join(", ")));
        // Per pass the same class must sit at each rank. A disturbed pass
        // can swap two neighbouring classes (`raw_join`'s third and fourth
        // are 17 % apart), so a majority of the passes agreeing is what is
        // asked.
        let passes = self.ops.iter().map(|o| o.0 as usize + 1).max().unwrap_or(0);
        let mut agree = [0usize; 2];
        for pass in 0..passes {
            let mut v = self.quiet(|p| p == pass);
            v.sort_unstable();
            for (slot, p) in [50.0, tail].into_iter().enumerate() {
                let (_, class, _) = class_at(&v, p, half_of(v.len()));
                agree[slot] += usize::from(class == want[slot]);
            }
        }
        stable &= agree.iter().all(|&a| 2 * a > passes);
        lines.push(format!(
            "rank per pass: p50 in its class in {}/{passes} passes, tail in {}/{passes}",
            agree[0], agree[1]
        ));
        lines.push(format!(
            "rank_stable {stable} ({} ops a pass, tail = p{tail:.0})",
            quiet.len()
        ));
        RankCheck { lines, stable }
    }

    /// Appends the class table and the rank-stability verdict to `report`;
    /// under `--check-ranks` an unstable verdict fails the run.
    pub fn report_ranks(&self, cfg: &RunCfg, report: &mut Report) {
        report.notes.extend(self.class_lines());
        let rc = self.rank_check(2);
        report.notes.extend(rc.lines);
        if cfg.check_ranks && !rc.stable {
            report.failed += 1;
        }
    }
}

/// Times one op: wall latency into `log` (as `(log, pass, position,
/// class)`), one `op` span into `spans`, and returns the closure's value.
pub fn timed_op<T>(
    spans: &mut Spans,
    log: Option<(&mut LatencyLog, usize, usize, usize)>,
    name: &'static str,
    f: impl FnOnce(&mut Spans) -> T,
) -> T {
    let span = spans.begin_op(name);
    let t0 = Instant::now();
    let out = f(spans);
    let ns = t0.elapsed().as_nanos() as u64;
    spans.end(span);
    if let Some((log, pass, pos, class)) = log {
        log.push(pass, pos, class, ns);
    }
    out
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process so far (all threads), from
/// `/proc/self/stat` at the kernel's 100 Hz tick — the zero-dependency
/// stand-in for `getrusage`.
pub fn proc_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the `)`.
    let rest = stat.rsplit_once(')').map_or("", |x| x.1);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Bytes of every live page on the pool's simulated disk.
pub fn stored_bytes(pool: &pbitree_storage::BufferPool) -> u64 {
    pool.live_files()
        .into_iter()
        .map(|f| u64::from(pool.num_pages(f)) * pbitree_storage::PAGE_SIZE as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min_of(&[4.0, 1.5, 2.0]), 1.5);
        assert_eq!(rank_of(50.0, 100), 50);
        assert_eq!(rank_of(90.0, 100), 90);
        assert_eq!(rank_of(95.0, 20), 19);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
    }

    #[test]
    fn quiet_pass_takes_the_minimum_per_position() {
        let mut log = LatencyLog::new(&["a", "b"]);
        // Two positions, three passes; pass 1 was disturbed.
        for (pass, (x, y)) in [(100, 900), (180, 1500), (110, 800)]
            .into_iter()
            .enumerate()
        {
            log.push(pass, 0, 0, x);
            log.push(pass, 1, 1, y);
        }
        assert_eq!(log.quiet(|_| true), vec![(100, 0), (800, 1)]);
        assert_eq!(log.quiet_percentile_ms(50.0), 100.0 / 1e6);
        assert_eq!(log.quiet_percentile_ms(90.0), 800.0 / 1e6);
        assert!((log.quiet_rate() - 2.0 / 900e-9).abs() < 1.0);
    }

    #[test]
    fn rank_check_flags_a_boundary() {
        // Two classes, forty ops a pass, half cheap: the p50 rank is the
        // last cheap op — on the class edge.
        let mut log = LatencyLog::new(&["cheap", "dear"]);
        for pass in 0..4 {
            for i in 0..40usize {
                log.push(pass, i, usize::from(i >= 20), 100 + i as u64);
            }
        }
        assert!(!log.rank_check(2).stable);
        // A quarter cheap: p50 and p90 both sit well inside `dear`, in
        // every pass.
        let mut log = LatencyLog::new(&["cheap", "dear"]);
        for pass in 0..4 {
            for i in 0..40usize {
                log.push(pass, i, usize::from(i >= 10), 100 + i as u64);
            }
        }
        let rc = log.rank_check(2);
        assert!(rc.stable, "{:?}", rc.lines);
    }
}
