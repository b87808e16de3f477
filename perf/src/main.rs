//! `pbitree-perf` — the repo's benchmark.
//!
//! One process runs one workload: set-up, warm-up passes, a fixed number
//! of measured passes of one seeded script, every output checked against
//! an oracle. The last stdout line is the result object the benchmark
//! contract names; before it every metric is printed by name with its
//! unit. See `perf/README.md`.
//!
//! ```text
//! perf/run.sh --workload <name> [--seed 42] [--seconds 20] [--trace 0|1]
//!             [--trace-out spans.jsonl] [--smoke]
//! perf/run.sh --smoke            # all four workloads, tiny, oracles on
//! perf/run.sh --check-counts     # count metrics bit-identical across processes
//! perf/run.sh --calibrate [5]    # two back-to-back sets of full runs
//! ```

mod calibrate;
mod data;
mod harness;
mod joins_wl;
mod metrics;
mod probes;
mod service_wl;
mod spans;
mod update_wl;

use std::process::ExitCode;
use std::time::Instant;

use harness::{Report, RunCfg};
use spans::Spans;

/// The workload names, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<&'static str> {
    metrics::WORKLOADS.iter().map(|w| w.0).collect()
}

/// `run_seconds` of `BENCHMARK.json`; what `--seconds` defaults to.
pub const DEFAULT_SECONDS: f64 = 20.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf/run.sh --workload <{}> [--seed n] [--seconds s] [--trace 0|1] \
         [--trace-out file] [--smoke]\n       perf/run.sh --smoke | --check-counts | --calibrate [runs]",
        workloads().join("|")
    );
    ExitCode::from(2)
}

enum Mode {
    Run,
    CheckCounts,
    Calibrate(usize),
    EmitBenchmarkJson,
}

/// Parses the command line; `None` on anything malformed.
fn parse_args(start: Instant) -> Option<(Mode, Option<String>, RunCfg)> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        counts_only: false,
        check_ranks: false,
        trace_out: None,
        start,
    };
    let mut mode = Mode::Run;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = Some(it.next()?),
            "--seed" => cfg.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                cfg.seconds = it.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?;
            }
            "--trace" => {
                cfg.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--trace-out" => cfg.trace_out = Some(it.next()?.into()),
            "--smoke" => cfg.smoke = true,
            "--counts-only" => cfg.counts_only = true,
            "--check-ranks" => cfg.check_ranks = true,
            "--check-counts" => mode = Mode::CheckCounts,
            "--emit-benchmark-json" => mode = Mode::EmitBenchmarkJson,
            "--calibrate" => {
                let runs = it.peek().and_then(|v| v.parse::<usize>().ok());
                if runs.is_some() {
                    it.next();
                }
                mode = Mode::Calibrate(runs.unwrap_or(5));
            }
            _ => return None,
        }
    }
    Some((mode, workload, cfg))
}

fn main() -> ExitCode {
    let Some((mode, workload, cfg)) = parse_args(Instant::now()) else {
        return usage();
    };
    match mode {
        Mode::CheckCounts => return calibrate::check_counts(cfg.seed),
        Mode::Calibrate(runs) => return calibrate::calibrate(runs, cfg.seed, cfg.seconds),
        Mode::EmitBenchmarkJson => {
            print!("{}", metrics::benchmark_json(DEFAULT_SECONDS as u32));
            return ExitCode::SUCCESS;
        }
        Mode::Run => {}
    }
    let names: Vec<&str> = match workload.as_deref() {
        Some(w) => match workloads().into_iter().find(|x| *x == w) {
            Some(name) => vec![name],
            None => return usage(),
        },
        None if cfg.smoke => workloads(),
        None => return usage(),
    };
    let mut failed = false;
    for name in names {
        failed |= !run_workload(name, &cfg);
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs one workload, prints its report, and returns whether every
/// checked output matched its oracle.
fn run_workload(name: &str, cfg: &RunCfg) -> bool {
    let mut spans = Spans::new(cfg.trace, cfg.start);
    let report = match name {
        "raw_join" => joins_wl::run(&joins_wl::raw_join(), cfg, &mut spans),
        "sorted_indexed" => joins_wl::run(&joins_wl::sorted_indexed(), cfg, &mut spans),
        "service" => service_wl::run(cfg, &mut spans),
        "update_recover" => update_wl::run(cfg, &mut spans),
        other => unreachable!("workload {other} was validated"),
    };
    if let Some(path) = &cfg.trace_out {
        match spans.write_jsonl(path) {
            Ok(()) => eprintln!("trace: {} spans -> {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("error: cannot write trace {}: {e}", path.display());
                return false;
            }
        }
    }
    let mut report = report;
    if cfg.trace {
        // Where the run's wall time went, by span name (self time: a
        // span's duration minus what its children cover).
        let mut rows: Vec<_> = spans.self_times().into_iter().collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1));
        for (name, ns) in rows {
            report.note(format!("self_ms {name:<32} {:>12.3}", ns as f64 / 1e6));
        }
    }
    print_report(name, cfg, &report);
    report.failed == 0 && report.attempted > 0
}

fn print_report(name: &str, cfg: &RunCfg, r: &Report) {
    println!(
        "workload {name} seed {} seconds {} trace {} smoke {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        u8::from(cfg.smoke)
    );
    for n in &r.notes {
        println!("  {n}");
    }
    for m in &r.metrics {
        println!("metric {:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for (n, v) in &r.counts {
        println!("count {n} {v:#018x}");
    }
    println!("ops_attempted {} ops_failed {}", r.attempted, r.failed);
    // The contract's result object: the last line of stdout.
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0 && r.attempted > 0,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
}

/// A JSON number with all the digits of the measurement (`{:?}` of a
/// finite `f64` round-trips; JSON has no NaN or infinity).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
