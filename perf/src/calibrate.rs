//! The benchmark's self-checks, run as fresh child processes of this
//! binary: `--check-counts` (count metrics bit-identical from process to
//! process) and `--calibrate` (two back-to-back sets of full runs of the
//! same build agree within half of every bound).

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::harness::{median, quartiles};
use crate::metrics::END_TO_END;
use crate::workloads;

/// What one child run printed.
struct Child {
    ok: bool,
    metrics: BTreeMap<String, f64>,
    counts: Vec<(String, String)>,
}

fn run_child(args: &[String]) -> Child {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("spawn child run");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut child = Child {
        ok: out.status.success(),
        metrics: BTreeMap::new(),
        counts: Vec::new(),
    };
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", name, value, _unit] => {
                if let Ok(v) = value.parse() {
                    child.metrics.insert((*name).to_owned(), v);
                }
            }
            ["count", name, bits] => child.counts.push(((*name).to_owned(), (*bits).to_owned())),
            _ => {}
        }
    }
    if !child.ok {
        eprintln!(
            "child {args:?} failed:\n{text}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    child
}

fn child_args(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Vec<String> {
    let mut v = vec![
        "--workload".to_owned(),
        workload.to_owned(),
        "--seed".to_owned(),
        seed.to_string(),
        "--trace".to_owned(),
        u8::from(trace).to_string(),
    ];
    v.extend(extra.iter().map(|s| (*s).to_owned()));
    v
}

/// Runs every workload's count-bearing phase twice, traced and untraced,
/// in fresh processes; fails unless every count is bit-identical.
pub fn check_counts(seed: u64) -> ExitCode {
    let mut bad = 0usize;
    for w in workloads() {
        for trace in [false, true] {
            let args = child_args(w, seed, trace, &["--counts-only"]);
            let (a, b) = (run_child(&args), run_child(&args));
            if !a.ok || !b.ok {
                println!("{w} trace {}: child run failed", u8::from(trace));
                bad += 1;
                continue;
            }
            let diffs: Vec<String> = a
                .counts
                .iter()
                .zip(&b.counts)
                .filter(|(x, y)| x != y)
                .map(|(x, y)| format!("{} {} != {}", x.0, x.1, y.1))
                .collect();
            let same = diffs.is_empty() && a.counts.len() == b.counts.len() && !a.counts.is_empty();
            println!(
                "{w:<15} trace {}: {} counts, {}",
                u8::from(trace),
                a.counts.len(),
                if same {
                    "bit-identical".to_owned()
                } else {
                    format!("DIFFER: {}", diffs.join("; "))
                }
            );
            bad += usize::from(!same);
        }
    }
    if bad == 0 {
        println!("check-counts: ok");
        ExitCode::SUCCESS
    } else {
        println!("check-counts: {bad} phase(s) not repeatable");
        ExitCode::from(1)
    }
}

/// Two back-to-back sets of `runs` full runs per workload (seeds
/// `seed .. seed + runs`, the same in both sets). Prints, per workload ×
/// metric, both set medians, their relative gap, the within-set quartile
/// spread (`statistics.quantiles(n=4)`, Q3 − Q1 over the median) and the
/// bound; fails if a gap exceeds half its bound or a spread its bound.
pub fn calibrate(runs: usize, seed: u64, seconds: f64) -> ExitCode {
    let runs = runs.max(2);
    let secs = seconds.to_string();
    // sets[set][workload][metric] -> values
    let mut sets: Vec<BTreeMap<&str, BTreeMap<String, Vec<f64>>>> =
        vec![BTreeMap::new(), BTreeMap::new()];
    let mut failed_runs = 0usize;
    for (si, set) in sets.iter_mut().enumerate() {
        for w in workloads() {
            for r in 0..runs {
                let args = child_args(
                    w,
                    seed + r as u64,
                    false,
                    &["--seconds", &secs, "--check-ranks"],
                );
                let c = run_child(&args);
                failed_runs += usize::from(!c.ok);
                for (name, v) in c.metrics {
                    set.entry(w).or_default().entry(name).or_default().push(v);
                }
                eprintln!("set {} {w} run {}/{runs} done", si + 1, r + 1);
            }
        }
    }
    let mut bad = failed_runs;
    println!(
        "| workload | metric | set 1 median | set 2 median | gap | spread 1 | spread 2 | bound |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|");
    for w in workloads() {
        for m in END_TO_END {
            let get = |si: usize| {
                sets[si]
                    .get(w)
                    .and_then(|x| x.get(m.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (a, b) = (get(0), get(1));
            if a.len() < 2 || b.len() < 2 {
                println!("| {w} | {} | missing | | | | | |", m.name);
                bad += 1;
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let gap = (mb - ma).abs() / ma;
            let spread = |v: &[f64]| {
                let (q1, _, q3) = quartiles(v);
                (q3 - q1) / median(v)
            };
            let (sa, sb) = (spread(&a), spread(&b));
            // `setup_s` is gated on its medians only.
            let over = gap > m.bound / 2.0 || (m.name != "setup_s" && sa.max(sb) > m.bound);
            bad += usize::from(over);
            println!(
                "| {w} | {} | {ma:.6} | {mb:.6} | {:.2} % | {:.2} % | {:.2} % | {:.1} %{} |",
                m.name,
                gap * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
                if over { " **over**" } else { "" }
            );
        }
    }
    if bad == 0 {
        println!("calibrate: ok ({runs} runs per set)");
        ExitCode::SUCCESS
    } else {
        println!("calibrate: {bad} row(s)/run(s) outside the bounds");
        ExitCode::from(1)
    }
}
