//! # pbitree-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's §4. The library holds
//! the shared machinery; the binaries drive it:
//!
//! * `table2` — Tables 2(a)–(f): dataset statistics, simulated disk time
//!   for the single-height datasets, rollup false hits.
//! * `fig6` — Figures 6(a)–(h): improvement ratios (synthetic, BENCHMARK,
//!   DBLP), buffer-size sweeps, scalability curves.
//! * `ablation` — the design-choice sweeps DESIGN.md lists (rollup anchor
//!   count, VPJ merging/purging, SHCJ hash crossover, and the I/O, pruning,
//!   compression, WAL, shared-scan and sharding panels).
//!
//! Every run prints the paper-format table and writes a TSV to `results/`
//! whose header names the command that made it. Each run reports two
//! clocks in separate columns, never summed: `sim_s`, the simulated disk
//! time (see `pbitree-storage::stats`), and `cpu_s`, the measured CPU
//! time; raw page counts are reported alongside.

#![forbid(unsafe_code)]

pub mod args;
pub mod harness;
pub mod report;
pub mod workloads;

pub use harness::{run_algo, run_competitors, ExpConfig, Measured};
pub use report::Table;
pub use workloads::Workload;
