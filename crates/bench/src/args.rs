//! Minimal command-line parsing shared by the experiment binaries.
//!
//! Parsing is fallible ([`CommonArgs::try_parse`]) so malformed invocations
//! produce a usage message and exit code 2 instead of a panic backtrace;
//! the binaries call [`CommonArgs::parse`], which wraps that policy.

use crate::harness::ExpConfig;
use pbitree_storage::ScanOptions;

/// Maps a `--readahead` depth to [`ScanOptions`]: `0` (or `1`) declares
/// plain sequential access with no prefetch and per-page writes.
pub fn io_options(readahead: usize) -> ScanOptions {
    ScanOptions::sequential(readahead.max(1))
}

/// Options common to every experiment binary.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Which table part / figure panel to run (`all` by default).
    pub select: String,
    /// Synthetic-set scale factor (1.0 = the paper's 1M/10k sets).
    pub scale: f64,
    /// XMark/DBLP document scale factor.
    pub sf: f64,
    /// Buffer pool pages (paper default 500).
    pub buffer: usize,
    /// Results directory.
    pub results_dir: std::path::PathBuf,
    /// Write a JSONL span trace of every measured run to this file.
    pub trace: Option<std::path::PathBuf>,
    /// Read-ahead depth for sequential scans (0 disables prefetch and
    /// write batching; default 8, the storage layer's I/O depth).
    pub readahead: usize,
    /// `--help` was requested.
    pub help: bool,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            select: "all".into(),
            scale: 1.0,
            sf: 1.0,
            buffer: 500,
            results_dir: "results".into(),
            trace: None,
            readahead: pbitree_storage::DEFAULT_IO_DEPTH,
            help: false,
        }
    }
}

impl CommonArgs {
    /// The usage line for a binary whose selection flag is `select_flag`.
    pub fn usage(select_flag: &str) -> String {
        format!(
            "options: {select_flag} <sel> --scale <f> --sf <f> --buffer <pages> \
             --readahead <depth> --results <dir> --trace <file> --fast"
        )
    }

    /// Parses an argument list (without the program name). Returns a
    /// message naming the offending argument on any malformed input.
    pub fn try_parse<I>(select_flag: &str, argv: I) -> Result<CommonArgs, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut args = CommonArgs::default();
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            let mut take =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match arg.as_str() {
                s if s == select_flag => args.select = take(select_flag)?,
                "--scale" => {
                    args.scale = take("--scale")?
                        .parse()
                        .map_err(|_| "--scale needs a numeric value".to_string())?
                }
                "--sf" => {
                    args.sf = take("--sf")?
                        .parse()
                        .map_err(|_| "--sf needs a numeric value".to_string())?
                }
                "--buffer" => {
                    args.buffer = take("--buffer")?
                        .parse()
                        .map_err(|_| "--buffer needs an integer value".to_string())?
                }
                "--readahead" => {
                    args.readahead = take("--readahead")?
                        .parse()
                        .map_err(|_| "--readahead needs an integer value".to_string())?
                }
                "--results" => args.results_dir = take("--results")?.into(),
                "--trace" => args.trace = Some(take("--trace")?.into()),
                "--fast" => {
                    args.scale = 0.02;
                    args.sf = 0.02;
                    args.buffer = 64;
                }
                "--help" | "-h" => args.help = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(args)
    }

    /// Parses the process arguments. `--help` prints usage and exits 0;
    /// malformed input prints the error plus usage and exits 2.
    pub fn parse(select_flag: &str) -> CommonArgs {
        match Self::try_parse(select_flag, std::env::args().skip(1)) {
            Ok(args) if args.help => {
                eprintln!("{}", Self::usage(select_flag));
                std::process::exit(0);
            }
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{}", Self::usage(select_flag));
                std::process::exit(2);
            }
        }
    }

    /// The experiment configuration implied by these arguments, with a
    /// fresh tracer when `--trace` is set. Call once per binary and derive
    /// per-panel variants from it, so every run records into that tracer.
    pub fn config(&self) -> ExpConfig {
        ExpConfig {
            buffer_pages: self.buffer,
            io: io_options(self.readahead),
            tracer: self.trace.as_ref().map(|_| Default::default()),
            ..ExpConfig::default()
        }
    }

    /// Whether the selection matches a given key (or is `all`).
    pub fn selected(&self, key: &str) -> bool {
        self.select == "all" || self.select.eq_ignore_ascii_case(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let a = CommonArgs::try_parse(
            "--part",
            strs(&[
                "--part",
                "e",
                "--scale",
                "0.5",
                "--buffer",
                "128",
                "--results",
                "/tmp/r",
                "--trace",
                "/tmp/t.jsonl",
            ]),
        )
        .unwrap();
        assert_eq!(a.select, "e");
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.buffer, 128);
        assert_eq!(a.results_dir, std::path::PathBuf::from("/tmp/r"));
        assert_eq!(a.trace, Some(std::path::PathBuf::from("/tmp/t.jsonl")));
        assert!(a.config().tracer.is_some());
        assert!(!a.help);
    }

    #[test]
    fn fast_preset_applies() {
        let a = CommonArgs::try_parse("--panel", strs(&["--fast"])).unwrap();
        assert_eq!(a.buffer, 64);
        assert!(a.scale < 1.0);
    }

    #[test]
    fn unknown_argument_is_an_error() {
        let e = CommonArgs::try_parse("--part", strs(&["--bogus"])).unwrap_err();
        assert!(e.contains("--bogus"), "{e}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = CommonArgs::try_parse("--part", strs(&["--scale"])).unwrap_err();
        assert!(e.contains("--scale"), "{e}");
    }

    #[test]
    fn non_numeric_value_is_an_error() {
        let e = CommonArgs::try_parse("--part", strs(&["--buffer", "lots"])).unwrap_err();
        assert!(e.contains("--buffer"), "{e}");
    }

    #[test]
    fn readahead_flag_maps_to_io_options() {
        let a = CommonArgs::try_parse("--part", strs(&["--readahead", "0"])).unwrap();
        assert_eq!(a.readahead, 0);
        assert_eq!(a.config().io.depth(), 1, "0 disables prefetch");
        let b = CommonArgs::try_parse("--part", strs(&["--readahead", "16"])).unwrap();
        assert_eq!(b.config().io.depth(), 16);
    }

    #[test]
    fn help_flag_is_reported_not_fatal() {
        let a = CommonArgs::try_parse("--part", strs(&["--help"])).unwrap();
        assert!(a.help);
        assert!(CommonArgs::usage("--part").contains("--trace"));
    }
}
