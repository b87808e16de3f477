//! Benchmark-side spans: `workload → pass → op → layer-call`.
//!
//! The program under test is not edited; every span here wraps a call the
//! driver makes *into* a layer through its public functions. Spans live in
//! memory and are written as JSONL at exit (`--trace-out`). A span's self
//! time is its duration minus the part its child spans cover.
//!
//! JSONL schema (one object per line, close order):
//! `{"v":1,"id":7,"parent":3,"op":2,"name":"planner.plan_and_execute",
//!   "start_ns":123,"end_ns":456}` — `op` is the id shared by every span
//! of one measured op (`null` outside ops), times are ns since process
//! start.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; hand it back to [`Spans::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Spans {
    enabled: bool,
    paused: bool,
    epoch: Instant,
    recs: Vec<Span>,
    /// Indices into `recs` of the currently open spans, innermost last.
    stack: Vec<usize>,
    cur_op: Option<u32>,
    next_op: u32,
}

impl Spans {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Spans {
            enabled,
            paused: false,
            epoch,
            recs: Vec::new(),
            stack: Vec::new(),
            cur_op: None,
            next_op: 0,
        }
    }

    /// Suspends or resumes recording between passes: a traced run spends
    /// half its passes with spans off, the baseline its own overhead is
    /// measured against. Spans already open stay open.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled || self.paused {
            return Open(None);
        }
        let idx = self.recs.len();
        let start_ns = self.now();
        self.recs.push(Span {
            id: idx as u32,
            parent: self.stack.last().map(|&i| self.recs[i].id),
            op: self.cur_op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Opens an op span: allocates the op id its layer-call children share.
    pub fn begin_op(&mut self, name: &'static str) -> Open {
        if self.enabled && !self.paused {
            self.cur_op = Some(self.next_op);
            self.next_op += 1;
        }
        self.begin(name)
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.recs[idx].end_ns = self.now();
        if self.is_op_root(&self.recs[idx]) {
            self.cur_op = None;
        }
    }

    /// Wraps one call into a layer.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// Self time per span name, ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for s in &self.recs {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.recs {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Whether `s` is the outermost span of its op.
    fn is_op_root(&self, s: &Span) -> bool {
        s.op.is_some() && s.parent.is_none_or(|p| self.recs[p as usize].op != s.op)
    }

    /// Share of pooled op wall time covered by the ops' direct layer-call
    /// children — the "spans tile ≥ 95 %" acceptance number.
    pub fn op_tiling(&self) -> f64 {
        let (mut op_ns, mut covered) = (0u64, 0u64);
        for s in self.recs.iter().filter(|s| s.op.is_some()) {
            let dur = s.end_ns - s.start_ns;
            if self.is_op_root(s) {
                op_ns += dur;
            } else if s
                .parent
                .is_some_and(|p| self.is_op_root(&self.recs[p as usize]))
            {
                covered += dur;
            }
        }
        if op_ns == 0 {
            1.0
        } else {
            covered as f64 / op_ns as f64
        }
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Every recorded span called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.recs.iter().filter(move |s| s.name == name)
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u32>| v.map_or("null".to_owned(), |x| x.to_string());
        for s in &self.recs {
            writeln!(
                w,
                "{{\"v\":1,\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.op),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_ops_tile() {
        let mut sp = Spans::new(true, Instant::now());
        let w = sp.begin("workload");
        let op = sp.begin_op("op");
        let a = sp.begin("layer.a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = sp.begin("layer.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        sp.end(inner);
        sp.end(a);
        sp.end(op);
        sp.end(w);
        let st = sp.self_times();
        assert!(st["layer.inner"] >= 2_000_000);
        assert!(st["layer.a"] >= 2_000_000 && st["layer.a"] < st["layer.a"] + st["layer.inner"]);
        // The op's single child covers nearly all of it.
        assert!(sp.op_tiling() > 0.9, "{}", sp.op_tiling());
        // Ids: inner shares the op id, the workload span has none.
        assert_eq!(sp.recs[3].op, sp.recs[1].op);
        assert_eq!(sp.recs[0].op, None);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut sp = Spans::new(false, Instant::now());
        let op = sp.begin_op("op");
        sp.layer("x", || ());
        sp.end(op);
        assert_eq!(sp.len(), 0);
    }
}
