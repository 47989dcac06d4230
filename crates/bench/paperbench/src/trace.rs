//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start and end (nanoseconds since the tracer
//! was created), the span that was open when it started, and the trial it
//! belongs to. Spans stay in memory until the run ends and are then
//! written out as JSON lines. A disabled tracer never reads the clock, so
//! the untraced runs that give the end-to-end metrics pay nothing for it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trial: u64,
}

/// Handle of an open span, closed by [`Tracer::exit`].
#[must_use = "close the span with Tracer::exit"]
pub struct SpanId(Option<usize>);

/// Per-name aggregate: total self time and number of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub self_ns: u64,
    pub count: u64,
}

impl SelfTime {
    /// Mean self time per span, in nanoseconds (0 when no span ran).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trial: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trial: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between phases of a run (no span may be
    /// open across the switch).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "a span is open");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with a trial id.
    pub fn set_trial(&mut self, trial: u64) {
        self.trial = trial;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trial: self.trial,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn exit(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a count at a layer boundary (the last value wins).
    pub fn count(&mut self, name: &'static str, value: u64) {
        if self.on {
            self.counts.insert(name, value);
        }
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Whether any span of this name has been recorded.
    pub fn has(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(s.name).or_default();
            entry.self_ns += (s.end_ns - s.start_ns).saturating_sub(child);
            entry.count += 1;
        }
        out
    }

    /// Writes every span, then every count, as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trial\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trial
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(out, "{{\"count\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        let st = t.self_times();
        assert_eq!(st["outer"].count, 1);
        assert!(st["inner"].self_ns >= 5_000_000);
        assert!(st["outer"].self_ns < st["inner"].self_ns);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.time("x", || ());
        t.count("c", 3);
        assert!(t.self_times().is_empty());
        assert!(t.counts().is_empty());
    }
}
