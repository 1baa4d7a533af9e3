//! In-memory span recorder and the order statistics the benchmark reports.
//!
//! A span is recorded around one call into a layer's public function:
//! name (`layer.operation`), start, end, the span that caused it, and the
//! request it belongs to.  Spans stay in memory and are written out as
//! JSON lines when the run ends.
//!
//! Some layer calls happen inside another public function and cannot be
//! timed from outside it (the interpreter runs inside
//! `Explorer::with_store`, say).  Such a call is *replayed*: re-executed
//! right after its caller with exactly the caller's inputs, and recorded
//! as a child of the caller's span with `replay` set.  A replayed span lies
//! outside its parent's interval, so the wall time it takes is kept out of
//! the traced pass time, and its duration is subtracted from the parent's
//! self time like that of any nested child.  A child whose duration the
//! program itself measured inside the parent (the session's checkpoint
//! timer) is recorded the same way with `attributed` set.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// How a span's interval relates to its parent's.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Timed directly around the call.
    Direct,
    /// Re-executed after the parent with the parent's inputs.
    Replay,
    /// Duration measured by the program inside the parent's interval.
    Attributed,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub kind: Kind,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled `span` is a plain call of its
/// closure and replays do not run, so the untraced pass runs the same code
/// path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    request: u64,
    /// Wall time spent inside replays (excluded from the traced pass time).
    replay_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            request: 0,
            replay_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new request: later top-level spans carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Wall time spent in replays so far.
    pub fn replay_ns(&self) -> u64 {
        self.replay_ns
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, kind: Kind) -> usize {
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request: self.request,
            kind,
        });
        self.spans.len() - 1
    }

    /// Time one call into the system as a top-level span of the current
    /// request; returns the call's result and the span's id.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, usize) {
        if !self.enabled {
            return (f(), usize::MAX);
        }
        let idx = self.push(name, None, Kind::Direct);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.spans[idx].start_ns = start;
        self.spans[idx].end_ns = end;
        (out, idx)
    }

    /// Re-execute, after span `parent` has closed, a layer call it made
    /// internally, and record it as that span's child (`usize::MAX`: a
    /// top-level replay).  A no-op when tracing is off.  Returns the
    /// replay's span id, for replaying its own children in turn.
    pub fn replay(&mut self, parent: usize, name: &'static str, f: impl FnOnce()) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.push(name, (parent != usize::MAX).then_some(parent), Kind::Replay);
        let start = self.now_ns();
        f();
        let end = self.now_ns();
        self.spans[idx].start_ns = start;
        self.spans[idx].end_ns = end;
        self.replay_ns += end - start;
        idx
    }

    /// Record a child of `parent` whose duration the program measured
    /// inside `parent`'s interval.
    pub fn attribute(&mut self, parent: usize, name: &'static str, secs: f64) {
        if !self.enabled {
            return;
        }
        let end = self.spans[parent].end_ns;
        let idx = self.push(name, Some(parent), Kind::Attributed);
        self.spans[idx].start_ns = end.saturating_sub((secs.max(0.0) * 1e9) as u64);
        self.spans[idx].end_ns = end;
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_ns() as i64;
            }
        }
        out
    }

    /// Self time in ms summed per span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_insert(0.0) += t as f64 / 1e6;
        }
        out
    }

    /// Total duration in ms per span name.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or("null".into());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"kind\":\"{:?}\",\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.kind
            )?;
        }
        out.flush()
    }
}

/// The layer a span name belongs to (`layer.operation`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest whole percentile with at least ten samples above it, and
/// its value.  With fewer than 20 samples this falls back to the median.
pub fn tail(v: &[f64]) -> (u32, f64) {
    let n = v.len();
    let mut best = 50;
    for p in 50..100u32 {
        // n * (100 - p) / 100 samples lie beyond the p-th percentile.
        if n * (100 - p as usize) >= 1000 {
            best = p;
        }
    }
    (best, quantile(v, best as f64 / 100.0))
}

/// Reply statistics over groups of `n` consecutive units (passes or
/// replays; a remainder joins the last group): the median of the groups'
/// medians, the tail percentile of the first group, and the median of the
/// groups' tails.  Host interference that slows one group moves neither
/// figure.
pub fn grouped(units: &[Vec<f64>], n: usize) -> (f64, u32, f64) {
    let mut groups: Vec<Vec<f64>> = units.chunks(n).map(|g| g.concat()).collect();
    if groups.len() > 1 && !units.len().is_multiple_of(n) {
        let rest = groups.pop().expect("more than one group");
        groups.last_mut().expect("a full group").extend(rest);
    }
    let p50s: Vec<f64> = groups.iter().map(|g| median(g)).collect();
    let tails: Vec<(u32, f64)> = groups.iter().map(|g| tail(g)).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.1).collect();
    let pct = tails.first().map_or(50, |t| t.0);
    (median(&p50s), pct, median(&values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&v).0, 95);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn remainder_joins_the_last_group() {
        let units: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64; 10]).collect();
        // Groups {0,1} and {2,3,4}: medians 0.5 and 3.
        assert_eq!(grouped(&units, 2).0, 1.75);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let ((), open) = t.span("server.open", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.attribute(open, "snapshot.checkpoint", 0.001);
        let ex = t.replay(open, "explorer.open", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.replay(ex, "dynamic.profile", || {});
        let st = t.self_times_ns();
        assert_eq!(t.spans.len(), 4);
        let d = |i: usize| t.spans[i].dur_ns() as i64;
        assert_eq!(st[open], d(0) - d(1) - d(2));
        assert_eq!(st[ex], d(2) - d(3));
        assert_eq!(t.replay_ns() as i64, d(2) + d(3));
    }
}
