//! Benchmark-side spans: the benchmark times its own calls into each
//! layer (crate) and keeps the records in memory until the run ends.
//! Nothing here reaches inside the program; counters the program already
//! emits are read from `ncs-trace` events captured around the calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use ncs_trace::TraceEvent;

/// One closed span. `lane` is the thread (client connection) that ran
/// it; ids are unique across lanes.
#[derive(Debug, Clone)]
pub struct Rec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Rec {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span recorder. When off, [`Spans::time`] is a plain
/// call, so untraced runs pay nothing.
pub struct Spans {
    on: bool,
    origin: Instant,
    lane: u32,
    next: u64,
    stack: Vec<u64>,
    recs: Vec<Rec>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            lane: 0,
            next: 0,
            stack: Vec::new(),
            recs: Vec::new(),
        }
    }

    /// A recorder for another thread: same clock, its own lane, and
    /// spans parented under this recorder's innermost open span.
    pub fn fork(&self, lane: u32) -> Self {
        Spans {
            on: self.on,
            origin: self.origin,
            lane,
            next: 0,
            stack: self.stack.last().copied().into_iter().collect(),
            recs: Vec::new(),
        }
    }

    /// Takes back the spans a forked recorder closed.
    pub fn join(&mut self, other: Spans) {
        self.recs.extend(other.recs);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name` (a no-op wrapper when off).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = (u64::from(self.lane) << 40) | self.next;
        self.next += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        self.recs.push(Rec {
            id,
            parent,
            name,
            lane: self.lane,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn recs(&self) -> &[Rec] {
        &self.recs
    }

    /// Total seconds of spans called exactly `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(Rec::dur_s)
            .sum()
    }

    /// Durations in milliseconds of spans called exactly `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.dur_s() * 1e3)
            .collect()
    }

    /// Self time of span `rec`: its duration minus the part of its
    /// interval covered by its children (a union, so concurrent children
    /// on other lanes are not counted twice).
    pub fn self_s(&self, rec: &Rec) -> f64 {
        let mut kids: Vec<(u64, u64)> = self
            .recs
            .iter()
            .filter(|c| c.parent == Some(rec.id))
            .map(|c| (c.start_ns.max(rec.start_ns), c.end_ns.min(rec.end_ns)))
            .filter(|(s, e)| e > s)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = rec.start_ns;
        for (s, e) in kids {
            let s = s.max(cursor);
            if e > s {
                covered += e - s;
                cursor = e;
            }
        }
        (rec.end_ns - rec.start_ns - covered) as f64 * 1e-9
    }

    /// Self seconds summed per layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for r in &self.recs {
            *out.entry(r.layer()).or_insert(0.0) += self.self_s(r);
        }
        out
    }

    /// The recorded spans plus the captured program counters as JSON.
    pub fn to_json(&self, workload: &str, seed: u64, counters: &Counters) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
        for (i, r) in self.recs.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"lane\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                r.id,
                r.name,
                r.lane,
                r.start_ns,
                r.end_ns,
                (self.self_s(r) * 1e9).round() as u64
            );
        }
        out.push_str("\n], \"counters\": {");
        for (i, (name, v)) in counters.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {v}");
        }
        out.push_str("}, \"samples\": {");
        for (i, (name, (n, sum))) in counters.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"count\": {n}, \"sum\": {sum}}}");
        }
        out.push_str("}}\n");
        out
    }
}

/// Counter totals and sample (count, sum) pairs read from `ncs-trace`
/// events the program emitted during the benchmark's calls.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub counts: BTreeMap<&'static str, u64>,
    pub samples: BTreeMap<&'static str, (u64, u64)>,
}

impl Counters {
    pub fn absorb(&mut self, events: &[TraceEvent]) {
        for e in events {
            match e {
                TraceEvent::Count { name, delta } => *self.counts.entry(name).or_insert(0) += delta,
                TraceEvent::Sample { name, value } => {
                    let s = self.samples.entry(name).or_insert((0, 0));
                    s.0 += 1;
                    s.1 += value;
                }
                TraceEvent::Open { .. } | TraceEvent::Close { .. } => {}
            }
        }
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }

    /// Sum of all samples recorded under `name`.
    pub fn sample_sum(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |s| s.1 as f64)
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Rec {
        Rec {
            id,
            parent,
            name,
            lane: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new(true);
        spans.recs = vec![
            rec(0, None, "bench.pass", 0, 100),
            // Two overlapping children (concurrent lanes) cover 10..60.
            rec(1, Some(0), "serve.map", 10, 50),
            rec(2, Some(0), "serve.map", 30, 60),
            rec(3, Some(0), "serve.stats", 80, 90),
            rec(4, Some(1), "cluster.map", 20, 30),
        ];
        let root = spans.recs[0].clone();
        assert!((spans.self_s(&root) - 40e-9).abs() < 1e-15);
        let by_layer = spans.self_by_layer();
        assert!((by_layer["serve"] - (30e-9 + 30e-9 + 10e-9)).abs() < 1e-15);
        assert!((by_layer["cluster"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let mut spans = Spans::new(true);
        spans.time("bench.pass", |s| s.time("net.gen", |_| ()));
        let recs = spans.recs();
        assert_eq!(recs.len(), 2);
        let gen = recs.iter().find(|r| r.name == "net.gen").unwrap();
        let pass = recs.iter().find(|r| r.name == "bench.pass").unwrap();
        assert_eq!(gen.parent, Some(pass.id));
        assert_eq!(gen.layer(), "net");
        let mut off = Spans::new(false);
        assert_eq!(off.time("bench.pass", |_| 7), 7);
        assert!(off.recs().is_empty());
    }
}
