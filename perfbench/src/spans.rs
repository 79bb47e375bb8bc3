//! An in-memory span recorder for the traced run.
//!
//! Each span has a name, a start, an end and an optional parent. Spans
//! stay in memory while the run measures and are written out once it
//! ends. A span's *self time* is its duration minus the part of its
//! interval that its children cover; overlapping children count once.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval, in microseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was timed, e.g. `http.route_group`.
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, µs since the origin.
    pub start: f64,
    /// End, µs since the origin.
    pub end: f64,
}

impl Span {
    /// Duration in µs.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans against one monotonic origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Microseconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Records a span with explicit bounds.
    pub fn record(&mut self, name: &str, parent: Option<SpanId>, start: f64, end: f64) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(&mut self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Self times (µs) of every span, indexed like [`Recorder::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let intervals: Vec<(f64, f64)> = kids
                    .iter()
                    .map(|&k| (self.spans[k].start, self.spans[k].end))
                    .collect();
                s.dur() - covered(s.start, s.end, intervals)
            })
            .collect()
    }

    /// Writes every span as `id parent name start_us end_us` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_us\tend_us")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{:.3}\t{:.3}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut r = Recorder::default();
        let parent = r.record("pass", None, 0.0, 100.0);
        // Two children overlap on [20, 30]; together they cover [10, 40].
        r.record("a", Some(parent), 10.0, 30.0);
        r.record("b", Some(parent), 20.0, 40.0);
        // A third child sits inside the first two and adds nothing.
        r.record("c", Some(parent), 15.0, 25.0);
        // A fourth overruns the parent's end; only [90, 100] counts.
        r.record("d", Some(parent), 90.0, 130.0);
        let selfs = r.self_times();
        assert_eq!(selfs[parent], 100.0 - 30.0 - 10.0);
        // Leaves keep their whole duration.
        assert_eq!(selfs[1], 20.0);
        assert_eq!(selfs[4], 40.0);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let mut r = Recorder::default();
        let root = r.record("request", None, 0.0, 50.0);
        let route = r.record("route", Some(root), 5.0, 45.0);
        r.record("render", Some(route), 30.0, 40.0);
        let selfs = r.self_times();
        assert_eq!(selfs[root], 10.0);
        assert_eq!(selfs[route], 30.0);
        assert_eq!(r.durations("route"), vec![40.0]);
    }

    #[test]
    fn timed_spans_nest_and_write_out() {
        let mut r = Recorder::default();
        let outer = r.open("outer", None);
        let v = r.time("inner", Some(outer), || 41 + 1);
        r.close(outer);
        assert_eq!(v, 42);
        let s = r.spans();
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let path = std::path::PathBuf::from(format!("spans-test-{}.tsv", std::process::id()));
        r.write_tsv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().starts_with("1\t0\tinner\t"));
    }
}
