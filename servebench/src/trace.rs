//! The traced run's span recorder and the statistics the benchmark
//! reports with.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! the workspace's public functions, kept in memory, and reduced when
//! the run ends. A span's parent is the innermost span still open on
//! the same recorder when it began, so one recorder per thread gives
//! each operation a tree: the operation's root span and one child per
//! public call made for it.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one thread, in the order they were opened.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Renames span `id` (for a call whose kind is only known once it
    /// returned).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover. Children may nest further (a grandchild is
/// already inside its parent's interval) or run back to back; the
/// covered part is the union of the children's intervals, clipped to
/// the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self times grouped by span name, in microseconds.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        out.entry(s.name).or_default().push(t as f64 / 1e3);
    }
    out
}

/// For each root span named `root`, the summed self time of its direct
/// children, per child name, in microseconds. Names absent under a
/// root count as zero for it, so every vector has one entry per root.
pub fn child_totals_per_root(spans: &[Span], root: &str) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times_ns(spans);
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none() && spans[i].name == root)
        .collect();
    let slot: BTreeMap<usize, usize> = roots.iter().enumerate().map(|(k, &i)| (i, k)).collect();
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let Some(&k) = s.parent.and_then(|p| slot.get(&p)) else {
            continue;
        };
        let v = out.entry(s.name).or_insert_with(|| vec![0.0; roots.len()]);
        v[k] += selfs[i] as f64 / 1e3;
    }
    out
}

/// The `q`-quantile of `samples` by nearest rank, or `None` when fewer
/// than ten samples lie beyond it — a tail figure resting on a
/// handful of samples is not reported.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of a few repeated measurements (set-up or recovery
/// repeated inside one run), where the tail rule does not apply.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root [0,100] ⊃ child [10,60] ⊃ grandchild [20,30].
        let spans = [
            span("root", None, 0, 100),
            span("child", Some(0), 10, 60),
            span("grandchild", Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn back_to_back_children_are_both_subtracted() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 30, 50),
            span("c", Some(0), 90, 100),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn recorder_builds_the_tree_it_was_driven_through() {
        let mut r = Recorder::new();
        let root = r.enter("op");
        r.time("a", || std::hint::black_box(1));
        let b = r.enter("b");
        r.time("c", || ());
        r.exit(b);
        r.exit(root);
        let parents: Vec<_> = r.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![("op", None), ("a", Some(0)), ("b", Some(0)), ("c", Some(2))]
        );
        let selfs = self_times_ns(r.spans());
        let total = r.spans()[0].end_ns - r.spans()[0].start_ns;
        assert_eq!(selfs.iter().sum::<u64>(), total);
    }

    #[test]
    fn child_totals_sum_repeated_children_per_root() {
        let spans = [
            span("op", None, 0, 100),
            span("frame", Some(0), 0, 10),
            span("frame", Some(0), 50, 70),
            span("op", None, 200, 300),
            span("kernel", Some(3), 200, 250),
        ];
        let t = child_totals_per_root(&spans, "op");
        assert_eq!(t["frame"], vec![0.03, 0.0]);
        assert_eq!(t["kernel"], vec![0.0, 0.05]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.95), None);
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.5), None);
        assert_eq!(percentile(&few[..], 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
