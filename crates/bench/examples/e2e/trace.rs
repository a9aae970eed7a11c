//! In-memory spans recorded around the benchmark's calls into each
//! layer of the program.
//!
//! A span has a name, a parent, and start and end offsets from the
//! tracer's origin. Durations a layer reports about itself — the fusion
//! loop's per-round ITER and CliqueRank times, or the program's er-obs
//! span totals — have no timestamps; they attach to the span that
//! enclosed the call as `measured` children. A span's self time is its
//! duration minus the time its timed children cover, minus its measured
//! children.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Durations reported by the program for work inside this span.
    pub measured: Vec<(String, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; a disabled tracer records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Pauses or resumes recording (a traced run also makes untraced
    /// resolves, to measure the tracing overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`. Returns the
    /// result and the span id (`None` when disabled).
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.record(name, parent, start_ns, end_ns);
        (out, Some(id))
    }

    /// Records a span with explicit offsets (used by tests and by spans
    /// whose body needs `&mut self`).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        assert!(start_ns <= end_ns, "span {name} ends before it starts");
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            start_ns,
            end_ns,
            measured: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Opens a span whose body needs the tracer itself; close it with
    /// [`Self::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        Some(self.record(name, parent, now, now))
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Attaches a program-reported duration to span `id`.
    pub fn measured(&mut self, id: Option<usize>, name: &str, seconds: f64) {
        if let Some(id) = id {
            self.spans[id]
                .measured
                .push((name.to_owned(), (seconds * 1e9).round() as u64));
        }
    }

    pub fn duration_s(&self, id: Option<usize>) -> f64 {
        id.map_or(0.0, |id| self.spans[id].duration_ns() as f64 / 1e9)
    }

    /// Sum of the program-reported durations named `name` under `id`.
    pub fn measured_s(&self, id: Option<usize>, name: &str) -> f64 {
        id.map_or(0.0, |id| {
            self.spans[id]
                .measured
                .iter()
                .filter(|(n, _)| n == name)
                .map(|&(_, ns)| ns as f64 / 1e9)
                .sum()
        })
    }

    /// [`Self::self_ns`] in seconds; 0 for a span not recorded.
    pub fn self_s(&self, id: Option<usize>) -> f64 {
        id.map_or(0.0, |id| self.self_ns(id) as f64 / 1e9)
    }

    /// Self time of span `id`: its duration minus the union of its timed
    /// children's intervals (clipped to the span) minus its measured
    /// children, floored at zero.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let measured: u64 = span.measured.iter().map(|&(_, ns)| ns).sum();
        span.duration_ns().saturating_sub(covered + measured)
    }

    /// The spans as JSON: one object per span, with its self time.
    pub fn to_value(&self) -> er_obs::json::Value {
        use er_obs::json::Value;
        let num = |v: u64| Value::Num(v as f64);
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let measured = s
                    .measured
                    .iter()
                    .map(|(n, ns)| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(n.clone())),
                            ("ns".into(), num(*ns)),
                        ])
                    })
                    .collect();
                Value::Obj(vec![
                    ("id".into(), num(id as u64)),
                    ("name".into(), Value::Str(s.name.clone())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| num(p as u64)),
                    ),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                    ("self_ns".into(), num(self.self_ns(id))),
                    ("measured".into(), Value::Arr(measured)),
                ])
            })
            .collect();
        Value::Arr(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut t = Tracer::new(true);
        let root = t.record("resolve", None, 0, 100);
        t.record("prepare", Some(root), 10, 40);
        // Overlaps prepare by 10 ns: the union covers 10..60.
        t.record("seed", Some(root), 30, 60);
        // Sticks out past the parent: only 90..100 counts.
        t.record("late", Some(root), 90, 130);
        // A grandchild never counts against the root.
        let fusion = t.record("fusion", Some(root), 60, 80);
        t.record("inner", Some(fusion), 61, 79);
        assert_eq!(t.self_ns(root), 100 - 50 - 20 - 10);
        assert_eq!(t.self_ns(fusion), 2);
    }

    #[test]
    fn measured_children_reduce_self_time() {
        let mut t = Tracer::new(true);
        let fusion = Some(t.record("fusion", None, 0, 1_000));
        t.measured(fusion, "iter", 300e-9);
        t.measured(fusion, "cliquerank", 600e-9);
        t.measured(fusion, "iter", 50e-9);
        assert_eq!(t.self_ns(0), 50);
        assert!((t.measured_s(fusion, "iter") - 350e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, id) = t.span("x", None, || 7);
        assert_eq!((v, id), (7, None));
        t.measured(id, "y", 1.0);
        assert!(t.spans.is_empty());
        assert_eq!(t.duration_s(id), 0.0);
    }
}
