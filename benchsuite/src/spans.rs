//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end and the span that caused it. Spans
//! live in memory and are summarized when the run ends. A disabled
//! [`Tracer`] calls the wrapped closure and records nothing, so the
//! untraced run times exactly the same calls without reading the clock
//! per span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id within its tracer (ids start at 1).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `sim.run_grid`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a transparent pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records every span.
    pub fn on() -> Self {
        Tracer::new(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id to pass to its children (`None` when disabled).
    pub fn span<T>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A copy of every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span list poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Durations of every span named `name`, in seconds, in completion
    /// order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may nest or overlap (parallel workers);
/// overlapping coverage is counted once, and coverage outside the parent
/// is clipped away.
pub fn self_time_ns(parent: &Span, spans: &[Span]) -> u64 {
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(parent.id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    covered.sort_unstable();
    let mut union = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in covered {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                union += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        union += cb - ca;
    }
    parent.duration_ns() - union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        let root = span(1, None, 10, 110);
        assert_eq!(self_time_ns(&root, std::slice::from_ref(&root)), 100);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let root = span(1, None, 0, 100);
        let spans = vec![
            root.clone(),
            span(2, Some(1), 10, 20),
            span(3, Some(1), 50, 80),
        ];
        assert_eq!(self_time_ns(&root, &spans), 60);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers' spans overlap in [30, 40): covered = [10, 60).
        let root = span(1, None, 0, 100);
        let spans = vec![
            root.clone(),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
        ];
        assert_eq!(self_time_ns(&root, &spans), 50);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_root() {
        let root = span(1, None, 0, 100);
        let child = span(2, Some(1), 10, 50);
        let grandchild = span(3, Some(2), 20, 30);
        let spans = vec![root.clone(), child.clone(), grandchild];
        assert_eq!(self_time_ns(&root, &spans), 60);
        assert_eq!(self_time_ns(&child, &spans), 30);
    }

    #[test]
    fn child_coverage_is_clipped_to_the_parent() {
        let root = span(1, None, 50, 100);
        let spans = vec![
            root.clone(),
            span(2, Some(1), 0, 60),
            span(3, Some(1), 90, 200),
        ];
        assert_eq!(self_time_ns(&root, &spans), 30);
    }

    #[test]
    fn contained_child_inside_another_child() {
        let root = span(1, None, 0, 100);
        let spans = vec![
            root.clone(),
            span(2, Some(1), 10, 90),
            span(3, Some(1), 20, 30),
        ];
        assert_eq!(self_time_ns(&root, &spans), 20);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_passes_no_parent() {
        let t = Tracer::off();
        let got = t.span(None, "x", |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(got, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let t = Tracer::on();
        t.span(None, "outer", |outer| {
            t.span(outer, "inner", |_| ());
        });
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(t.durations_s("inner").len(), 1);
    }
}
