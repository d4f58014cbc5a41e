//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start, an end and the span that caused it. Spans
//! are kept in memory; the coverage check asks how much of a traced run's
//! wall time the leaf spans (the calls into a layer) account for, so a
//! stretch of work no span names shows as a hole.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An append-only span log with a shared time origin (so logs recorded on
/// different threads can be merged).
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_s();
        self.spans.push(Span {
            name,
            parent,
            start_s: now,
            end_s: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_s = self.now_s();
    }

    /// Record `f` as a span (a leaf unless `f` opens children itself).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Record an interval measured elsewhere (client-side timestamps).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            parent,
            start_s: at(start),
            end_s: at(end),
        });
    }

    /// Span `id`'s duration minus the part of it its children cover.
    pub fn self_time_s(&self, id: usize) -> f64 {
        let children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_s, s.end_s))
            .collect();
        self.spans[id].duration_s() - union_s(children)
    }

    /// Share of `[from_s, to_s]` covered by leaf spans (spans no other
    /// span names as parent), overlaps counted once.
    pub fn coverage(&self, from_s: f64, to_s: f64) -> f64 {
        let mut is_parent = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                is_parent[p] = true;
            }
        }
        let leaves = self
            .spans
            .iter()
            .zip(&is_parent)
            .filter(|(_, &parent)| !parent)
            .map(|(s, _)| (s.start_s.max(from_s), s.end_s.min(to_s)))
            .filter(|(a, b)| b > a)
            .collect();
        let wall = to_s - from_s;
        if wall <= 0.0 {
            return 0.0;
        }
        union_s(leaves) / wall
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of intervals.
fn union_s(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in intervals {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_s(vec![]), 0.0);
        assert_eq!(union_s(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
    }

    #[test]
    fn coverage_and_self_time() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin);
        log.spans = vec![
            Span {
                name: "root",
                parent: None,
                start_s: 0.0,
                end_s: 4.0,
            },
            Span {
                name: "child",
                parent: Some(0),
                start_s: 1.0,
                end_s: 2.0,
            },
            Span {
                name: "leaf",
                parent: None,
                start_s: 6.0,
                end_s: 8.0,
            },
        ];
        // The root's own 3 s are a hole; the child and the leaf cover 3 s.
        assert_eq!(log.coverage(0.0, 10.0), 0.3);
        assert_eq!(log.self_time_s(0), 3.0);
    }
}
