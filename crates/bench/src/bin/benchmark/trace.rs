//! The outside-in span recorder for the `--trace` pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. A span has a name, a start, an end, the span that caused
//! it and the id of the replayed request it belongs to. Everything stays
//! in memory until [`Tracer::write_json`] at exit.

use crate::json;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub(crate) struct Span {
    pub(crate) name: &'static str,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    pub(crate) parent: Option<usize>,
    pub(crate) request: u32,
}

impl Span {
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; closing is explicit so a span can wrap any
/// number of nested ones.
pub(crate) struct Open(usize);

pub(crate) struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u32,
}

impl Tracer {
    pub(crate) fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next replayed request; spans opened from here on carry
    /// its id.
    pub(crate) fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span as a child of the innermost open one.
    pub(crate) fn enter(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub(crate) fn exit(&mut self, open: Open) {
        let end_ns = self.now_ns();
        self.spans[open.0].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
    }

    /// Records one leaf span around `f`.
    pub(crate) fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = std::hint::black_box(f());
        self.exit(open);
        out
    }

    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every recorded duration of the spans named `name`, in `unit_ns`
    /// nanoseconds per unit (1e6 for ms, 1e3 for µs, 1 for ns).
    pub(crate) fn durations(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / unit_ns)
            .collect()
    }

    /// Writes all spans, with each span's self time, as one JSON document.
    pub(crate) fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}, \"self_ns\": {}}}{}",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.request,
                self_ns[i],
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// What recording one span costs, measured on the spot: the `--trace`
/// pass reports its own overhead as spans × this over its wall time.
pub(crate) fn span_cost_s() -> f64 {
    const N: usize = 20_000;
    let mut tr = Tracer::new();
    let t0 = Instant::now();
    for _ in 0..N {
        tr.time("calibration", || ());
    }
    t0.elapsed().as_secs_f64() / N as f64
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap each other (work on
/// parallel threads) or stick out of the parent; the covered part is the
/// union of the child intervals clipped to the parent's.
pub(crate) fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..40 with grandchild 20..30; child 50..70.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_their_union() {
        // Two parallel children 10..60 and 40..80 cover 70, not 90; a
        // child that starts before / ends after the parent is clipped.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),
            span(90, 130, Some(0)),
            // A child entirely inside an earlier sibling adds nothing.
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_links_parents_and_requests() {
        let mut tr = Tracer::new();
        tr.next_request();
        let root = tr.enter("root");
        tr.time("leaf", || std::hint::black_box(1 + 1));
        tr.exit(root);
        tr.next_request();
        tr.time("leaf", || ());
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].request, s[1].request, s[2].request), (1, 1, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(tr.durations("leaf", 1.0).len(), 2);
    }
}
