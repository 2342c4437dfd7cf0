//! Spans recorded by the harness around its calls into each layer.
//! They live in memory during the run and are written out at exit;
//! spans inside the program are a later issue.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The `wserv`/`dwt` module the timed call belongs to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log on one clock.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        request_id: u64,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let request_id = self.spans[parent].request_id;
        let id = self.open(name, layer, Some(parent), request_id);
        let out = f();
        self.close(id);
        out
    }

    /// Record a child whose duration was measured by a separate call of
    /// the same work (the kernel inside `submit().wait()` cannot be
    /// bracketed from outside): it is placed at the parent's start and
    /// clipped to the parent's length.
    pub fn place_child(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: usize,
        dur_ns: u64,
    ) {
        let p = &self.spans[parent];
        let (start_ns, request_id) = (p.start_ns, p.request_id);
        let end_ns = start_ns + dur_ns.min(p.dur_ns());
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent: Some(parent),
            request_id,
        });
    }
}

/// A span's self time: its duration minus the part of its interval its
/// children cover (children are clipped to the parent and overlapping
/// children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
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
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Median self time per `(layer, name)`, over the requests that have
/// that span, in milliseconds. Spans of the same name within one
/// request are summed first.
pub fn self_time_table(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), f64> {
    let selfs = self_times_ns(spans);
    let mut per_request: BTreeMap<(&'static str, &'static str), BTreeMap<u64, u64>> =
        BTreeMap::new();
    for (s, ns) in spans.iter().zip(selfs) {
        *per_request
            .entry((s.layer, s.name))
            .or_default()
            .entry(s.request_id)
            .or_default() += ns;
    }
    per_request
        .into_iter()
        .map(|(key, by_req)| {
            let ms: Vec<f64> = by_req.values().map(|&ns| ns as f64 / 1e6).collect();
            (key, crate::stats::median(&ms))
        })
        .collect()
}

pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("layer", Value::str(s.layer)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("request_id", Value::Num(s.request_id as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer: "l",
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child a
            span(20, 50, Some(0)),  // child b overlaps a: union is 10..50
            span(90, 120, Some(0)), // child c overruns the root: clipped to 90..100
            span(12, 18, Some(1)),  // grandchild, only a's business
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 40 - 10, 20 - 6, 30, 30, 6]
        );
    }

    #[test]
    fn self_times_of_a_request_sum_to_its_root() {
        let mut r = Recorder::new();
        let root = r.open("request", "gen", None, 7);
        r.span("encode", "wire", root, || std::hint::black_box(1 + 1));
        let wait = r.open("submit_wait", "server", Some(root), 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(wait);
        r.place_child("decompose", "dwt", wait, 500_000);
        r.close(root);
        let selfs = self_times_ns(&r.spans);
        assert_eq!(selfs.iter().sum::<u64>(), r.spans[root].dur_ns());
        assert_eq!(selfs[3], 500_000);
        assert!(r.spans.iter().all(|s| s.request_id == 7));
        let table = self_time_table(&r.spans);
        assert!((table[&("dwt", "decompose")] - 0.5).abs() < 1e-9);
    }
}
