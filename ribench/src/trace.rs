//! In-memory spans recorded by the benchmark around each call it makes
//! into the program, and the self-time rollup computed from them.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One finished span; times are microseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A per-thread span buffer. When tracing is off, `start` returns
/// `None` and nothing is recorded, so untraced runs pay one branch.
#[derive(Debug)]
pub struct SpanBuf {
    on: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// A buffer whose span ids start at `thread << 40`, so ids from
    /// different threads never collide.
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Self {
        SpanBuf {
            on,
            epoch,
            next_id: thread << 40,
            spans: Vec::new(),
        }
    }

    pub fn start(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<&Open>,
    ) -> Option<Open> {
        if !self.on {
            return None;
        }
        self.next_id += 1;
        Some(Open {
            id: self.next_id,
            parent: parent.map(Open::id),
            name,
            request,
            start: Instant::now(),
        })
    }

    pub fn end(&mut self, open: Option<Open>) {
        if let Some(open) = open {
            let end = Instant::now();
            let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                request: open.request,
                start_us: us(open.start),
                end_us: us(end),
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's self time: its duration minus the part of it covered by
/// the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<(u64, f64)> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_us - s.start_us - covered).max(0.0))
        })
        .collect()
}

/// Per span name: count, total duration and total self time (µs).
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs: HashMap<u64, f64> = self_times(spans).into_iter().collect();
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_us - s.start_us;
        e.2 += selfs[&s.id];
    }
    out
}

/// One span as a JSON line.
pub fn to_json_line(s: &Span) -> String {
    let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
    format!(
        "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
        s.id, parent, s.name, s.request, s.start_us, s.end_us
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            request: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0.0, 100.0),
            // Overlapping children cover [10, 50] once, not twice.
            span(2, Some(1), 10.0, 40.0),
            span(3, Some(1), 30.0, 50.0),
            // A child spilling past its parent counts only inside it.
            span(4, Some(1), 90.0, 120.0),
            // A grandchild is not subtracted from the root.
            span(5, Some(2), 12.0, 20.0),
        ];
        let selfs: HashMap<u64, f64> = self_times(&spans).into_iter().collect();
        assert_eq!(selfs[&1], 100.0 - 40.0 - 10.0);
        assert_eq!(selfs[&2], 30.0 - 8.0);
        assert_eq!(selfs[&3], 20.0);
        assert_eq!(selfs[&5], 8.0);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = SpanBuf::new(false, Instant::now(), 1);
        let s = buf.start("op", 7, None);
        assert!(s.is_none());
        buf.end(s);
        assert!(buf.into_spans().is_empty());
    }

    #[test]
    fn enabled_buffer_links_children_to_parents() {
        let mut buf = SpanBuf::new(true, Instant::now(), 3);
        let root = buf.start("op", 7, None);
        let child = buf.start("call", 7, root.as_ref());
        buf.end(child);
        buf.end(root);
        let spans = buf.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "call");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[1].id >> 40 == 3);
        let roll = rollup(&spans);
        assert_eq!(roll["op"].0, 1);
        assert!(roll["op"].2 <= roll["op"].1);
        assert!(to_json_line(&spans[1]).contains("\"parent\":null"));
    }
}
