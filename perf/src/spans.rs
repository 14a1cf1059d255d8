//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer of the program; nothing inside the crates is touched.
//! Spans are kept in memory and written out when the run ends.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The statement this span belongs to (index into the stream).
    pub stmt: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    stmt: usize,
}

impl Recorder {
    /// Recorders that share `epoch` share a time line.
    pub fn new(epoch: Instant, capacity: usize) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            stmt: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of statement `stmt`.
    pub fn statement(&mut self, stmt: usize) -> usize {
        self.stmt = stmt;
        self.enter("stmt")
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            stmt: self.stmt,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Time one call into a layer.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its child spans cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Share of the statements' wall time covered by their depth-1 spans.
pub fn coverage(spans: &[Span]) -> f64 {
    let (mut roots, mut depth1) = (0u64, 0u64);
    for s in spans {
        match s.parent {
            None => roots += s.dur_ns(),
            Some(p) if spans[p].parent.is_none() => depth1 += s.dur_ns(),
            Some(_) => {}
        }
    }
    if roots == 0 {
        return 0.0;
    }
    depth1 as f64 / roots as f64
}

/// Write the spans as one JSON array, one object per span (`id` is what
/// `parent` refers to).
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",\n")?;
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"stmt\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.stmt, s.start_ns, s.end_ns
        )?;
    }
    w.write_all(b"]\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            stmt: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("stmt", 0, 100, None),
            span("decode", 5, 25, Some(0)),
            span("exec", 30, 90, Some(0)),
            span("wal", 40, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 40, 20]);
        // Depth-1 spans cover 80 of the statement's 100 ns.
        assert!((coverage(&spans) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("stmt", 10, 110, None),
            span("a", 20, 60, Some(0)),
            span("b", 50, 80, Some(0)),
            // Runs past its parent's end: only the inside part counts.
            span("c", 100, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - (60 + 10));
    }

    #[test]
    fn the_recorder_nests_and_tags_statements() {
        let mut r = Recorder::new(Instant::now(), 8);
        let root = r.statement(7);
        let got = r.call("layer", || 42);
        r.exit(root);
        assert_eq!(got, 42);
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(root));
        assert_eq!(r.spans[1].stmt, 7);
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
    }
}
