//! In-memory spans of the traced pass.
//!
//! Each span records its name, start, end, the span that caused it, the
//! executing thread (its lane) and, inside a job, the job's fingerprint.
//! Spans stay in memory and are written once the pass is over, so the
//! writing never lands inside a measured interval.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug)]
pub struct Span {
    pub id: u64,
    /// The causing span; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub lane: u64,
    pub fp: Option<String>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// that the spans it causes can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        fp: Option<&str>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            lane: LANE.with(|lane| *lane),
            fp: fp.map(str::to_string),
        };
        self.spans.lock().expect("span log poisoned").push(span);
        out
    }

    /// The recorded spans, in order of completion.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span log poisoned")
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children, as on parallel
/// threads, are counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for span in spans {
        children.entry(span.parent).or_default().push(span);
    }
    spans
        .iter()
        .map(|span| {
            let mut intervals: Vec<(u64, u64)> = children
                .get(&span.id)
                .into_iter()
                .flatten()
                .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                .filter(|(s, e)| s < e)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// Writes spans as JSON lines, with each span's self time.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let fp = match &s.fp {
            Some(fp) => format!("\"{fp}\""),
            None => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
             \"self_us\":{:.3},\"lane\":{},\"fp\":{fp}}}",
            s.id,
            s.parent,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            selfs[&s.id] as f64 / 1e3,
            s.lane,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t.x",
            start_ns,
            end_ns,
            lane: 1,
            fp: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with two overlapping children 10..50 and 30..70 (two
        // threads) and one grandchild that must not count against the root.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 50),
            span(3, 1, 30, 70),
            span(4, 2, 20, 40),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 60);
        assert_eq!(selfs[&2], 40 - 20);
        assert_eq!(selfs[&3], 40);
        assert_eq!(selfs[&4], 20);
    }

    #[test]
    fn recorder_nests_spans_and_names_layers() {
        let rec = Recorder::new();
        rec.span("bench.root", 0, None, |root| {
            rec.span("sim.run", root, Some("ab"), |_| ())
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.layer(), "sim");
        assert_eq!(inner.fp.as_deref(), Some("ab"));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
