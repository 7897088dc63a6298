//! The benchmark's own spans, recorded around each call into a layer of
//! rheem-rs. Spans stay in memory while the run measures and are written
//! out once, after it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. Spans of one job share `job`; `parent` indexes the
/// job's span list (the root span has none).
#[derive(Clone, Debug)]
pub struct Span {
    pub job: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// In-memory span store shared by every client thread of a run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_job: Mutex<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Mutex::new(Vec::new()), next_job: Mutex::new(0) }
    }

    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Open a job: its root span `job` starts now.
    pub fn job(&self) -> JobSpans<'_> {
        let job = {
            let mut n = self.next_job.lock().expect("job counter lock poisoned");
            *n += 1;
            *n
        };
        let root =
            Span { job, id: 0, parent: None, name: "job", start_ms: self.now_ms(), end_ms: 0.0 };
        JobSpans { tracer: self, spans: vec![root] }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans.lock().expect("span store lock poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"job\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ms\":{},\"end_ms\":{}}}",
                s.job, s.id, parent, s.name, s.start_ms, s.end_ms
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The spans of one job under construction; committed by [`JobSpans::finish`].
pub struct JobSpans<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
}

impl JobSpans<'_> {
    /// Time `f` as a child of the job's root span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ms = self.tracer.now_ms();
        let out = f();
        let end_ms = self.tracer.now_ms();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            job: self.spans[0].job,
            id,
            parent: Some(0),
            name,
            start_ms,
            end_ms,
        });
        out
    }

    /// Duration of the last span named `name`, ms (0 if none).
    pub fn last_ms(&self, name: &str) -> f64 {
        self.spans.iter().rev().find(|s| s.name == name).map_or(0.0, Span::duration_ms)
    }

    /// Close the root span and hand the job's spans to the store.
    pub fn finish(mut self) {
        self.spans[0].end_ms = self.tracer.now_ms();
        self.tracer.spans.lock().expect("span store lock poisoned").append(&mut self.spans);
    }
}

/// Self time of every span, keyed by (job, span id): its duration minus
/// the part of its interval that its children cover.
pub fn self_times(spans: &[Span]) -> HashMap<(u64, u32), f64> {
    let mut children: HashMap<(u64, u32), Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry((s.job, p)).or_default().push((s.start_ms, s.end_ms));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            let mut kids = children.remove(&(s.job, s.id)).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = s.start_ms;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_ms));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            ((s.job, s.id), s.duration_ms() - covered)
        })
        .collect()
}

/// Per span name: (number of jobs with such a span, total self time in ms).
pub fn self_time_by_name(spans: &[Span]) -> HashMap<&'static str, (usize, f64)> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, (usize, f64)> = HashMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += selfs[&(s.job, s.id)];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(job: u64, id: u32, parent: Option<u32>, name: &'static str, s: f64, e: f64) -> Span {
        Span { job, id, parent, name, start_ms: s, end_ms: e }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span(1, 0, None, "job", 0.0, 10.0),
            span(1, 1, Some(0), "optimizer", 1.0, 4.0),
            span(1, 2, Some(0), "execute", 3.0, 9.0), // overlaps the first child
            span(2, 0, None, "job", 0.0, 5.0),
        ];
        let st = self_times(&spans);
        assert!((st[&(1, 0)] - 2.0).abs() < 1e-12); // 10 - |[1, 9]|
        assert!((st[&(1, 1)] - 3.0).abs() < 1e-12);
        assert!((st[&(2, 0)] - 5.0).abs() < 1e-12);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["job"].0, 2);
        assert!((by_name["job"].1 - 7.0).abs() < 1e-12);
    }

    #[test]
    fn jobs_share_an_id_and_commit_on_finish() {
        let t = Tracer::new();
        let mut j = t.job();
        let v = j.span("plan.build", || 41 + 1);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
        j.finish();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.job == spans[0].job));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ms >= spans[1].end_ms);
    }
}
