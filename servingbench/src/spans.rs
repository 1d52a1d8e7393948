//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Spans stay in memory while a traced run works and are written as JSON
//! lines when it ends. All spans of one operation share its `request` id; a
//! stage's parent is the operation's root span.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start, end, the span that caused it, and the counts
/// taken at the same boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans. A disabled recorder runs the same stages and records
/// nothing, which is how the cost of recording itself is measured.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `stage` inside a span. `stage` returns its value and the counts
    /// to attach.
    pub fn stage<T>(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        stage: impl FnOnce(&mut Self, Option<usize>) -> (T, Vec<(&'static str, u64)>),
    ) -> T {
        if !self.enabled {
            return stage(self, None).0;
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us,
            end_us: start_us,
            counts: Vec::new(),
        });
        let (value, counts) = stage(self, Some(id));
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        span.counts = counts;
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans called `name` directly under a root span called `root`.
    fn stages<'a>(&'a self, root: &'a str, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| {
            s.name == name && s.parent.is_some_and(|parent| self.spans[parent].name == root)
        })
    }

    /// How many `name` stages ran under `root` operations.
    pub fn count(&self, root: &str, name: &str) -> usize {
        self.stages(root, name).count()
    }

    /// Median duration of the `name` stage of `root` operations, in µs with
    /// its fraction (a stage of a few µs would lose most of its digits as a
    /// whole number); 0 if there was none.
    pub fn median_us(&self, root: &str, name: &str) -> f64 {
        let durations: Vec<f64> = self.stages(root, name).map(Span::duration_us).collect();
        crate::stats::median_f64(&durations)
    }

    /// Every value of count `key` on the `name` stage of `root` operations.
    pub fn counts(&self, root: &str, name: &str, key: &str) -> Vec<f64> {
        self.stages(root, name)
            .flat_map(|s| s.counts.iter().filter(|(k, _)| *k == key).map(|&(_, v)| v as f64))
            .collect()
    }

    /// A span's duration minus the part its children cover.
    pub fn self_time_us(&self, span: &Span) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(span.id)).map(Span::duration_us).sum();
        span.duration_us() - children
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let counts: Vec<String> =
                span.counts.iter().map(|(key, value)| format!("\"{key}\":{value}")).collect();
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3},\"counts\":{{{}}}}}",
                span.id,
                span.request,
                span.name,
                span.start_us,
                span.end_us,
                self.self_time_us(span),
                counts.join(",")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_nest_and_self_time_excludes_children() {
        let mut recorder = Recorder::new(true);
        let answer = recorder.stage(9, None, "root", |recorder, root| {
            let inner = recorder.stage(9, root, "child", |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                (20, vec![("bytes", 5)])
            });
            (inner + 1, Vec::new())
        });
        assert_eq!(answer, 21);
        let [root, child] = recorder.spans() else { panic!("two spans") };
        assert_eq!((root.parent, child.parent, child.request), (None, Some(root.id), 9));
        assert!(child.duration_us() >= 2_000.0);
        assert!(recorder.self_time_us(root) < root.duration_us() - 1_999.0);
        assert_eq!(recorder.counts("root", "child", "bytes"), vec![5.0]);
        assert_eq!(recorder.count("root", "child"), 1);
        assert!(recorder.median_us("root", "child") >= 2_000.0);
        assert_eq!(recorder.median_us("child", "root"), 0.0);
    }

    #[test]
    fn a_disabled_recorder_runs_stages_and_keeps_nothing() {
        let mut recorder = Recorder::new(false);
        assert_eq!(recorder.stage(1, None, "root", |_, id| (id, Vec::new())), None);
        assert!(recorder.spans().is_empty());
    }
}
