//! Spans the benchmark records around its own calls into the workspace.
//!
//! Nothing inside the measured program is instrumented (that is a later
//! change); a span here is "the benchmark called X from `start` to `end`,
//! because of span `parent`". Spans stay in memory for the whole traced
//! pass and are written out once, at exit.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`SpanLog`].
pub type SpanId = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

/// An in-memory, bounded span buffer.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl SpanLog {
    /// A log that keeps at most `cap` spans; later ones are only counted.
    pub fn new(cap: usize) -> Self {
        SpanLog { epoch: Instant::now(), spans: Vec::new(), cap, dropped: 0 }
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; children name the returned id as their parent.
    /// `None` when the buffer is full.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let start_ns = self.now_ns();
        self.push(Span { name, start_ns, end_ns: start_ns, parent })
    }

    /// Closes a span opened with [`SpanLog::open`] now.
    pub fn close(&mut self, id: Option<SpanId>) {
        let now = self.now_ns();
        if let Some(id) = id {
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Records a finished leaf span from two instants already taken.
    pub fn leaf(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) {
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent };
        self.push(span);
    }

    fn push(&mut self, span: Span) -> Option<SpanId> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans that did not fit under the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes one JSON object per span (`id`, `name`, `start_ns`,
    /// `end_ns`, `parent`), then one trailer line with the dropped count.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, including the final flush.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "{{\"dropped_spans\": {}}}", self.dropped)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut log = SpanLog::new(8);
        let rep = log.open("repetition", None);
        let slice = log.open("slice", rep);
        let t0 = Instant::now();
        let t1 = Instant::now();
        log.leaf("step", t0, t1, slice);
        log.close(slice);
        log.close(rep);
        assert_eq!(log.len(), 3);
        assert_eq!(log.spans[2].parent, Some(1));
        assert!(log.spans[0].end_ns >= log.spans[1].end_ns);

        let path =
            std::env::temp_dir().join(format!("perfbench-spans-{}.jsonl", std::process::id()));
        log.write_jsonl(&path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"id\": 0, \"name\": \"repetition\""));
        assert!(lines[0].ends_with("\"parent\": null}"));
        assert!(lines[2].ends_with("\"parent\": 1}"));
        assert_eq!(lines[3], "{\"dropped_spans\": 0}");
    }

    #[test]
    fn the_cap_drops_and_counts() {
        let mut log = SpanLog::new(1);
        let a = log.open("a", None);
        let b = log.open("b", a);
        assert!(a.is_some() && b.is_none());
        log.close(b); // closing a dropped span is a no-op
        assert_eq!((log.len(), log.dropped()), (1, 1));
    }
}
