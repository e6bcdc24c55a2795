//! In-memory spans for the traced run.
//!
//! A span is `(name, start, end, parent)`, recorded around a call into
//! one layer's public function. Spans stay in memory until the run ends
//! and are then written out as TSV; the per-layer metrics are their
//! per-name sums.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Calls or items the span covers.
    pub items: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` covering `items` calls or items.
    pub fn span<R>(&mut self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, items);
        let out = f();
        self.end(id);
        out
    }

    /// Open a span that later spans nest under, until [`end`](Tracer::end).
    pub fn begin(&mut self, name: &'static str, items: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            items,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Seconds spent in spans named `name`, and the calls or items they cover.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let mut busy = 0u64;
        let mut items = 0u64;
        for s in self.spans.iter().filter(|s| s.name == name) {
            busy += s.end_ns - s.start_ns;
            items += s.items;
        }
        (busy as f64 / 1e9, items)
    }

    /// Durations in seconds of each span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Write every span as `id  name  start_ns  end_ns  parent  items`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\titems")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}
