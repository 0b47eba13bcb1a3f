//! Spans recorded from the benchmark's own code, around its calls into
//! each layer. Spans are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that caused this one, within the same tracer.
    parent: Option<usize>,
    /// Every span of one docket shares its id.
    docket: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, docket: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            docket,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Runs `work` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        docket: u64,
        work: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, docket);
        let out = work();
        self.close(span);
        out
    }

    /// Appends another tracer's spans (same origin), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|parent| parent + offset);
            span
        }));
    }

    /// Per docket, the summed milliseconds of every span named `name`.
    pub fn per_docket_ms(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|span| span.name == name) {
            *sums.entry(span.docket).or_insert(0.0) += (span.end_ns - span.start_ns) as f64 / 1e6;
        }
        sums.into_values().collect()
    }

    /// Writes every span as JSON.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |parent| parent.to_string());
            out.push_str(&format!(
                "  {{\"id\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"docket\": {}}}{}\n",
                span.name,
                span.start_ns,
                span.end_ns,
                span.docket,
                if index + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of a sample (0 for an empty one).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
