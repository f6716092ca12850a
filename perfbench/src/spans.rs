//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers. Nothing inside the program is instrumented: a span
//! is the wall time of one public call, and its attributes are numbers
//! read from what that call returned.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `graph.edge_index`.
    pub name: &'static str,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
    /// Counts and times read from the call's return value.
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    /// Wall seconds of the call.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The attribute `key`, or 0 when the call did not report it.
    pub fn attr(&self, key: &str) -> f64 {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Times calls and, when enabled, keeps one [`Span`] per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only if `enabled`; timing works
    /// either way.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f`, returning its result, its span and its wall seconds.
    /// Spans opened inside `f` become children of this one.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, SpanId, f64) {
        let id = self.enabled.then(|| {
            let now = self.origin.elapsed().as_secs_f64();
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_s: now,
                end_s: now,
                attrs: Vec::new(),
            });
            let id = self.spans.len() - 1;
            self.open.push(id);
            id
        });
        let start = Instant::now();
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end_s = self.spans[id].start_s + secs;
        }
        (out, id, secs)
    }

    /// Attaches a number to a recorded span (no-op when tracing is off).
    pub fn attr(&mut self, span: SpanId, key: impl Into<String>, value: f64) {
        if let Some(id) = span {
            self.spans[id].attrs.push((key.into(), value));
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Recorded spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes the spans as JSON lines (`id`, `parent`, `name`, `start_s`,
    /// `end_s`, `attrs`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
                .collect();
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"attrs\": {{{}}}}}",
                s.name,
                json_number(s.start_s),
                json_number(s.end_s),
                attrs.join(", ")
            )?;
        }
        out.flush()
    }
}

/// A JSON number for any `f64` (non-finite values have no JSON form and
/// print as 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns -0 (an empty float sum) into 0.
        format!("{}", v + 0.0)
    } else {
        "0".to_string()
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_attrs() {
        let mut t = Tracer::new(true);
        let ((), outer, _) = t.time("outer", |t| {
            let ((), inner, _) = t.time("inner", |_| {});
            t.attr(inner, "words", 3.0);
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, outer);
        assert_eq!(t.spans()[1].attr("words"), 3.0);
        assert_eq!(t.spans()[1].attr("missing"), 0.0);
        assert!(t.spans()[0].duration_s() >= t.spans()[1].duration_s());
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (x, id, secs) = t.time("call", |_| 7);
        t.attr(id, "k", 1.0);
        assert_eq!((x, id), (7, None));
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
