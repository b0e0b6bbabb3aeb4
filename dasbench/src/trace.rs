//! In-memory spans recorded around calls into each layer's public
//! functions, and the per-layer metrics derived from them.

use std::collections::BTreeMap;

use rtped_core::json::Json;
use rtped_core::timer::Stopwatch;

/// One timed call. Spans of one request or frame share `request`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ms: f64,
    pub end_ms: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// Records spans against one time origin; written out when the run ends.
/// Without a clock it only holds spans given to [`Tracer::record`].
#[derive(Default)]
pub struct Tracer {
    clock: Option<Stopwatch>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(clock: Stopwatch) -> Self {
        Tracer {
            clock: Some(clock),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ms(&self) -> f64 {
        self.clock.map_or(0.0, |c| c.elapsed_ms())
    }

    /// Times `f` as a span and returns its result and the span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Starts a span whose children are recorded before [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ms();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ms: now,
            end_ms: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ms = self.now_ms();
    }

    /// Records a span measured elsewhere (the served call of the timed loop).
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Duration minus the time its direct children cover.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum();
        self.spans[id].ms() - children
    }

    /// The spans as JSON lines-ready objects, with self times.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Object(vec![
                        ("id".into(), id.into()),
                        ("parent".into(), s.parent.map_or(Json::Null, Json::from)),
                        ("request".into(), s.request.into()),
                        ("name".into(), s.name.into()),
                        ("start_ms".into(), s.start_ms.into()),
                        ("end_ms".into(), s.end_ms.into()),
                        ("self_ms".into(), self.self_ms(id).into()),
                    ])
                })
                .collect(),
        )
    }
}

/// Mean of `values`, 0 for none.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Cost of one recorded span, in microseconds: the tracer's own overhead.
pub fn span_cost_us() -> f64 {
    const N: usize = 20_000;
    let mut tracer = Tracer::new(Stopwatch::start());
    let clock = Stopwatch::start();
    for i in 0..N {
        let id = tracer.open("probe", None, i as u64);
        tracer.close(id);
    }
    clock.elapsed_ms() * 1e3 / N as f64
}

/// Per-layer metric values by name; names the run did not exercise read 0.
/// Per-frame samples given to [`Layers::push`] read as their median, so
/// one frame the host stalled does not move a layer's figure.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.values.entry(name.into()).or_insert(0.0) += value;
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> f64 {
        match self.samples.get(name) {
            Some(samples) if !samples.is_empty() => crate::stats::median(samples),
            _ => self.values.get(name).copied().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        let span = |name, parent, start_ms, end_ms| Span {
            name,
            parent,
            request: 7,
            start_ms,
            end_ms,
        };
        let root = t.record(span("root", None, 0.0, 10.0));
        let child = t.record(span("child", Some(root), 1.0, 7.0));
        t.record(span("grandchild", Some(child), 2.0, 4.0));
        assert_eq!(t.self_ms(root), 4.0);
        assert_eq!(t.self_ms(child), 4.0);
    }
}
