//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its name (`<layer>.<call>`), start, end, parent and the
//! job or request id it belongs to. Spans stay in memory while the workload
//! runs and are written out as JSON lines when it ends. With tracing off,
//! [`Tracer::span`] only calls its closure.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `engine.run_pending`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// The span that made this call, if any.
    pub parent: Option<SpanId>,
    /// Job position or request number the span belongs to.
    pub key: u64,
}

impl Span {
    /// Wall time covered.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when on; a no-op when off.
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: on.then(|| Mutex::new(Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// nested calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        key: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let id = {
            let mut spans = spans.lock().expect("span list poisoned by a panic");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                key,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_ns();
        spans.lock().expect("span list poisoned by a panic")[id].end_ns = end;
        out
    }

    /// The recorded spans (empty when off).
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.as_ref().map_or_else(Vec::new, |s| {
            s.lock().expect("span list poisoned by a panic").clone()
        })
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover. Children that overlap each other (two workers) are
/// counted once.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let a = a.max(reach);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Summed self time per layer, sorted by layer name.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by: std::collections::BTreeMap<&'static str, u64> = std::collections::BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by.entry(s.layer()).or_default() += t;
    }
    by.into_iter().collect()
}

/// Writes one JSON line per span (with its self time), then one summary
/// line per layer.
///
/// # Errors
///
/// Any I/O error creating or writing `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"key\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.key, s.start_ns, s.end_ns
        )?;
    }
    for (layer, ns) in self_time_by_layer(spans) {
        writeln!(out, "{{\"layer\":\"{layer}\",\"self_ns\":{ns}}}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            key: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("engine.sweep", 0, 100, None),
            span("core.step", 10, 30, Some(0)),
            span("core.step", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers under one parent: [10, 50) and [30, 80) cover 70 ns,
        // not 90; a child running past the parent's end is clipped.
        let spans = [
            span("engine.sweep", 0, 100, None),
            span("engine.run_pending", 10, 50, Some(0)),
            span("engine.run_pending", 30, 80, Some(0)),
            span("engine.run_pending", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn nested_children_only_count_against_their_parent() {
        let spans = [
            span("engine.sweep", 0, 100, None),
            span("engine.run_pending", 0, 60, Some(0)),
            span("core.step", 0, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 50]);
        assert_eq!(
            self_time_by_layer(&spans),
            vec![("core", 50), ("engine", 50)]
        );
    }

    #[test]
    fn tracer_records_parents_only_when_on() {
        let t = Tracer::new(true);
        t.span("engine.sweep", None, 7, |p| {
            t.span("core.step", p, 7, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.key == 7));

        let off = Tracer::new(false);
        assert_eq!(off.span("engine.sweep", None, 0, |p| p), None);
        assert!(off.spans().is_empty());
    }
}
