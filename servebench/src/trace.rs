//! In-memory span recorder for the traced run.
//!
//! Spans live in the benchmark's own code, never inside the serving
//! crates: each wraps one public call the benchmark makes (a set-up step,
//! the serving call, an output check, a per-layer probe). A disabled
//! tracer only runs the closure, so untraced runs pay one branch per
//! wrapped call.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Span name: `<layer>.<call>`, e.g. `setup.registry.publish`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The run this span belongs to (workload, seed, process).
    pub run_id: String,
}

impl Span {
    /// Span length in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans when enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run_id: String,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer::new(false, String::new())
    }

    /// A recording tracer tagging every span with `run_id`.
    #[must_use]
    pub fn on(run_id: String) -> Self {
        Tracer::new(true, run_id)
    }

    fn new(enabled: bool, run_id: String) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            run_id,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` (nested under the innermost
    /// open span).
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                run_id: self.run_id.clone(),
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Total seconds spent in spans named exactly `name`.
    #[must_use]
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Snapshot of every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The spans as a JSON array. Each span also carries its self time:
    /// its duration minus the time its child spans cover.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let out = spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name.clone(),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]),
                    "run_id": s.run_id.clone(),
                })
            })
            .collect();
        serde_json::Value::Array(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_order() {
        let t = Tracer::on("run-1".into());
        let v = t.span("outer", || t.span("inner", || 7) + t.span("inner", || 1));
        assert_eq!(v, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.run_id == "run-1"));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(t.seconds("inner") <= t.seconds("outer"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.spans().is_empty());
        assert_eq!(t.seconds("x"), 0.0);
    }
}
