//! The benchmark's own tracer: spans opened and closed around calls
//! into the repository's crates, kept in memory and written out at the
//! end of a traced run.
//!
//! Spans nest (each records the span open when it started as its
//! parent) and are closed in LIFO order, so a span's *self time* is
//! its duration minus its children's durations. Counts are recorded at
//! the same boundaries so per-unit costs divide a span's self time by
//! work measured where the work happened. A tracer built with
//! [`Tracer::off`] records nothing and costs one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One span: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, `crate/function[/detail]`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch; `None` while open.
    pub end_ns: Option<u64>,
}

/// In-memory span and count recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// An inert tracer: spans run their body and record nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: None,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close the span `open` returned; it must be the innermost one.
    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = Some(self.now_ns());
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Add `n` units of work to the count `name`.
    pub fn count(&mut self, name: &str, n: f64) {
        if self.on {
            *self.counts.entry(name.to_string()).or_insert(0.0) += n;
        }
    }

    /// The accumulated count `name` (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (its duration minus its children's), in
    /// opening order. Open spans count as empty.
    pub fn self_ns(&self) -> Vec<i64> {
        let dur = |s: &Span| s.end_ns.map_or(0, |e| e.saturating_sub(s.start_ns)) as i64;
        let mut own: Vec<i64> = self.spans.iter().map(dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= dur(s);
            }
        }
        own
    }

    /// Summed self time of the spans named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Summed self time of the spans named `name` per unit of the count
    /// of the same name, in nanoseconds.
    pub fn ns_per(&self, name: &str) -> f64 {
        self.self_s(name) * 1e9 / self.counted(name).max(1.0)
    }

    /// Check the recording: every span closed, no self time negative,
    /// and self times summing to no more than `wall_ns`.
    pub fn check(&self, wall_ns: u64) -> Result<(), String> {
        if let Some(s) = self.spans.iter().find(|s| s.end_ns.is_none()) {
            return Err(format!("span '{}' never closed", s.name));
        }
        let own = self.self_ns();
        if let Some((s, ns)) = self.spans.iter().zip(&own).find(|(_, &ns)| ns < 0) {
            return Err(format!("span '{}' has negative self time {ns} ns", s.name));
        }
        let total: i64 = own.iter().sum();
        if total as u64 > wall_ns {
            return Err(format!(
                "self times sum to {total} ns, beyond the {wall_ns} ns traced"
            ));
        }
        Ok(())
    }

    /// The spans and counts as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                dg_bench::json::escape(&s.name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns.map_or("null".to_string(), |e| e.to_string()),
            );
        }
        out.push_str("\n],\"counts\":{");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n\"{}\":{}",
                dg_bench::json::escape(k),
                dg_bench::json::number(*v)
            );
        }
        out.push_str("\n}}\n");
        out
    }
}
