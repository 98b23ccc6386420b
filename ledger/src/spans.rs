//! Spans around the ledger's own calls into `WorkflowSystem`.
//!
//! Recorded only in the traced run, kept in memory, written out as one
//! JSON file when the run ends. Spans inside the program are a later
//! issue; these mark the layer boundary the benchmark can see.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the workflow instance the span belongs to, shared by
    /// every span of that instance (`wave-<id>` / `app-<id>`).
    pub instance: Option<u32>,
}

/// A single-threaded span recorder. Disabled recorders cost one branch
/// per call and record nothing, so the same driver code runs traced and
/// untraced.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, instance: Option<u32>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            instance,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without enter");
        self.spans[index].end_ns = end_ns;
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64)
            .collect()
    }

    /// Self time per span: its duration minus the part its direct
    /// children cover (one thread, so children never overlap).
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let self_times = self.self_times_ns();
        Json::obj([
            ("workload", Json::Str(workload.to_string())),
            ("clock", Json::Str("wall".into())),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .zip(&self_times)
                        .map(|(span, &self_ns)| {
                            Json::obj([
                                ("name", Json::Str(span.name.to_string())),
                                ("start_ns", Json::Num(span.start_ns as f64)),
                                ("end_ns", Json::Num(span.end_ns as f64)),
                                ("self_ns", Json::Num(self_ns as f64)),
                                (
                                    "parent",
                                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                (
                                    "instance",
                                    span.instance
                                        .map_or(Json::Null, |i| Json::Num(f64::from(i))),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut self_times: Vec<u64> = spans
        .iter()
        .map(|span| span.end_ns - span.start_ns)
        .collect();
    for span in spans {
        if let Some(parent) = span.parent {
            self_times[parent] = self_times[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    self_times
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            instance: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 90, Some(0)),
            span(55, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 35, 5]);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut spans = Spans::new(true);
        spans.enter("repeat", None);
        spans.enter("start", Some(3));
        spans.exit();
        spans.exit();
        assert_eq!(spans.all().len(), 2);
        assert_eq!(spans.all()[1].parent, Some(0));
        assert_eq!(spans.all()[1].instance, Some(3));
        assert!(spans.all()[0].end_ns >= spans.all()[1].end_ns);
        let total: u64 = spans.self_times_ns().iter().sum();
        assert_eq!(total, spans.all()[0].end_ns - spans.all()[0].start_ns);

        let mut off = Spans::new(false);
        off.enter("repeat", None);
        off.exit();
        assert!(off.all().is_empty());
    }
}
