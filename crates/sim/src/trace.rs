//! Structured event trace.
//!
//! Every externally visible simulation event is appended to the trace in
//! execution order. Tests assert determinism by comparing full traces from
//! same-seed runs, and assert behaviour ("the compensation ran after the
//! hotel failure") by querying it.

use std::fmt;

use crate::node::NodeId;
use crate::time::SimTime;

/// One entry in the simulation trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message left `src` heading for `dst`.
    MessageSent {
        /// Sender.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
        /// Payload length in bytes.
        bytes: usize,
    },
    /// A message arrived and was handed to its destination.
    MessageDelivered {
        /// Sender.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
    },
    /// A message was lost in transit.
    MessageDropped {
        /// Sender.
        src: NodeId,
        /// Intended receiver.
        dst: NodeId,
        /// Why it was lost.
        reason: DropReason,
    },
    /// A node crashed.
    NodeCrashed {
        /// The crashed node.
        node: NodeId,
    },
    /// A node restarted (volatile state lost, durable state intact).
    NodeRestarted {
        /// The restarted node.
        node: NodeId,
    },
    /// Two node groups were partitioned.
    Partitioned,
    /// All partitions healed.
    Healed,
    /// A domain-specific annotation from user code.
    Custom {
        /// Logical originator (free-form).
        node: String,
        /// The annotation text.
        label: String,
    },
}

/// Why a message never arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss on the link.
    Loss,
    /// Source and destination were partitioned at send time.
    Partition,
    /// The destination was down at delivery time.
    NodeDown,
    /// The sender was down at send time.
    SenderDown,
    /// The destination restarted after the message was sent (stale
    /// incarnation).
    StaleIncarnation,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            DropReason::Loss => "loss",
            DropReason::Partition => "partition",
            DropReason::NodeDown => "node down",
            DropReason::SenderDown => "sender down",
            DropReason::StaleIncarnation => "stale incarnation",
        };
        f.write_str(text)
    }
}

/// The full ordered trace of a simulation run.
#[derive(Debug, Default)]
pub struct Trace {
    entries: Vec<(SimTime, TraceEvent)>,
    enabled: bool,
}

impl Trace {
    /// Creates an enabled, empty trace.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            enabled: true,
        }
    }

    /// Disables recording (benchmarks use this to exclude trace cost).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.enabled {
            self.entries.push((at, event));
        }
    }

    /// All recorded entries in order.
    pub fn entries(&self) -> &[(SimTime, TraceEvent)] {
        &self.entries
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether any custom annotation with exactly this label was recorded.
    pub fn contains_custom(&self, label: &str) -> bool {
        self.entries
            .iter()
            .any(|(_, e)| matches!(e, TraceEvent::Custom { label: l, .. } if l == label))
    }

    /// All custom annotations, in order, as `(node, label)` pairs.
    pub fn custom_events(&self) -> Vec<(&str, &str)> {
        self.entries
            .iter()
            .filter_map(|(_, e)| match e {
                TraceEvent::Custom { node, label } => Some((node.as_str(), label.as_str())),
                _ => None,
            })
            .collect()
    }

    /// Count of messages dropped for the given reason.
    pub fn drops(&self, reason: DropReason) -> usize {
        self.entries
            .iter()
            .filter(
                |(_, e)| matches!(e, TraceEvent::MessageDropped { reason: r, .. } if *r == reason),
            )
            .count()
    }

    /// Count of messages delivered.
    pub fn deliveries(&self) -> usize {
        self.entries
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::MessageDelivered { .. }))
            .count()
    }

    /// Renders the trace as one line per event (diagnostics).
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (at, event) in &self.entries {
            let _ = writeln!(out, "{at}: {event:?}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.set_enabled(false);
        t.record(
            SimTime::ZERO,
            TraceEvent::Custom {
                node: "x".into(),
                label: "y".into(),
            },
        );
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn queries_find_events() {
        let mut t = Trace::new();
        t.record(
            SimTime::ZERO,
            TraceEvent::Custom {
                node: "a".into(),
                label: "start".into(),
            },
        );
        t.record(
            SimTime::from_nanos(5),
            TraceEvent::MessageDropped {
                src: NodeId(0),
                dst: NodeId(1),
                reason: DropReason::Loss,
            },
        );
        t.record(
            SimTime::from_nanos(9),
            TraceEvent::MessageDelivered {
                src: NodeId(0),
                dst: NodeId(1),
            },
        );
        assert!(t.contains_custom("start"));
        assert!(!t.contains_custom("nope"));
        assert_eq!(t.custom_events(), vec![("a", "start")]);
        assert_eq!(t.drops(DropReason::Loss), 1);
        assert_eq!(t.drops(DropReason::Partition), 0);
        assert_eq!(t.deliveries(), 1);
        assert_eq!(t.len(), 3);
        assert!(t.render().lines().count() == 3);
    }
}
