#![warn(missing_docs)]
//! Low-overhead observability for the flowscript engine.
//!
//! Two pieces, both plain values a shard owns and mutates in place —
//! no shared cells, so an owner can move between threads:
//!
//! - **metrics**: a [`Histogram`] records samples; a shard keeps its
//!   counters and gauges as plain integers. A [`Snapshot`] exports them
//!   by name, merges across shards and renders as JSON or CSV,
//! - a **[`FlightRecorder`]**: a bounded ring buffer of structured
//!   lifecycle [`ObsEvent`]s (instance start, commit, dispatch, retry,
//!   forward, stuck, recovery…), each carrying the instance id, task
//!   path, shard, attempt and a monotonic virtual timestamp. The
//!   engine queries it per instance to reconstruct a causal history.
//!
//! How much the engine feeds these is a branch on [`ObserveLevel`]:
//! `Off` costs one enum compare per hook point.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// How much the engine observes itself.
///
/// Checked at every hook point; `Off` reduces a hook to a branch on
/// this enum. Levels are cumulative: `Trace` implies `Metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ObserveLevel {
    /// No optional instrumentation. Always-on counters (the ones the
    /// public stats getters are built from) still tick.
    #[default]
    Off,
    /// Record optional metrics (histograms: drain lengths, dispatch
    /// latency, after-images per commit, scheduler load…).
    Metrics,
    /// `Metrics` plus the flight recorder of lifecycle events.
    Trace,
}

impl ObserveLevel {
    /// True when optional metrics (histograms, gauges) should tick.
    #[inline]
    pub fn metrics(self) -> bool {
        self >= ObserveLevel::Metrics
    }

    /// True when lifecycle events should be recorded.
    #[inline]
    pub fn trace(self) -> bool {
        self >= ObserveLevel::Trace
    }
}

/// Number of power-of-two buckets a histogram tracks: bucket `i`
/// counts samples with `ilog2(value) == i` (bucket 0 also takes 0).
const HIST_BUCKETS: usize = 64;

/// A histogram over `u64` samples with power-of-two buckets.
///
/// Recording is O(1); quantiles are estimated from the bucket upper
/// bounds (good to a factor of two, which is plenty for latency
/// distributions in a simulated clock).
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = if value == 0 {
            0
        } else {
            value.ilog2() as usize
        };
        self.buckets[bucket] += 1;
    }

    /// The histogram as a [`Snapshot`] exports it.
    pub fn summary(&self) -> HistogramSummary {
        let (p50, p99) = quantiles_from_buckets(&self.buckets, self.count, self.max);
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50,
            p99,
            buckets: self.buckets,
        }
    }
}

/// An exported histogram: totals plus the raw power-of-two buckets so
/// merged snapshots can still estimate quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample (0 if empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Power-of-two bucket counts (`buckets[i]` holds samples whose
    /// `ilog2` is `i`).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSummary {
    /// Mean sample, or 0 if empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    fn merge(&mut self, other: &HistogramSummary) {
        let had = self.count > 0;
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = if had {
                self.min.min(other.min)
            } else {
                other.min
            };
            self.max = self.max.max(other.max);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        // Re-estimate quantiles from the merged buckets.
        let (p50, p99) = quantiles_from_buckets(&self.buckets, self.count, self.max);
        self.p50 = p50;
        self.p99 = p99;
    }
}

/// Estimated median and 99th percentile of `count` samples in
/// `buckets`: the upper bound of the bucket holding the q-th sample,
/// clamped to the observed `max`.
fn quantiles_from_buckets(buckets: &[u64; HIST_BUCKETS], count: u64, max: u64) -> (u64, u64) {
    let at = |q: f64| -> u64 {
        if count == 0 {
            return 0;
        }
        let rank = ((count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i + 1 >= HIST_BUCKETS {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(max);
            }
        }
        max
    };
    (at(0.5), at(0.99))
}

/// One exported metric value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram summary (boxed: it carries the full bucket array).
    Histogram(Box<HistogramSummary>),
}

impl From<&Histogram> for MetricValue {
    fn from(histogram: &Histogram) -> Self {
        MetricValue::Histogram(Box::new(histogram.summary()))
    }
}

/// A point-in-time export of named metrics, mergeable across shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Metric name → exported value, sorted by name.
    pub entries: BTreeMap<String, MetricValue>,
}

impl<'a> FromIterator<(&'a str, MetricValue)> for Snapshot {
    fn from_iter<I: IntoIterator<Item = (&'a str, MetricValue)>>(entries: I) -> Self {
        let entries = entries.into_iter();
        Snapshot {
            entries: entries
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
        }
    }
}

impl Snapshot {
    /// Folds another snapshot in: counters and gauges add, histograms
    /// merge bucket-wise. Type mismatches keep `self`'s entry.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, value) in &other.entries {
            match (self.entries.get_mut(name), value) {
                (Some(MetricValue::Counter(mine)), MetricValue::Counter(theirs)) => {
                    *mine += theirs;
                }
                (Some(MetricValue::Gauge(mine)), MetricValue::Gauge(theirs)) => {
                    *mine += theirs;
                }
                (Some(MetricValue::Histogram(mine)), MetricValue::Histogram(theirs)) => {
                    mine.merge(theirs);
                }
                (Some(_), _) => {}
                (None, value) => {
                    self.entries.insert(name.clone(), value.clone());
                }
            }
        }
    }

    /// Counter total by name (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(MetricValue::Counter(value)) => *value,
            _ => 0,
        }
    }

    /// Gauge reading by name (0 when absent or not a gauge).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(value)) => *value,
            _ => 0,
        }
    }

    /// Histogram summary by name, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(summary)) => Some(summary.as_ref()),
            _ => None,
        }
    }

    /// Renders the snapshot as a JSON object keyed by metric name.
    ///
    /// Counters/gauges become numbers; histograms become objects with
    /// `count`/`sum`/`min`/`max`/`mean`/`p50`/`p99`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (name, value) in &self.entries {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("  {}: ", json_string(name)));
            match value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge(v) => out.push_str(&v.to_string()),
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                         \"mean\": {}, \"p50\": {}, \"p99\": {}}}",
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.mean(),
                        h.p50,
                        h.p99
                    ));
                }
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Renders the snapshot as CSV with a fixed header:
    /// `metric,kind,count,sum,min,max,mean,p50,p99`. Counters and
    /// gauges fill only `count` (their value); histograms fill all
    /// columns.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,kind,count,sum,min,max,mean,p50,p99\n");
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{name},counter,{v},,,,,,\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{name},gauge,{v},,,,,,\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{name},histogram,{},{},{},{},{},{},{}\n",
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.mean(),
                        h.p50,
                        h.p99
                    ));
                }
            }
        }
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What happened, in a flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsEventKind {
    /// The instance was started (its metadata committed).
    InstanceStart,
    /// A state change committed; `what` names it (e.g. `done`,
    /// `executing`, `mark via=approve`).
    Commit {
        /// Short description of the committed change.
        what: String,
        /// Batch id when this commit coalesced into a commit
        /// window; `None` for a stand-alone commit.
        batch: Option<u64>,
    },
    /// A task was dispatched to `executor`.
    Dispatch {
        /// Executor node index the task went to.
        executor: u32,
    },
    /// A failed or timed-out task was scheduled for retry.
    Retry {
        /// Why the previous attempt ended.
        reason: String,
    },
    /// A misdirected request was forwarded to the owning shard.
    Forward {
        /// Owning shard the request was relayed to.
        to: u32,
        /// Shard-map epoch the forwarder routed under.
        epoch: u64,
    },
    /// The instance became stuck; `reason` is the diagnosis.
    Stuck {
        /// Stuck diagnosis (same text as [`InstanceStatus::Stuck`]).
        ///
        /// [`InstanceStatus::Stuck`]: https://docs.rs/flowscript-engine
        reason: String,
    },
    /// The owning shard recovered this instance from its WAL.
    Recovery {
        /// Shard-map epoch in force when recovery ran.
        epoch: u64,
    },
    /// The instance was handed off to a new owning shard.
    HandOff {
        /// Destination shard that adopted the instance.
        to: u32,
        /// Shard-map epoch the hand-off committed under.
        epoch: u64,
    },
    /// The instance reached a terminal outcome.
    Terminal {
        /// `done` or `aborted`.
        outcome: String,
    },
    /// An operator repair op was applied (e.g. `repair_fact`).
    Repair {
        /// What was repaired.
        what: String,
    },
    /// A dispatch (or an instance start) was parked behind saturated
    /// capacity / the admission cap instead of proceeding.
    Parked {
        /// Queue depth *after* parking (ready or admission queue).
        queue_depth: u64,
    },
    /// A previously parked dispatch or instance start was released
    /// from its queue and proceeded.
    Admitted {
        /// Virtual nanoseconds the work spent parked.
        wait_ns: u64,
    },
    /// A planned drain of this shard began: its whole live population
    /// is about to move to the survivors (shard-scoped; the recorded
    /// "instance" is the shard label).
    DrainBegin {
        /// Resident instances the drain must move.
        remaining: u64,
    },
    /// The planned drain finished and the shard left the map.
    DrainEnd {
        /// Instances moved off.
        moved: u64,
        /// Batched 2PC rounds the moves rode (fewer than `moved` when
        /// id-range allocation let instances share prepare rounds).
        rounds: u64,
    },
    /// This instance's keyspace was claimed from a dead shard's
    /// surviving storage under an epoch-stamped fence.
    Claim {
        /// The dead shard the keyspace was claimed from.
        from: u32,
        /// The bumped membership epoch stamped into the fence.
        epoch: u64,
    },
    /// The instance came alive on this shard via crash-driven adoption
    /// (claimed, re-keyed and re-armed without its old owner's help).
    Adopted {
        /// The dead shard it survived.
        from: u32,
        /// Membership epoch the adoption ran under.
        epoch: u64,
    },
}

impl ObsEventKind {
    /// Stable lowercase tag for filtering and display.
    pub fn tag(&self) -> &'static str {
        match self {
            ObsEventKind::InstanceStart => "start",
            ObsEventKind::Commit { .. } => "commit",
            ObsEventKind::Dispatch { .. } => "dispatch",
            ObsEventKind::Retry { .. } => "retry",
            ObsEventKind::Forward { .. } => "forward",
            ObsEventKind::Stuck { .. } => "stuck",
            ObsEventKind::Recovery { .. } => "recovery",
            ObsEventKind::HandOff { .. } => "handoff",
            ObsEventKind::Terminal { .. } => "terminal",
            ObsEventKind::Repair { .. } => "repair",
            ObsEventKind::Parked { .. } => "parked",
            ObsEventKind::Admitted { .. } => "admitted",
            ObsEventKind::DrainBegin { .. } => "drain",
            ObsEventKind::DrainEnd { .. } => "drained",
            ObsEventKind::Claim { .. } => "claim",
            ObsEventKind::Adopted { .. } => "adopted",
        }
    }
}

/// One structured lifecycle event in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Per-recorder monotonic sequence number (total order within a
    /// shard, survives ring eviction).
    pub seq: u64,
    /// Virtual timestamp (simulation nanoseconds).
    pub at_ns: u64,
    /// Shard that recorded the event.
    pub shard: u32,
    /// Instance the event concerns.
    pub instance: String,
    /// Task path within the instance, when task-scoped.
    pub task: Option<String>,
    /// Dispatch attempt number, when task-scoped (0 otherwise).
    pub attempt: u32,
    /// What happened.
    pub kind: ObsEventKind,
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12} ns] shard {} {:<9} {}",
            self.at_ns,
            self.shard,
            self.kind.tag(),
            self.instance
        )?;
        if let Some(task) = &self.task {
            write!(f, " {task}")?;
            if self.attempt > 0 {
                write!(f, "#{}", self.attempt)?;
            }
        }
        match &self.kind {
            ObsEventKind::Commit { what, batch } => {
                write!(f, ": {what}")?;
                if let Some(batch) = batch {
                    write!(f, " [batch {batch}]")?;
                }
                Ok(())
            }
            ObsEventKind::Dispatch { executor } => write!(f, " -> executor node {executor}"),
            ObsEventKind::Retry { reason } => write!(f, ": {reason}"),
            ObsEventKind::Forward { to, epoch } => write!(f, " -> shard {to} @epoch {epoch}"),
            ObsEventKind::Stuck { reason } => write!(f, ": {reason}"),
            ObsEventKind::Recovery { epoch } => write!(f, " @epoch {epoch}"),
            ObsEventKind::HandOff { to, epoch } => write!(f, " -> shard {to} @epoch {epoch}"),
            ObsEventKind::Terminal { outcome } => write!(f, ": {outcome}"),
            ObsEventKind::Repair { what } => write!(f, ": {what}"),
            ObsEventKind::Parked { queue_depth } => write!(f, ": depth {queue_depth}"),
            ObsEventKind::Admitted { wait_ns } => write!(f, " after {wait_ns} ns"),
            ObsEventKind::DrainBegin { remaining } => write!(f, ": {remaining} to move"),
            ObsEventKind::DrainEnd { moved, rounds } => {
                write!(f, ": {moved} moved in {rounds} rounds")
            }
            ObsEventKind::Claim { from, epoch } => write!(f, " <- shard {from} @epoch {epoch}"),
            ObsEventKind::Adopted { from, epoch } => write!(f, " <- shard {from} @epoch {epoch}"),
            _ => Ok(()),
        }
    }
}

/// A bounded ring buffer of [`ObsEvent`]s for one shard.
///
/// When full, the oldest events are evicted first, so the recorder
/// always keeps the *newest* events per instance.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    shard: u32,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    ring: VecDeque<ObsEvent>,
}

impl FlightRecorder {
    /// A recorder for `shard` holding at most `capacity` events
    /// (clamped to at least 1).
    pub fn new(shard: u32, capacity: usize) -> Self {
        FlightRecorder {
            shard,
            capacity: capacity.max(1),
            next_seq: 0,
            dropped: 0,
            ring: VecDeque::new(),
        }
    }

    /// Records one event. `task`/`attempt` scope it to a dispatch when
    /// applicable.
    pub fn record(
        &mut self,
        at_ns: u64,
        instance: &str,
        task: Option<&str>,
        attempt: u32,
        kind: ObsEventKind,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ObsEvent {
            seq,
            at_ns,
            shard: self.shard,
            instance: instance.to_string(),
            task: task.map(str::to_string),
            attempt,
            kind,
        });
    }

    /// Every retained event, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.ring.iter().cloned().collect()
    }

    /// Retained events concerning `instance`, oldest first.
    pub fn events_for(&self, instance: &str) -> Vec<ObsEvent> {
        let events = self.ring.iter();
        events
            .filter(|event| event.instance == instance)
            .cloned()
            .collect()
    }

    /// Number of events evicted by the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_level_ordering() {
        assert!(!ObserveLevel::Off.metrics());
        assert!(!ObserveLevel::Off.trace());
        assert!(ObserveLevel::Metrics.metrics());
        assert!(!ObserveLevel::Metrics.trace());
        assert!(ObserveLevel::Trace.metrics());
        assert!(ObserveLevel::Trace.trace());
    }

    fn histogram(samples: impl IntoIterator<Item = u64>) -> Histogram {
        let mut histogram = Histogram::default();
        samples
            .into_iter()
            .for_each(|sample| histogram.record(sample));
        histogram
    }

    fn snapshot(entries: Vec<(&str, MetricValue)>) -> Snapshot {
        entries.into_iter().collect()
    }

    #[test]
    fn histogram_quantiles_and_merge() {
        let summary = histogram([1, 2, 3, 100, 1000]).summary();
        assert_eq!((summary.count, summary.sum, summary.max), (5, 1106, 1000));
        assert!(summary.p50 >= 3);
        assert!(summary.p99 <= 1000);

        let mut snap = snapshot(vec![("lat", (&histogram([1, 2, 3, 100, 1000])).into())]);
        snap.merge(&snapshot(vec![("lat", (&histogram([5000])).into())]));
        let merged = snap.histogram("lat").expect("histogram survives merge");
        assert_eq!(merged.count, 6);
        assert_eq!(merged.max, 5000);
        assert_eq!(merged.min, 1);
    }

    /// One quantile estimator: a histogram's own summary and the one a
    /// merge re-estimates from its buckets agree, sample set by set.
    #[test]
    fn a_summary_and_a_merged_snapshot_estimate_the_same_quantiles() {
        let skewed = std::iter::repeat_n(1, 98).chain([1_000_000, 1_000_000]);
        let cases: [(Histogram, (u64, u64)); 3] = [
            (histogram([]), (0, 0)),
            (histogram([5]), (5, 5)),
            (histogram(skewed), (1, 1_000_000)),
        ];
        for (histogram, (p50, p99)) in cases {
            let summary = histogram.summary();
            assert_eq!((summary.p50, summary.p99), (p50, p99), "{summary:?}");
            let mut merged = snapshot(vec![("h", (&Histogram::default()).into())]);
            merged.merge(&snapshot(vec![("h", (&histogram).into())]));
            assert_eq!(merged.histogram("h"), Some(&summary));
        }
    }

    #[test]
    fn snapshot_merge_adds_counters() {
        let mut snap = snapshot(vec![("n", MetricValue::Counter(2))]);
        snap.merge(&snapshot(vec![
            ("n", MetricValue::Counter(3)),
            ("only_b", MetricValue::Counter(1)),
        ]));
        assert_eq!(snap.counter("n"), 5);
        assert_eq!(snap.counter("only_b"), 1);
    }

    #[test]
    fn snapshot_exports() {
        let snap = snapshot(vec![
            ("c", MetricValue::Counter(7)),
            ("g", MetricValue::Gauge(-2)),
            ("h", (&histogram([10])).into()),
        ]);
        let json = snap.to_json();
        assert!(json.contains("\"c\": 7"));
        assert!(json.contains("\"g\": -2"));
        assert!(json.contains("\"count\": 1"));
        let csv = snap.to_csv();
        assert!(csv.starts_with("metric,kind,"));
        assert!(csv.contains("c,counter,7"));
        assert!(csv.contains("h,histogram,1"));
    }

    #[test]
    fn recorder_evicts_oldest_first() {
        let mut rec = FlightRecorder::new(0, 3);
        for i in 0..5u64 {
            rec.record(i, "inst", None, 0, ObsEventKind::InstanceStart);
        }
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(rec.dropped(), 2);
        // Oldest evicted: the newest three survive, in order.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn recorder_filters_per_instance() {
        let mut rec = FlightRecorder::new(1, 16);
        rec.record(1, "a", None, 0, ObsEventKind::InstanceStart);
        rec.record(2, "b", Some("t"), 1, ObsEventKind::Dispatch { executor: 4 });
        rec.record(
            3,
            "a",
            None,
            0,
            ObsEventKind::Terminal {
                outcome: "done".into(),
            },
        );
        let a = rec.events_for("a");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].kind, ObsEventKind::InstanceStart);
        assert_eq!(a[1].kind.tag(), "terminal");
        assert_eq!(rec.events_for("b")[0].shard, 1);
    }
}
