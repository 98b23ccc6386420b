//! The coordinator's counters and histograms: the public [`CoordStats`],
//! the metrics a shard owns around it, and the dispatch record the
//! flight recorder's `Dispatch` events project to.

use flowscript_obs::{Histogram, MetricValue, ObsEvent, ObsEventKind, Snapshot};
use flowscript_sim::NodeId;

/// Engine counters (diagnostics and benchmarks).
///
/// A shard counts into its own copy and exports each field as a
/// `coord.*` counter of its metrics snapshot;
/// [`WorkflowSystem::stats`](crate::WorkflowSystem::stats) sums the
/// copies. The exhaustive destructuring there and in `AddAssign` keeps
/// both complete by compile error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordStats {
    /// Task dispatches sent to executors.
    pub dispatches: u64,
    /// Dispatches this shard gave up on while on the wire — a cancelled
    /// or reset scope, a forced outcome, a reconfiguration, a watchdog —
    /// each cancelled at its executor with one message.
    pub cancels: u64,
    /// Attempts a restart found still running at their executors (its
    /// census) and took over there instead of re-running them.
    pub census_claimed: u64,
    /// Attempts a restart re-sent because no executor still ran them: a
    /// report lost while the shard was down, or work that died with its
    /// executor.
    pub resent: u64,
    /// Automatic retries of system-level failures.
    pub retries: u64,
    /// Tasks that exhausted their retries.
    pub failures: u64,
    /// Marks published.
    pub marks: u64,
    /// Repeat outcomes taken (leaf + compound).
    pub repeats: u64,
    /// Reconfigurations applied.
    pub reconfigs: u64,
    /// Instances recovered after a coordinator restart.
    pub recovered_instances: u64,
    /// Worklist entries processed (readiness/output re-checks):
    /// proportional to the dependency fan-out of what committed, except
    /// at start, recovery and reconfiguration re-entry, which seed every
    /// task.
    pub evaluations: u64,
    /// Misdirected requests this coordinator forwarded to the owning
    /// shard (clients that route via the shard map never cause one).
    pub forwarded: u64,
    /// Retries that had to land back on the node the previous attempt
    /// failed on because no eligible alternative existed (a single
    /// executor, or a `location` pin matching only the failed node).
    pub no_alternative_retries: u64,
    /// Dispatches dropped because the task or its control block
    /// vanished between scheduling and sending (only a mid-flight
    /// reconfiguration can legitimately cause one).
    pub dropped_dispatches: u64,
    /// Instances this coordinator handed off to another shard (the
    /// rounds of a live move, counted as each lands).
    pub handoffs: u64,
    /// Forwarded messages dropped at the relay hop cap — two
    /// coordinators whose shard maps disagree (the mid-rebalance state)
    /// would otherwise ping-pong a report forever.
    pub forward_loops: u64,
    /// `StartInstance` RPCs turned away with [`crate::EngineError::Busy`]: the
    /// shard was at its admission cap *and* its admission queue was
    /// full (`coord.busy_rejections`).
    pub busy_rejections: u64,
    /// Instances this shard adopted from a *dead* shard's claimed
    /// storage (crash-driven failover; planned hand-offs count under
    /// `handoffs` instead).
    pub adoptions: u64,
}

impl std::ops::AddAssign<&CoordStats> for CoordStats {
    fn add_assign(&mut self, other: &CoordStats) {
        // Exhaustive destructuring: adding a counter without summing it
        // here is a compile error, so sharded aggregates stay complete.
        let CoordStats {
            dispatches,
            cancels,
            census_claimed,
            resent,
            retries,
            failures,
            marks,
            repeats,
            reconfigs,
            recovered_instances,
            evaluations,
            forwarded,
            no_alternative_retries,
            dropped_dispatches,
            handoffs,
            forward_loops,
            busy_rejections,
            adoptions,
        } = *other;
        self.dispatches += dispatches;
        self.cancels += cancels;
        self.census_claimed += census_claimed;
        self.resent += resent;
        self.retries += retries;
        self.failures += failures;
        self.marks += marks;
        self.repeats += repeats;
        self.reconfigs += reconfigs;
        self.recovered_instances += recovered_instances;
        self.evaluations += evaluations;
        self.forwarded += forwarded;
        self.no_alternative_retries += no_alternative_retries;
        self.dropped_dispatches += dropped_dispatches;
        self.handoffs += handoffs;
        self.forward_loops += forward_loops;
        self.busy_rejections += busy_rejections;
        self.adoptions += adoptions;
    }
}

/// The coordinator's metrics, owned by its shard: always-on counters
/// (the [`CoordStats`] value, exported as `coord.*`) plus the optional
/// histograms and gauges gated on [`super::EngineConfig::observe`].
#[derive(Debug, Default)]
pub(super) struct CoordMetrics {
    pub(super) stats: CoordStats,
    /// Worklist steps per drain-to-quiescence (`coord.commit_drain_len`).
    pub(super) commit_drain_len: Histogram,
    /// Executor reports coalesced per batch flush (`coord.batch_size`).
    pub(super) batch_size: Histogram,
    /// Virtual nanoseconds from dispatch send to the executor's
    /// completion report (`coord.dispatch_latency_ns`; timeouts and
    /// cancellations are not replies and do not sample).
    pub(super) dispatch_latency_ns: Histogram,
    /// The chosen executor's load at each placement decision
    /// (`sched.pick_load`).
    pub(super) sched_pick_load: Histogram,
    /// Virtual nanoseconds the instances of one landed hand-off round
    /// were unavailable, the decision to the destination's answer
    /// (`coord.handoff_pause_ns`; recorded by the source shard, once
    /// per round — a rebalance moves rounds of one, a drain rounds of
    /// up to a batch).
    pub(super) handoff_pause_ns: Histogram,
    /// Virtual nanoseconds a `StartInstance` waited in the admission
    /// queue before being admitted (`sched.admission_wait_ns`).
    pub(super) admission_wait_ns: Histogram,
    /// Virtual nanoseconds a ready dispatch waited parked behind
    /// saturated executor capacity (`sched.queue_wait_ns`).
    pub(super) queue_wait_ns: Histogram,
    /// Current capacity-parked dispatch count (`sched.ready_queue_depth`).
    pub(super) ready_queue_depth: i64,
    /// Current admission-queue depth (`coord.admission_queue_depth`).
    pub(super) admission_queue_depth: i64,
}

impl CoordMetrics {
    /// Every metric by name, zeros included. Exhaustive destructuring:
    /// a counter that is not exported here is a compile error.
    pub(super) fn snapshot(&self) -> Snapshot {
        let CoordStats {
            dispatches,
            cancels,
            census_claimed,
            resent,
            retries,
            failures,
            marks,
            repeats,
            reconfigs,
            recovered_instances,
            evaluations,
            forwarded,
            no_alternative_retries,
            dropped_dispatches,
            handoffs,
            forward_loops,
            busy_rejections,
            adoptions,
        } = self.stats;
        let counters = [
            ("coord.dispatches", dispatches),
            ("coord.cancels", cancels),
            ("coord.census_claimed", census_claimed),
            ("coord.resent", resent),
            ("coord.retries", retries),
            ("coord.failures", failures),
            ("coord.marks", marks),
            ("coord.repeats", repeats),
            ("coord.reconfigs", reconfigs),
            ("coord.recovered_instances", recovered_instances),
            ("coord.evaluations", evaluations),
            ("coord.forwarded", forwarded),
            ("coord.no_alternative_retries", no_alternative_retries),
            ("coord.dropped_dispatches", dropped_dispatches),
            ("coord.handoffs", handoffs),
            ("coord.forward_loops", forward_loops),
            ("coord.busy_rejections", busy_rejections),
            ("coord.adoptions", adoptions),
        ];
        let histograms = [
            ("coord.commit_drain_len", &self.commit_drain_len),
            ("coord.batch_size", &self.batch_size),
            ("coord.dispatch_latency_ns", &self.dispatch_latency_ns),
            ("sched.pick_load", &self.sched_pick_load),
            ("coord.handoff_pause_ns", &self.handoff_pause_ns),
            ("sched.admission_wait_ns", &self.admission_wait_ns),
            ("sched.queue_wait_ns", &self.queue_wait_ns),
        ];
        let gauges = [
            ("sched.ready_queue_depth", self.ready_queue_depth),
            ("coord.admission_queue_depth", self.admission_queue_depth),
        ];
        let counters = counters.map(|(name, n)| (name, MetricValue::Counter(n)));
        let histograms = histograms.map(|(name, h)| (name, h.into()));
        let gauges = gauges.map(|(name, n)| (name, MetricValue::Gauge(n)));
        counters
            .into_iter()
            .chain(histograms)
            .chain(gauges)
            .collect()
    }
}

/// One dispatch decision, in order of occurrence: a flight-recorder
/// `Dispatch` event as
/// [`WorkflowSystem::dispatch_trace`](crate::WorkflowSystem::dispatch_trace)
/// projects it (the equivalence suites and the golden fingerprints
/// compare these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchRecord {
    /// Instance name.
    pub instance: String,
    /// Dispatched task path.
    pub path: String,
    /// Attempt number.
    pub attempt: u32,
    /// The executor node the dispatch was sent to. (The shard
    /// equivalence tests project this away: per-shard load views make
    /// the *placement* legitimately differ across shard counts while
    /// the `(path, attempt)` sequence stays identical.)
    pub executor: NodeId,
}

impl DispatchRecord {
    /// The record a flight-recorder event projects to, if it is a
    /// `Dispatch`.
    pub(crate) fn from_event(event: ObsEvent) -> Option<Self> {
        let ObsEventKind::Dispatch { executor } = event.kind else {
            return None;
        };
        Some(Self {
            instance: event.instance,
            path: event.task?,
            attempt: event.attempt,
            executor: NodeId::from_index(executor as usize),
        })
    }
}
