//! The coordinator's counters and histograms: the public [`CoordStats`]
//! view, the registry handles behind it, and the dispatch record the
//! flight recorder's `Dispatch` events project to.

use flowscript_obs::{Counter, Gauge, Histogram, ObsEvent, ObsEventKind, Registry};
use flowscript_sim::NodeId;

/// Engine counters (diagnostics and benchmarks).
///
/// Since the metrics registry landed this is a *view*: the live values
/// are `coord.*` counters in the shard's [`Registry`], and
/// `CoordMetrics::stats` materialises them into this struct (what
/// [`WorkflowSystem::stats`](crate::WorkflowSystem::stats) sums). The
/// exhaustive-construction there plus the exhaustive destructuring in
/// `AddAssign` keep the view complete by compile error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordStats {
    /// Task dispatches sent to executors.
    pub dispatches: u64,
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
    /// Instances this coordinator handed off to another shard (the 2PC
    /// moves of live rebalancing, counted at the commit decision).
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

/// The coordinator's handles into the shard [`Registry`]: always-on
/// `coord.*` counters (one per [`CoordStats`] field) plus the optional
/// histograms gated on [`super::EngineConfig::observe`].
#[derive(Clone)]
pub(super) struct CoordMetrics {
    pub(super) dispatches: Counter,
    pub(super) retries: Counter,
    pub(super) failures: Counter,
    pub(super) marks: Counter,
    pub(super) repeats: Counter,
    pub(super) reconfigs: Counter,
    pub(super) recovered_instances: Counter,
    pub(super) evaluations: Counter,
    pub(super) forwarded: Counter,
    pub(super) no_alternative_retries: Counter,
    pub(super) dropped_dispatches: Counter,
    pub(super) handoffs: Counter,
    pub(super) forward_loops: Counter,
    pub(super) busy_rejections: Counter,
    pub(super) adoptions: Counter,
    /// Worklist steps per drain-to-quiescence (`coord.commit_drain_len`).
    pub(super) commit_drain_len: Histogram,
    /// Executor reports coalesced per batch flush (`coord.batch_size`).
    pub(super) batch_size: Histogram,
    /// Virtual nanoseconds from dispatch send to the executor's
    /// `TaskDone` reply (`coord.dispatch_latency_ns`; timeouts and
    /// cancellations are not replies and do not sample).
    pub(super) dispatch_latency_ns: Histogram,
    /// The chosen executor's load at each placement decision
    /// (`sched.pick_load`).
    pub(super) sched_pick_load: Histogram,
    /// Virtual nanoseconds the instances of one committed hand-off
    /// round were unavailable, collect to the destination's ack
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
    pub(super) ready_queue_depth: Gauge,
    /// Current admission-queue depth (`coord.admission_queue_depth`).
    pub(super) admission_queue_depth: Gauge,
}

impl CoordMetrics {
    pub(super) fn register(registry: &Registry) -> Self {
        CoordMetrics {
            dispatches: registry.counter("coord.dispatches"),
            retries: registry.counter("coord.retries"),
            failures: registry.counter("coord.failures"),
            marks: registry.counter("coord.marks"),
            repeats: registry.counter("coord.repeats"),
            reconfigs: registry.counter("coord.reconfigs"),
            recovered_instances: registry.counter("coord.recovered_instances"),
            evaluations: registry.counter("coord.evaluations"),
            forwarded: registry.counter("coord.forwarded"),
            no_alternative_retries: registry.counter("coord.no_alternative_retries"),
            dropped_dispatches: registry.counter("coord.dropped_dispatches"),
            handoffs: registry.counter("coord.handoffs"),
            forward_loops: registry.counter("coord.forward_loops"),
            busy_rejections: registry.counter("coord.busy_rejections"),
            adoptions: registry.counter("coord.adoptions"),
            commit_drain_len: registry.histogram("coord.commit_drain_len"),
            batch_size: registry.histogram("coord.batch_size"),
            dispatch_latency_ns: registry.histogram("coord.dispatch_latency_ns"),
            sched_pick_load: registry.histogram("sched.pick_load"),
            handoff_pause_ns: registry.histogram("coord.handoff_pause_ns"),
            admission_wait_ns: registry.histogram("sched.admission_wait_ns"),
            queue_wait_ns: registry.histogram("sched.queue_wait_ns"),
            ready_queue_depth: registry.gauge("sched.ready_queue_depth"),
            admission_queue_depth: registry.gauge("coord.admission_queue_depth"),
        }
    }

    /// The [`CoordStats`] view of the counters. Exhaustive struct
    /// construction: a new counter that is not wired through here is a
    /// compile error.
    pub(super) fn stats(&self) -> CoordStats {
        CoordStats {
            dispatches: self.dispatches.get(),
            retries: self.retries.get(),
            failures: self.failures.get(),
            marks: self.marks.get(),
            repeats: self.repeats.get(),
            reconfigs: self.reconfigs.get(),
            recovered_instances: self.recovered_instances.get(),
            evaluations: self.evaluations.get(),
            forwarded: self.forwarded.get(),
            no_alternative_retries: self.no_alternative_retries.get(),
            dropped_dispatches: self.dropped_dispatches.get(),
            handoffs: self.handoffs.get(),
            forward_loops: self.forward_loops.get(),
            busy_rejections: self.busy_rejections.get(),
            adoptions: self.adoptions.get(),
        }
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
