//! The engine's policy knobs: what an operator would turn, nothing that
//! selects an implementation.

use flowscript_obs::ObserveLevel;
use flowscript_sim::SimDuration;

/// Tunable engine policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum automatic retries of a system-level failure (§3:
    /// "automatic (finite number of) retries").
    pub max_retries: u32,
    /// Base backoff before the first retry (doubles per retry).
    pub retry_backoff: SimDuration,
    /// Watchdog timeout for a dispatched task (plus any `duration_ms` /
    /// `deadline_ms` hints from the implementation clause).
    pub dispatch_timeout: SimDuration,
    /// Maximum times a task or compound may take a repeat outcome.
    pub max_repeats: u32,
    /// Write a checkpoint and compact the log every this many committed
    /// actions. A step — a start, a commit window with its whole
    /// cascade — is one, whatever it activates or terminates.
    pub checkpoint_every: Option<u64>,
    /// How much the engine observes itself. `Off` (the default) keeps
    /// only the always-on counters behind the public stats getters;
    /// `Metrics` adds the optional histograms (commit-drain length,
    /// dispatch latency, after-images per commit record, scheduler pick load);
    /// `Trace` adds the per-shard flight recorder of lifecycle events
    /// queryable via [`crate::WorkflowSystem::trace`] (and, projected to
    /// its dispatches, [`crate::WorkflowSystem::dispatch_trace`]). Every
    /// hook point is a branch on this enum, so `Off` costs one compare.
    pub observe: ObserveLevel,
    /// Flight-recorder capacity: the bounded ring keeps at most this
    /// many lifecycle events per shard, evicting oldest-first (the
    /// newest events of every instance survive). Only read when
    /// [`EngineConfig::observe`] is [`ObserveLevel::Trace`].
    pub recorder_capacity: usize,
    /// The commit window executor reports gather in (see
    /// [`CommitBatch`]). [`CommitBatch::disabled`] is the window of
    /// one — every report commits, with its cascade, before the next is
    /// looked at — the reference `tests/batching.rs` holds wider windows
    /// to.
    pub commit_batch: CommitBatch,
    /// Per-shard admission cap: at most this many live (non-terminal)
    /// instances at once. Excess `StartInstance` RPCs park in a
    /// bounded admission queue and admit as instances terminate;
    /// `None` (the default) keeps the legacy unbounded behaviour.
    pub max_inflight_instances: Option<usize>,
    /// Admission-queue bound: once [`EngineConfig::max_inflight_instances`]
    /// is reached *and* this many starts are already queued, further
    /// `StartInstance` RPCs are turned away with a typed
    /// [`crate::EngineError::Busy`] the client retries with backoff.
    pub admission_queue_limit: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            retry_backoff: SimDuration::from_millis(50),
            dispatch_timeout: SimDuration::from_secs(30),
            max_repeats: 32,
            checkpoint_every: None,
            observe: ObserveLevel::Off,
            recorder_capacity: 4096,
            commit_batch: CommitBatch::default(),
            max_inflight_instances: None,
            admission_queue_limit: 64,
        }
    }
}

/// The size of the commit window.
///
/// Executor reports, marks and completions (including ones forwarded
/// from relay shards) gather in a per-shard window and commit as
/// **one** atomic action: one WAL frame holding one
/// [`flowscript_tx::LogRecord::Commit`],
/// one readiness re-evaluation seeded from every completed task's
/// consumers. The window closes on `max_events` reports, on its timer
/// (`max_window`, longer for long work), or — what the shard decides
/// exactly, with no field here — once its buffered completions are at
/// least the dispatches it has on the wire: no report that could join is
/// on its way, so a lone report does not idle. There is one pipeline
/// whatever the size: the window is placement, not semantics — each
/// report applies exactly the transition
/// it would have alone, and the equivalence suite
/// (`engine/tests/batching.rs`) holds per-instance outcomes identical to
/// the window of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitBatch {
    /// Flush when this many reports are pending. `1` is the window of
    /// one: every report flushes on arrival and no timer is ever armed.
    pub max_events: usize,
    /// Flush at most this long (virtual time) after the first buffered
    /// report, if the reports it awaits are not in sooner — or, when
    /// longer, a thousandth of how long ago the shard shipped the attempt
    /// that report came from: a window holding 30 s of work may wait
    /// 30 ms for company. This is the floor, the shortest wait. Zero is
    /// the window of one, whatever `max_events` says or the attempt's
    /// age.
    pub max_window: SimDuration,
}

impl CommitBatch {
    /// The window of one: every report commits on arrival, through the
    /// same pipeline as any wider window.
    pub fn disabled() -> Self {
        Self {
            max_events: 1,
            max_window: SimDuration::ZERO,
        }
    }
}

impl Default for CommitBatch {
    fn default() -> Self {
        Self {
            max_events: 64,
            max_window: SimDuration::from_millis(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        // Destructured without `..` on purpose: a new field fails to
        // compile here, next to the rule for admitting one — two callers
        // that are neither tests nor examples need different values of
        // it. A field that selects between implementations of the same
        // behaviour never qualifies: freeze the old one's verdict as a
        // golden (`tests/golden.rs`) and delete it.
        let EngineConfig {
            max_retries,
            retry_backoff,
            dispatch_timeout,
            max_repeats,
            checkpoint_every: _,
            observe,
            recorder_capacity: _,
            commit_batch,
            max_inflight_instances: _,
            admission_queue_limit: _,
        } = EngineConfig::default();
        let CommitBatch {
            max_events,
            max_window,
        } = commit_batch;
        assert!(max_retries >= 1);
        assert!(max_repeats > 1);
        assert!(dispatch_timeout > retry_backoff);
        assert_eq!(observe, ObserveLevel::Off, "observation is opt-in");
        assert!(max_events > 1 && max_window > SimDuration::ZERO);
    }
}
