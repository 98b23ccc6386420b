//! The Workflow Execution Service.
//!
//! The coordinator owns every workflow instance's persistent state: task
//! control blocks ([`crate::state::TaskCb`]) and dependency *facts*, all
//! stored as objects in a [`TxManager`] so that each state transition is
//! an atomic action and a coordinator crash loses nothing committed
//! (paper §3, system-level fault tolerance). It:
//!
//! - evaluates input-set satisfaction and dispatches ready leaf tasks to
//!   executor nodes (one-way `StartTask` / `TaskDone` messages with
//!   watchdog timers — lost executors surface as timeouts),
//! - applies outcomes/aborts/marks/repeats per the Fig. 3 lifecycle,
//! - runs compound-task scopes: inward input propagation, outward output
//!   mappings, scope-level repeat (the Fig. 8 loop) and cancellation,
//! - retries system-level failures with exponential backoff, a bounded
//!   number of times,
//! - recovers all running instances from the write-ahead log after a
//!   crash, re-dispatching whatever was in flight.
//!
//! Re-evaluation is **event-driven**: each committed fact seeds a
//! [`Worklist`] from the plan's reverse dependency edges, so per-commit
//! work scales with the fan-out of the changed task, not the instance
//! size. The full scan survives only for instance start, crash recovery
//! and reconfiguration (where the plan itself changes), and — in debug
//! builds — as a quiescence oracle asserted after every drain. All fact
//! storage runs on dense per-object sub-keys interned per instance (the
//! [`crate::keys::InstanceKeys`] table over the [`crate::facts`]
//! layout): a readiness probe is one point read of exactly the bytes it
//! needs, and no commit or probe on the dispatch hot path decodes a
//! whole record or formats a string.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use flowscript_core::ast::OutputKind;
use flowscript_core::schema::{self, CompiledTask, Schema, TaskBody};
use flowscript_obs::{
    Counter, FlightRecorder, Gauge, Histogram, ObsEventKind, ObserveLevel, Registry,
};
use flowscript_plan::{eval as plan_eval, Plan, TaskId, Worklist};
use flowscript_sim::{Envelope, EventId, NodeId, ReplyToken, SimDuration, World};
use flowscript_tx::{FactKey, ObjectUid, StableStore, StoreKey, TxId, TxManager};

use crate::error::EngineError;
use crate::facts::{self, StoreFacts};
use crate::keys::{cb_uid, meta_uid, InstanceKeys};
use crate::msg::{EngineMsg, MarkMsg, StartTask, TaskDone, TaskResult};
use crate::reconfig::{self, Reconfig};
use crate::sched::{CostModel, ExecutorSlot, ExecutorSpec, ImplHints, SchedPolicy, Scheduler};
use crate::shard::ShardMap;
use crate::state::{CbState, TaskCb};
use crate::value::ObjectVal;

/// Maximum relays a misdirected message may take before the relay
/// drops it as a routing loop (see [`CoordStats::forward_loops`]).
/// One hop resolves any transient single-rebalance disagreement; four
/// leaves slack for stacked membership changes.
pub const MAX_FORWARD_HOPS: u32 = 4;

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
    /// Write a checkpoint and compact the log every this many commits.
    pub checkpoint_every: Option<u64>,
    /// Re-evaluate the whole scope tree after every commit instead of
    /// the reverse-edge worklist. This is the full-scan oracle
    /// `tests/proptest_worklist.rs` holds the worklist to (identical
    /// dispatch traces); production runs leave it off.
    pub full_rescan: bool,
    /// Record every dispatch decision in an in-memory trace
    /// ([`CoordHandle::dispatch_trace`]). Unbounded — for equivalence
    /// tests and diagnostics only; production runs leave it off.
    pub record_dispatches: bool,
    /// How dispatch picks executors. The default honors the
    /// implementation clause's `location`/`priority` hints and tracks
    /// per-executor load; [`SchedPolicy::PathHash`] and
    /// [`SchedPolicy::InFlightCount`] are the baselines
    /// `tests/scheduling.rs` compares it against.
    pub scheduler: SchedPolicy,
    /// Store dependency facts as one encoded record per fact instead of
    /// per-object sub-keys. This is the pre-split oracle
    /// `tests/fact_equivalence.rs` holds the per-object layout to
    /// (identical per-instance outcomes and dispatch traces);
    /// production runs leave it off.
    pub whole_record_facts: bool,
    /// How much the engine observes itself. `Off` (the default) keeps
    /// only the always-on counters behind the public stats getters;
    /// `Metrics` adds the optional histograms (commit-drain length,
    /// dispatch latency, WAL frames per commit, scheduler pick load);
    /// `Trace` adds the per-shard flight recorder of lifecycle events
    /// queryable via [`crate::WorkflowSystem::trace`]. Every hook point
    /// is a branch on this enum, so `Off` costs one compare.
    pub observe: ObserveLevel,
    /// Flight-recorder capacity: the bounded ring keeps at most this
    /// many lifecycle events per shard, evicting oldest-first (the
    /// newest events of every instance survive). Only read when
    /// [`EngineConfig::observe`] is [`ObserveLevel::Trace`].
    pub recorder_capacity: usize,
    /// Group-commit batching of executor reports (see [`CommitBatch`]).
    /// Defaults on; [`CommitBatch::disabled`] reproduces the
    /// one-transaction-per-event pipeline, the oracle
    /// `tests/batching.rs` holds the batched one to.
    pub commit_batch: CommitBatch,
    /// Per-shard admission cap: at most this many live (non-terminal)
    /// instances at once. Excess `StartInstance` RPCs park in a
    /// bounded admission queue and admit as instances terminate;
    /// `None` (the default) keeps the legacy unbounded behaviour.
    /// Direct in-process starts ([`CoordHandle::start_instance`])
    /// bypass admission — the cap governs the RPC surface.
    pub max_inflight_instances: Option<usize>,
    /// Admission-queue bound: once [`EngineConfig::max_inflight_instances`]
    /// is reached *and* this many starts are already queued, further
    /// `StartInstance` RPCs are turned away with a typed
    /// [`EngineMsg::Busy`] the client retries with backoff.
    pub admission_queue_limit: usize,
    /// Auto-tune the group-commit window between this floor and
    /// [`CommitBatch::max_window`] from the observed report arrival
    /// rate: bursts hold the full window (sync amortization), light
    /// load narrows it to this floor (commit latency). `None` (the
    /// default) keeps the static window.
    pub adaptive_min_window: Option<SimDuration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            retry_backoff: SimDuration::from_millis(50),
            dispatch_timeout: SimDuration::from_secs(30),
            max_repeats: 32,
            checkpoint_every: None,
            full_rescan: false,
            record_dispatches: false,
            scheduler: SchedPolicy::default(),
            whole_record_facts: false,
            observe: ObserveLevel::Off,
            recorder_capacity: 4096,
            commit_batch: CommitBatch::default(),
            max_inflight_instances: None,
            admission_queue_limit: 64,
            adaptive_min_window: None,
        }
    }
}

/// Knobs of the batched commit pipeline.
///
/// Executor `Done`/`Mark` reports (including ones forwarded from relay
/// shards) buffer in a per-shard window and commit as **one** atomic
/// action: one lock pass over the union of touched keys, one WAL frame
/// ([`flowscript_tx::LogRecord::GroupCommit`]), one readiness
/// re-evaluation seeded from every completed task's consumers. Batching
/// is placement, not semantics — each report still applies exactly the
/// transition it would have alone, and the equivalence suite
/// (`engine/tests/batching.rs`) proves per-instance outcomes identical
/// to the unbatched pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitBatch {
    /// Flush when this many reports are pending. `1` disables batching.
    pub max_events: usize,
    /// Flush at most this long (virtual time) after the first buffered
    /// report. `0` disables batching.
    pub max_window: SimDuration,
}

impl CommitBatch {
    /// The unbatched baseline: every report pays its own transaction,
    /// exactly the pre-batching pipeline.
    pub fn disabled() -> Self {
        Self {
            max_events: 1,
            max_window: SimDuration::ZERO,
        }
    }

    /// Whether reports actually buffer under these knobs.
    pub fn enabled(&self) -> bool {
        self.max_events > 1 && self.max_window > SimDuration::ZERO
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

/// A terminated instance's (or compound's) outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Outcome name.
    pub name: String,
    /// Its declared kind (outcome or abort outcome).
    pub kind: OutputKind,
    /// Objects produced with it.
    pub objects: BTreeMap<String, ObjectVal>,
}

/// Where an instance stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceStatus {
    /// Work remains (or is in flight).
    Running,
    /// The root compound terminated.
    Completed(Outcome),
    /// No task can run and the root cannot terminate — the paper's
    /// "failure exceptions from the underlying system".
    Stuck {
        /// Human-readable explanation (failed/waiting tasks).
        reason: String,
    },
}

impl InstanceStatus {
    /// Whether the instance reached a terminal status.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, InstanceStatus::Running)
    }
}

fn kind_discriminant(kind: OutputKind) -> u8 {
    match kind {
        OutputKind::Outcome => 0,
        OutputKind::AbortOutcome => 1,
        OutputKind::RepeatOutcome => 2,
        OutputKind::Mark => 3,
    }
}

fn kind_from(discriminant: u8) -> Result<OutputKind, CodecError> {
    Ok(match discriminant {
        0 => OutputKind::Outcome,
        1 => OutputKind::AbortOutcome,
        2 => OutputKind::RepeatOutcome,
        3 => OutputKind::Mark,
        other => {
            return Err(CodecError::InvalidDiscriminant {
                ty: "OutputKind",
                value: u64::from(other),
            })
        }
    })
}

impl Encode for Outcome {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.name);
        w.put_u8(kind_discriminant(self.kind));
        self.objects.encode(w);
    }
}

impl Decode for Outcome {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Outcome {
            name: r.get_str()?.to_owned(),
            kind: kind_from(r.get_u8()?)?,
            objects: BTreeMap::decode(r)?,
        })
    }
}

impl Encode for InstanceStatus {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            InstanceStatus::Running => w.put_u8(0),
            InstanceStatus::Completed(outcome) => {
                w.put_u8(1);
                outcome.encode(w);
            }
            InstanceStatus::Stuck { reason } => {
                w.put_u8(2);
                w.put_str(reason);
            }
        }
    }
}

impl Decode for InstanceStatus {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => InstanceStatus::Running,
            1 => InstanceStatus::Completed(Outcome::decode(r)?),
            2 => InstanceStatus::Stuck {
                reason: r.get_str()?.to_owned(),
            },
            other => {
                return Err(CodecError::InvalidDiscriminant {
                    ty: "InstanceStatus",
                    value: u64::from(other),
                })
            }
        })
    }
}

/// Persistent per-instance metadata.
#[derive(Debug, Clone, PartialEq)]
struct InstanceMeta {
    script: String,
    source: String,
    root: String,
    set: String,
    inputs: BTreeMap<String, ObjectVal>,
    status: InstanceStatus,
    reconfig_count: u32,
    /// The dense numeric id all of this instance's fact keys carry.
    instance_id: u32,
    /// The repository version the instance was started from (its "repo
    /// pointer", together with `script`), when started via RPC.
    version: Option<u32>,
    /// Fingerprint of the instance's current compiled plan. Crash
    /// recovery fetches the plan persisted under this fingerprint and
    /// skips the front end entirely.
    plan_fingerprint: u64,
}

impl Encode for InstanceMeta {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.script);
        w.put_str(&self.source);
        w.put_str(&self.root);
        w.put_str(&self.set);
        self.inputs.encode(w);
        self.status.encode(w);
        w.put_u32(self.reconfig_count);
        w.put_u32(self.instance_id);
        self.version.encode(w);
        w.put_u64(self.plan_fingerprint);
    }
}

impl Decode for InstanceMeta {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(InstanceMeta {
            script: r.get_str()?.to_owned(),
            source: r.get_str()?.to_owned(),
            root: r.get_str()?.to_owned(),
            set: r.get_str()?.to_owned(),
            inputs: BTreeMap::decode(r)?,
            status: InstanceStatus::decode(r)?,
            reconfig_count: r.get_u32()?,
            instance_id: r.get_u32()?,
            version: Option::decode(r)?,
            plan_fingerprint: r.get_u64()?,
        })
    }
}

/// Engine counters (diagnostics and benchmarks).
///
/// Since the metrics registry landed this is a *view*: the live values
/// are `coord.*` counters in the shard's [`Registry`], and
/// [`CoordHandle::stats`] materialises them into this struct. The
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
    /// Worklist entries processed (readiness/output re-checks). The
    /// event-driven pipeline keeps this proportional to dependency
    /// fan-out; the full-scan oracle makes it proportional to instance
    /// size.
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
    /// `StartInstance` RPCs turned away with [`EngineMsg::Busy`]: the
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
/// histograms gated on [`EngineConfig::observe`].
#[derive(Clone)]
struct CoordMetrics {
    dispatches: Counter,
    retries: Counter,
    failures: Counter,
    marks: Counter,
    repeats: Counter,
    reconfigs: Counter,
    recovered_instances: Counter,
    evaluations: Counter,
    forwarded: Counter,
    no_alternative_retries: Counter,
    dropped_dispatches: Counter,
    handoffs: Counter,
    forward_loops: Counter,
    busy_rejections: Counter,
    adoptions: Counter,
    /// Worklist steps per drain-to-quiescence (`coord.commit_drain_len`).
    commit_drain_len: Histogram,
    /// Executor reports coalesced per batch flush (`coord.batch_size`).
    batch_size: Histogram,
    /// Virtual nanoseconds from dispatch send to the executor's
    /// `TaskDone` reply (`coord.dispatch_latency_ns`; timeouts and
    /// cancellations are not replies and do not sample).
    dispatch_latency_ns: Histogram,
    /// The chosen executor's load at each placement decision
    /// (`sched.pick_load`).
    sched_pick_load: Histogram,
    /// Wall-clock nanoseconds one instance was unavailable during a
    /// hand-off move (`coord.handoff_pause_ns`; recorded on the source
    /// shard per committed move).
    handoff_pause_ns: Histogram,
    /// Wall-clock nanoseconds one instance was unavailable during a
    /// planned drain round (`coord.drain_pause_ns`; every instance in
    /// a batched round shares the round's pause, recorded on the
    /// draining shard).
    drain_pause_ns: Histogram,
    /// Virtual nanoseconds a `StartInstance` waited in the admission
    /// queue before being admitted (`sched.admission_wait_ns`).
    admission_wait_ns: Histogram,
    /// Virtual nanoseconds a ready dispatch waited parked behind
    /// saturated executor capacity (`sched.queue_wait_ns`).
    queue_wait_ns: Histogram,
    /// Current capacity-parked dispatch count (`sched.ready_queue_depth`).
    ready_queue_depth: Gauge,
    /// Current admission-queue depth (`coord.admission_queue_depth`).
    admission_queue_depth: Gauge,
}

impl CoordMetrics {
    fn register(registry: &Registry) -> Self {
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
            drain_pause_ns: registry.histogram("coord.drain_pause_ns"),
            admission_wait_ns: registry.histogram("sched.admission_wait_ns"),
            queue_wait_ns: registry.histogram("sched.queue_wait_ns"),
            ready_queue_depth: registry.gauge("sched.ready_queue_depth"),
            admission_queue_depth: registry.gauge("coord.admission_queue_depth"),
        }
    }

    /// The [`CoordStats`] view of the counters. Exhaustive struct
    /// construction: a new counter that is not wired through here is a
    /// compile error.
    fn stats(&self) -> CoordStats {
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

/// One dispatch decision, in order of occurrence (used by the
/// worklist/full-scan equivalence tests and as a diagnostic trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchRecord {
    /// Instance name.
    pub instance: String,
    /// Dispatched task path.
    pub path: String,
    /// Attempt number.
    pub attempt: u32,
    /// The executor node the dispatch was sent to. (The shard/worklist
    /// equivalence tests project this away: per-shard load views make
    /// the *placement* legitimately differ across shard counts while
    /// the `(path, attempt)` sequence stays identical.)
    pub executor: NodeId,
}

/// An executor report buffered in the batch window.
#[derive(Debug)]
enum PendingEvent {
    /// A `TaskDone` report (completion, error or repeat).
    Done(TaskDone),
    /// A mid-task mark emission.
    Mark(MarkMsg),
}

/// The post-commit bookkeeping owed for one report staged into a batch
/// flush: trace event, terminal accounting, watchdog clearance and the
/// readiness seed.
struct StagedEffect {
    instance: String,
    path: String,
    attempt: u32,
    task_id: TaskId,
    /// Trace-event payload (``done `x```, ``aborted `x```, ``mark `x```).
    what: String,
    is_mark: bool,
}

/// What staging one buffered report into the shared batch action
/// concluded.
enum Staging {
    /// Fast path: the transition and its facts are staged in the action.
    Staged(StagedEffect),
    /// The report is stale or a duplicate — exactly what the one-event
    /// path drops on the floor.
    Consumed,
    /// Valid but not batchable (error retries, repeats, undeclared
    /// outputs): run the one-event handler after the batch commits.
    Slow,
    /// A storage fault: abort the whole batch action and fall back to
    /// the one-event pipeline for the entire window.
    Error,
}

/// Scheduler accounting for one outstanding dispatch: where it went,
/// the load cost it was charged at (the unit of remaining-work
/// accounting), the virtual send time (dispatch-latency metric and
/// cost-model sample base) and the implementation code that ran (the
/// [`CostModel`] EWMA key).
#[derive(Debug, Clone)]
struct DispatchedTask {
    node: NodeId,
    cost: u64,
    sent_ns: u64,
    code: String,
}

/// One dispatch parked in the per-shard ready queue because every
/// eligible executor sat at its declared capacity. The path stays in
/// `InstanceRt::in_flight` while parked (stuck detection and crash
/// recovery treat it as outstanding work); the queue itself is
/// volatile — the control block committed `Executing` *before* the
/// park, so recovery re-dispatches (and possibly re-parks) it.
#[derive(Debug, Clone)]
struct ParkedDispatch {
    instance: String,
    path: String,
    attempt: u32,
    inputs: BTreeMap<String, ObjectVal>,
    repeat_objects: BTreeMap<String, ObjectVal>,
    /// Scheduling hints captured at park time (eligibility re-checked
    /// against these when the queue drains).
    hints: ImplHints,
    /// Virtual park time (`sched.queue_wait_ns` sample base).
    parked_ns: u64,
}

/// One `StartInstance` RPC parked in the bounded admission queue until
/// the shard drops below its instance cap. The client's reply token is
/// held open; the reply (Ack or error) goes out when the start finally
/// runs.
struct AdmissionTicket {
    instance: String,
    script: String,
    version: Option<u32>,
    set: String,
    inputs: BTreeMap<String, ObjectVal>,
    token: ReplyToken,
    /// Virtual enqueue time (`sched.admission_wait_ns` sample base).
    enqueued_ns: u64,
}

/// Volatile per-instance runtime state (rebuilt on recovery).
struct InstanceRt {
    /// The hierarchical schema — the input to dynamic reconfiguration.
    /// `None` until first needed: instances started from a
    /// repository-served plan (or recovered from a persisted plan) skip
    /// the front end entirely, and the schema is recompiled from the
    /// persisted source on demand.
    schema: Option<Rc<Schema>>,
    /// The compiled execution plan all hot paths run off (served by the
    /// repository's plan cache, or lowered locally; re-lowered after
    /// each reconfiguration).
    plan: Rc<Plan>,
    /// Interned storage keys: control-block uids formatted once, fact
    /// keys precomputed per plan source (rebuilt with the plan).
    keys: Rc<InstanceKeys>,
    bindings: BTreeMap<String, String>,
    watchdogs: BTreeMap<String, EventId>,
    /// Paths with an outstanding dispatch, scheduled retry or pending
    /// repeat re-execution.
    in_flight: BTreeSet<String>,
    /// The executor each outstanding dispatch was sent to, keyed by
    /// dense plan task id (the last map on the dispatch hot path was
    /// string-keyed until PR 9). Entry inserted when the dispatch
    /// counts, removed exactly when the scheduler load is released.
    dispatched_to: BTreeMap<TaskId, DispatchedTask>,
    /// The node the most recent *failed* attempt of a path ran on;
    /// consumed by the next dispatch so the retry relocates whenever
    /// an eligible alternative exists.
    retry_from: BTreeMap<String, NodeId>,
    /// Control blocks not yet in a terminal state, maintained
    /// incrementally at every transition commit (recounted only on
    /// recovery and reconfiguration). Stuck detection reads this
    /// instead of enumerating the store.
    nonterminal: usize,
    /// Mirror of the committed meta's `status.is_terminal()`, refreshed
    /// right after every commit that writes the status (see
    /// [`Coordinator::note_status`]). The drain tests it once per
    /// worklist step; reading it from the store would decode the whole
    /// meta — script source included — for that one bit.
    terminal: bool,
}

/// Validated plans by their encoding. Decoding a plan and checking it
/// (`is_well_formed` + `verify_fingerprint`) is a pure function of the
/// bytes, so each distinct encoding — the repository's reply for a
/// script version, a `sys/plan/…` blob — pays it once per coordinator,
/// and every instance of that plan shares one `Rc<Plan>`. Bytes that
/// fail to decode or validate are never entered. Evicted with the
/// blobs, in [`Coordinator::gc_plans`].
#[derive(Default)]
struct PlanCache {
    plans: BTreeMap<Vec<u8>, Rc<Plan>>,
}

impl PlanCache {
    fn validated(&mut self, bytes: &[u8]) -> Option<Rc<Plan>> {
        if let Some(plan) = self.plans.get(bytes) {
            return Some(plan.clone());
        }
        let plan = flowscript_codec::from_bytes::<Plan>(bytes)
            .ok()
            .filter(|plan| plan.is_well_formed() && plan.verify_fingerprint())?;
        let plan = Rc::new(plan);
        self.plans.insert(bytes.to_vec(), plan.clone());
        Some(plan)
    }

    /// Drops every plan whose fingerprint is not in `live`.
    fn retain_live(&mut self, live: &BTreeSet<u64>) {
        self.plans
            .retain(|_, plan| live.contains(&plan.fingerprint));
    }

    /// The held plans' fingerprints, ascending.
    fn fingerprints(&self) -> Vec<u64> {
        let mut held: Vec<u64> = self.plans.values().map(|plan| plan.fingerprint).collect();
        held.sort_unstable();
        held
    }
}

// ---------------------------------------------------------------------
// Object uid layout (cold paths; facts use dense `FactKey`s).
// ---------------------------------------------------------------------

fn reconfig_uid(instance: &str, n: u32) -> ObjectUid {
    ObjectUid::new(format!("inst/{instance}/reconfig/{n:08}"))
}

fn bind_uid(instance: &str, code: &str) -> ObjectUid {
    ObjectUid::new(format!("inst/{instance}/bind/{code}"))
}

/// Compiled plans persist once per fingerprint, shared by every
/// instance running that plan; recovery decodes instead of recompiling.
fn plan_uid(fingerprint: u64) -> ObjectUid {
    ObjectUid::new(format!("sys/plan/{fingerprint:016x}"))
}

/// Inverse of [`plan_uid`]: the fingerprint a persisted-plan uid names.
fn plan_uid_fingerprint(uid: &ObjectUid) -> Option<u64> {
    uid.as_str()
        .strip_prefix("sys/plan/")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
}

/// The persistent instance-id allocator.
fn instance_seq_uid() -> ObjectUid {
    ObjectUid::new("sys/instance_seq")
}

/// Everything one instance move ships from source to destination
/// shard: the moving transaction's identity and the raw committed
/// bytes of the instance's whole keyspace — metadata, control blocks,
/// rebindings, reconfiguration records, the pinned compiled plan and
/// every dependency fact (one contiguous range scan). Produced by
/// [`CoordHandle::handoff_collect`] on the source, consumed by
/// [`CoordHandle::handoff_prepare`] on the destination; fact keys
/// still carry the source shard's dense instance id (the destination
/// re-keys them under its own allocator while staging).
#[derive(Debug, Clone)]
pub struct HandoffPackage {
    /// The move's distributed transaction (2PC, source-coordinated).
    pub tx: TxId,
    /// The instance being moved.
    pub instance: String,
    /// Source coordinator node index — the 2PC coordinator a restarted
    /// destination queries to terminate an in-doubt stage.
    src_node: u32,
    /// The instance's dense fact-key id on the source shard.
    src_instance_id: u32,
    /// Raw committed entries, keyed as the source stored them.
    entries: Vec<(StoreKey, Vec<u8>)>,
}

impl HandoffPackage {
    /// Number of committed entries the package carries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the package carries no entries (it never does for a
    /// real instance — the meta object alone is one entry).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Packages `instance` straight from a dead shard's reopened storage —
/// the collect half of crash-driven adoption. There is no resident
/// runtime to consult, so everything derives from the committed meta:
/// the `inst/{name}/` uid prefix, the plan pinned under the meta's
/// fingerprint, and the dense fact range of the meta's instance id.
/// `src_node` is the dead shard (stamped into the claim trace).
/// Returns `None` for a missing or undecodable meta.
pub(crate) fn package_stored_instance(
    mgr: &TxManager<StableStore>,
    instance: &str,
    tx: TxId,
    src_node: u32,
) -> Option<HandoffPackage> {
    let meta: InstanceMeta = mgr.read_committed(&meta_uid(instance)).ok()??;
    let mut entries: Vec<(StoreKey, Vec<u8>)> = Vec::new();
    for uid in mgr.uids_with_prefix(&format!("inst/{instance}/")) {
        let key = StoreKey::Uid(uid);
        if let Some(bytes) = mgr.read_committed_bytes(&key).map(<[u8]>::to_vec) {
            entries.push((key, bytes));
        }
    }
    let plan_key = StoreKey::Uid(plan_uid(meta.plan_fingerprint));
    if let Some(bytes) = mgr.read_committed_bytes(&plan_key).map(<[u8]>::to_vec) {
        entries.push((plan_key, bytes));
    }
    let lo = FactKey::instance_first(meta.instance_id);
    let hi = FactKey::instance_last(meta.instance_id);
    for fact in mgr.fact_keys_in_range(lo, hi) {
        let key = StoreKey::Fact(fact);
        if let Some(bytes) = mgr.read_committed_bytes(&key).map(<[u8]>::to_vec) {
            entries.push((key, bytes));
        }
    }
    Some(HandoffPackage {
        tx,
        instance: instance.to_string(),
        src_node,
        src_instance_id: meta.instance_id,
        entries,
    })
}

/// The execution service state. Use through [`CoordHandle`].
pub struct Coordinator {
    node: NodeId,
    repo: NodeId,
    /// Load-aware executor selection over the shared fleet (each shard
    /// keeps its own load view; no cross-shard coordination on the
    /// dispatch hot path).
    sched: Scheduler,
    /// Observed-duration feedback: per-code EWMA of real completion
    /// times, sampled at every genuine `TaskDone` release. Volatile by
    /// design (an estimate, not state) — recovery restarts it empty
    /// and the declared hints carry placement until it re-converges.
    costs: CostModel,
    /// Dispatches parked because every eligible executor sat at its
    /// declared capacity, ordered by `(priority desc, arrival)`.
    /// Drained whenever a release frees a slot. Volatile: each parked
    /// path's control block committed `Executing` before the park, so
    /// recovery re-dispatches it.
    parked: BTreeMap<(std::cmp::Reverse<i64>, u64), ParkedDispatch>,
    /// Arrival tie-break for `parked` keys.
    park_seq: u64,
    /// `StartInstance` RPCs waiting out the admission cap, in arrival
    /// order. Bounded by [`EngineConfig::admission_queue_limit`].
    admission_queue: std::collections::VecDeque<AdmissionTicket>,
    /// Live (non-terminal) instances resident on this shard — the
    /// admission-control gauge. Maintained at instance start, terminal
    /// transition, stuck/revive, adoption and hand-off; recounted on
    /// recovery.
    live_instances: usize,
    /// Starts past admission but still in their repository round-trip
    /// (counted so a burst cannot overshoot the cap mid-RPC).
    starting: usize,
    /// Report inter-arrival EWMA in virtual nanoseconds (adaptive
    /// commit-window tuning; `u64::MAX` until the second report).
    arrival_gap_ns: u64,
    /// Virtual time of the last buffered report.
    last_report_ns: u64,
    /// Instance ownership across all coordinator nodes of the system
    /// (shared verbatim by every shard; requests for instances this
    /// node does not own are forwarded to the owner).
    shard: ShardMap,
    /// Where instances this node handed off went — the dual-delivery
    /// relay table for the window between a move's commit and the
    /// rebalance's final map flip, when this node's `shard` map still
    /// claims ownership. Volatile, but rebuilt on recovery from
    /// replayed `HandOffEnd` frames; cleared by the flip
    /// ([`CoordHandle::set_shard_map`]), after which the map itself
    /// routes to the new owner.
    moved: BTreeMap<String, NodeId>,
    config: EngineConfig,
    mgr: TxManager<StableStore>,
    storage: StableStore,
    instances: BTreeMap<String, InstanceRt>,
    plan_cache: PlanCache,
    commits: u64,
    /// `commits` as of the last checkpoint — the once-per-drain
    /// threshold check works off the delta (see
    /// [`Coordinator::maybe_checkpoint`]).
    commits_at_checkpoint: u64,
    /// Executor reports buffered in the current batch window, in
    /// arrival order. Volatile by design: a crash loses the open window
    /// as a unit, exactly as if the messages were still in the network.
    pending: Vec<PendingEvent>,
    /// Whether a batch-window flush timer is outstanding.
    window_armed: bool,
    /// Next batch id (per-shard; trace events carry it so coalesced
    /// completions are visible in `WorkflowSystem::trace`).
    batch_seq: u64,
    /// The batch id commits currently run under, if a flush is active.
    current_batch: Option<u64>,
    /// Ordered dispatch decisions (equivalence tests, diagnostics).
    dispatch_log: Vec<DispatchRecord>,
    /// This shard's metric registry: `coord.*`, `sched.*`, `tx.*` and
    /// `wal.*` live here. Shared with the [`TxManager`], surviving
    /// crash-recovery reopens.
    registry: Registry,
    /// Counter/histogram handles into `registry`.
    metrics: CoordMetrics,
    /// The shard's flight recorder. Intentionally NOT reset by
    /// [`Coordinator::recover`]: it models an external telemetry sink,
    /// so a trace spans crashes of the coordinator it describes.
    recorder: FlightRecorder,
}

/// A cloneable handle to the coordinator, used by node handlers, timers
/// and the [`crate::WorkflowSystem`] facade.
#[derive(Clone)]
pub struct CoordHandle {
    inner: Rc<RefCell<Coordinator>>,
}

impl Coordinator {
    /// Opens the coordinator over durable `storage` (recovering any
    /// previous state).
    ///
    /// # Errors
    ///
    /// Corrupt storage.
    pub fn open(
        node: NodeId,
        repo: NodeId,
        executors: Vec<NodeId>,
        config: EngineConfig,
        storage: impl Into<StableStore>,
    ) -> Result<Self, EngineError> {
        Self::open_sharded(
            node,
            repo,
            executors.into_iter().map(ExecutorSpec::unbounded).collect(),
            config,
            storage,
            ShardMap::new(vec![node]),
        )
    }

    /// [`Coordinator::open`] for one shard of a multi-coordinator
    /// system: `shard` names every coordinator node (this one
    /// included), and this coordinator serves only the instances the
    /// map assigns to `node`, forwarding the rest. Each executor comes
    /// with its optional `location` label — the scheduler's hard
    /// placement constraint — and its declared capacity.
    ///
    /// # Errors
    ///
    /// Corrupt storage.
    pub fn open_sharded(
        node: NodeId,
        repo: NodeId,
        executors: Vec<ExecutorSpec>,
        config: EngineConfig,
        storage: impl Into<StableStore>,
        shard: ShardMap,
    ) -> Result<Self, EngineError> {
        let storage = storage.into();
        debug_assert!(
            shard.nodes().contains(&node),
            "shard map must include the node"
        );
        let registry = Registry::new();
        let metrics = CoordMetrics::register(&registry);
        let recorder = FlightRecorder::new(node.index() as u32, config.recorder_capacity);
        let mgr = TxManager::open_with_metrics(
            node.index() as u32,
            storage.clone(),
            &registry,
            config.observe,
        )?;
        let sched = Scheduler::new(executors, config.scheduler);
        Ok(Self {
            node,
            repo,
            sched,
            costs: CostModel::new(),
            parked: BTreeMap::new(),
            park_seq: 0,
            admission_queue: std::collections::VecDeque::new(),
            live_instances: 0,
            starting: 0,
            arrival_gap_ns: u64::MAX,
            last_report_ns: 0,
            shard,
            config,
            mgr,
            storage,
            moved: BTreeMap::new(),
            instances: BTreeMap::new(),
            plan_cache: PlanCache::default(),
            commits: 0,
            commits_at_checkpoint: 0,
            pending: Vec::new(),
            window_armed: false,
            batch_seq: 0,
            current_batch: None,
            dispatch_log: Vec::new(),
            registry,
            metrics,
            recorder,
        })
    }

    /// Appends a lifecycle event to the flight recorder (no-op below
    /// [`ObserveLevel::Trace`]).
    fn record_event(
        &self,
        at_ns: u64,
        instance: &str,
        task: Option<&str>,
        attempt: u32,
        kind: ObsEventKind,
    ) {
        if self.config.observe.trace() {
            self.recorder.record(at_ns, instance, task, attempt, kind);
        }
    }

    fn commit(&mut self, action: flowscript_tx::AtomicAction) -> Result<(), EngineError> {
        self.mgr.commit(action)?;
        self.commits += 1;
        Ok(())
    }

    /// Checkpoints when the threshold of commits has accumulated since
    /// the last one. Evaluated once per drain (and after each batch
    /// flush) rather than per commit, so a group commit can never stall
    /// mid-batch on a `rewrite_with_checkpoint` — and never while a
    /// commit group is open.
    fn maybe_checkpoint(&mut self) -> Result<(), EngineError> {
        let Some(every) = self.config.checkpoint_every else {
            return Ok(());
        };
        if self.mgr.in_group() || self.commits - self.commits_at_checkpoint < every {
            return Ok(());
        }
        self.commits_at_checkpoint = self.commits;
        self.gc_plans()?;
        self.mgr.checkpoint()?;
        Ok(())
    }

    /// Folds one buffered report's arrival into the inter-arrival EWMA
    /// (same 1/4 gain as the cost model). The very first report only
    /// seeds the clock — a gap measured from time zero is noise.
    fn note_report_arrival(&mut self, now_ns: u64) {
        if self.config.adaptive_min_window.is_none() {
            return;
        }
        if self.last_report_ns != 0 {
            let gap = now_ns.saturating_sub(self.last_report_ns);
            self.arrival_gap_ns = if self.arrival_gap_ns == u64::MAX {
                gap
            } else {
                ((u128::from(self.arrival_gap_ns) * 3 + u128::from(gap)) / 4) as u64
            };
        }
        self.last_report_ns = now_ns;
    }

    /// The commit window to arm right now. Static configs return
    /// [`CommitBatch::max_window`] unchanged; with
    /// [`EngineConfig::adaptive_min_window`] set, a bursty report
    /// stream (mean gap ≤ ¼ of the full window) holds the full window
    /// to amortize the flush, while light load narrows to the floor so
    /// a lone report commits sooner.
    fn effective_window(&self) -> SimDuration {
        let max = self.config.commit_batch.max_window;
        let Some(min) = self.config.adaptive_min_window else {
            return max;
        };
        if self.arrival_gap_ns <= max.as_nanos() / 4 {
            max
        } else {
            min.min(max)
        }
    }

    /// A `Commit` trace event stamped with the active batch id, so
    /// traces show which completions coalesced into one flush.
    fn commit_event(&self, what: String) -> ObsEventKind {
        ObsEventKind::Commit {
            what,
            batch: self.current_batch,
        }
    }

    /// Stages one buffered report's fast-path transition into the shared
    /// batch `action`. The control block is read *through the action* so
    /// a transition staged by an earlier report in the same batch is
    /// visible — duplicates and stale attempts are consumed exactly as
    /// the one-event path would drop them.
    fn stage_event(
        &mut self,
        action: &flowscript_tx::AtomicAction,
        event: &PendingEvent,
        plan: &Plan,
        keys: &InstanceKeys,
        task_id: TaskId,
    ) -> Staging {
        match event {
            PendingEvent::Done(msg) => {
                let cb = match self.mgr.read::<TaskCb>(action, keys.cb(task_id)) {
                    Ok(Some(cb)) => cb,
                    Ok(None) => return Staging::Consumed,
                    Err(_) => return Staging::Error,
                };
                if !matches!(cb.state, CbState::Executing { .. })
                    || cb.incarnation != msg.incarnation
                    || cb.attempt != msg.attempt
                {
                    return Staging::Consumed;
                }
                let TaskResult::Output { name, objects, .. } = &msg.result else {
                    return Staging::Slow; // error retry: per-event bookkeeping
                };
                let class = plan.class_of(plan.task(task_id));
                let kind = match plan.class_output(class, name).map(|output| output.kind) {
                    Some(kind @ (OutputKind::Outcome | OutputKind::AbortOutcome)) => kind,
                    // Undeclared outputs, mark-as-completion and repeats
                    // take their failure/retry paths post-commit.
                    _ => return Staging::Slow,
                };
                let Some(out_key) = keys.out_key(plan, task_id, name) else {
                    return Staging::Consumed;
                };
                let stamped: BTreeMap<String, ObjectVal> = objects
                    .clone()
                    .into_iter()
                    .map(|(k, v)| (k, v.produced_by(msg.path.clone())))
                    .collect();
                let mut cb = cb;
                cb.transition(if kind == OutputKind::Outcome {
                    CbState::Done {
                        outcome: name.clone(),
                    }
                } else {
                    CbState::Aborted {
                        outcome: name.clone(),
                    }
                });
                let whole = self.config.whole_record_facts;
                let write = self.mgr.write(action, keys.cb(task_id), &cb).and_then(|_| {
                    facts::write_fact_map(&mut self.mgr, action, plan, out_key, &stamped, whole)
                });
                match write {
                    Ok(()) => Staging::Staged(StagedEffect {
                        instance: msg.instance.clone(),
                        path: msg.path.clone(),
                        attempt: msg.attempt,
                        task_id,
                        what: if kind == OutputKind::Outcome {
                            format!("done `{name}`")
                        } else {
                            format!("aborted `{name}`")
                        },
                        is_mark: false,
                    }),
                    Err(_) => Staging::Error,
                }
            }
            PendingEvent::Mark(msg) => {
                let cb = match self.mgr.read::<TaskCb>(action, keys.cb(task_id)) {
                    Ok(Some(cb)) => cb,
                    Ok(None) => return Staging::Consumed,
                    Err(_) => return Staging::Error,
                };
                if !matches!(cb.state, CbState::Executing { .. })
                    || cb.incarnation != msg.incarnation
                    || cb.attempt != msg.attempt
                    || cb.mark_emitted(&msg.mark)
                {
                    return Staging::Consumed;
                }
                let class = plan.class_of(plan.task(task_id));
                let declared = plan
                    .class_output(class, &msg.mark)
                    .is_some_and(|output| output.kind == OutputKind::Mark);
                if !declared {
                    return Staging::Consumed;
                }
                let Some(out_key) = keys.out_key(plan, task_id, &msg.mark) else {
                    return Staging::Consumed;
                };
                let mut cb = cb;
                cb.marks_emitted.push(msg.mark.clone());
                let stamped: BTreeMap<String, ObjectVal> = msg
                    .objects
                    .clone()
                    .into_iter()
                    .map(|(k, v)| (k, v.produced_by(msg.path.clone())))
                    .collect();
                let whole = self.config.whole_record_facts;
                let write = self.mgr.write(action, keys.cb(task_id), &cb).and_then(|_| {
                    facts::write_fact_map(&mut self.mgr, action, plan, out_key, &stamped, whole)
                });
                match write {
                    Ok(()) => Staging::Staged(StagedEffect {
                        instance: msg.instance.clone(),
                        path: msg.path.clone(),
                        attempt: msg.attempt,
                        task_id,
                        what: format!("mark `{}`", msg.mark),
                        is_mark: true,
                    }),
                    Err(_) => Staging::Error,
                }
            }
        }
    }

    /// Drops persisted plan blobs (`sys/plan/…`) no instance references
    /// any more. Plans persist once per fingerprint; every
    /// reconfiguration re-fingerprints, so without this a reconfigured
    /// instance strands its old blobs forever. Runs at checkpoint time
    /// (cold path): the reference set is every resident instance's
    /// current plan plus every persisted meta's fingerprint — covering
    /// instances the shard has not (re)loaded.
    fn gc_plans(&mut self) -> Result<(), EngineError> {
        let mut live: BTreeSet<u64> = self
            .instances
            .values()
            .map(|rt| rt.plan.fingerprint)
            .collect();
        for uid in self.mgr.uids_matching("inst/", "/meta") {
            if let Ok(Some(meta)) = self.mgr.read_committed::<InstanceMeta>(&uid) {
                live.insert(meta.plan_fingerprint);
            }
        }
        self.plan_cache.retain_live(&live);
        let stale: Vec<ObjectUid> = self
            .mgr
            .uids_with_prefix("sys/plan/")
            .into_iter()
            .filter(|uid| plan_uid_fingerprint(uid).is_none_or(|fp| !live.contains(&fp)))
            .collect();
        if stale.is_empty() {
            return Ok(());
        }
        let action = self.mgr.begin();
        for uid in &stale {
            self.mgr.delete(&action, uid)?;
        }
        // Straight to the manager: the checkpoint that follows compacts
        // this commit away, and routing through `Self::commit` would
        // re-trigger the checkpoint counter.
        self.mgr.commit(action)?;
        Ok(())
    }

    fn read_cb(&self, instance: &str, path: &str) -> Option<TaskCb> {
        self.mgr
            .read_committed(&cb_uid(instance, path))
            .ok()
            .flatten()
    }

    /// Hot-path control-block read through the interned uid table.
    fn read_cb_id(&self, keys: &InstanceKeys, task: TaskId) -> Option<TaskCb> {
        self.mgr.read_committed(keys.cb(task)).ok().flatten()
    }

    fn read_meta(&self, instance: &str) -> Option<InstanceMeta> {
        let read = |uid: &ObjectUid| self.mgr.read_committed(uid).ok().flatten();
        match self.instances.get(instance) {
            Some(rt) => read(rt.keys.meta()),
            None => read(&meta_uid(instance)),
        }
    }

    /// Refreshes the volatile mirror of the status a commit just wrote
    /// to `instance`'s meta.
    fn note_status(&mut self, instance: &str, status: &InstanceStatus) {
        if let Some(rt) = self.instances.get_mut(instance) {
            rt.terminal = status.is_terminal();
        }
    }

    /// Materializes an instance's volatile runtime from committed
    /// state: the persisted fingerprinted plan when valid (recompiling
    /// the source and replaying persisted reconfigurations as the
    /// fallback), rebindings, interned keys and the non-terminal count.
    /// Pure state load — arms no timers and dispatches nothing. Shared
    /// by crash recovery and hand-off adoption.
    fn load_instance(&mut self, name: &str, meta: &InstanceMeta) -> Option<InstanceRt> {
        let cached: Option<Rc<Plan>> = self
            .mgr
            .read_committed_bytes(&StoreKey::Uid(plan_uid(meta.plan_fingerprint)))
            .and_then(|bytes| self.plan_cache.validated(bytes))
            .filter(|plan| plan.fingerprint == meta.plan_fingerprint);
        let (plan, schema) = match cached {
            Some(plan) => (plan, None),
            None => {
                // Fallback: recompile and replay persisted
                // reconfigurations in order.
                let mut schema = schema::compile_source(&meta.source, &meta.root).ok()?;
                for op_uid in self.mgr.uids_with_prefix(&format!("inst/{name}/reconfig/")) {
                    if let Ok(Some(op)) = self.mgr.read_committed::<Reconfig>(&op_uid) {
                        let _ = reconfig::apply(&mut schema, &op);
                    }
                }
                (Rc::new(Plan::lower(&schema)), Some(Rc::new(schema)))
            }
        };
        let mut bindings = BTreeMap::new();
        for bind in self.mgr.uids_with_prefix(&format!("inst/{name}/bind/")) {
            if let Ok(Some(to)) = self.mgr.read_committed::<String>(&bind) {
                let code = bind
                    .as_str()
                    .trim_start_matches(&format!("inst/{name}/bind/"))
                    .to_string();
                bindings.insert(code, to);
            }
        }
        let keys = InstanceKeys::build(&plan, name, meta.instance_id);
        let nonterminal = count_nonterminal(&self.mgr, &plan, &keys);
        Some(InstanceRt {
            plan,
            keys: Rc::new(keys),
            schema,
            bindings,
            watchdogs: BTreeMap::new(),
            in_flight: BTreeSet::new(),
            dispatched_to: BTreeMap::new(),
            retry_from: BTreeMap::new(),
            nonterminal,
            terminal: meta.status.is_terminal(),
        })
    }

    /// Packages one resident instance's entire committed keyspace for
    /// a hand-off under moving transaction `tx`: the `inst/{name}/` uid
    /// prefix, the pinned compiled plan, and the dense fact range — the
    /// collect half shared by single moves, batched drains and (via
    /// [`package_stored_instance`]) crash-driven claims.
    fn package_instance(
        &mut self,
        instance: &str,
        tx: TxId,
    ) -> Result<HandoffPackage, EngineError> {
        let Some(rt) = self.instances.get(instance) else {
            return Err(EngineError::UnknownInstance(instance.to_string()));
        };
        let keys = rt.keys.clone();
        let fingerprint = rt.plan.fingerprint;
        let mut entries: Vec<(StoreKey, Vec<u8>)> = Vec::new();
        // Every string-keyed object of the instance (meta, control
        // blocks, rebindings, reconfiguration records) ...
        for uid in self.mgr.uids_with_prefix(&format!("inst/{instance}/")) {
            let key = StoreKey::Uid(uid);
            if let Some(bytes) = self.mgr.read_committed_bytes(&key).map(<[u8]>::to_vec) {
                entries.push((key, bytes));
            }
        }
        // ... the pinned compiled plan ...
        let plan_key = StoreKey::Uid(plan_uid(fingerprint));
        if let Some(bytes) = self.mgr.read_committed_bytes(&plan_key).map(<[u8]>::to_vec) {
            entries.push((plan_key, bytes));
        }
        // ... and every dependency fact: one contiguous range scan.
        let (lo, hi) = keys.instance_fact_range();
        for fact in self.mgr.fact_keys_in_range(lo, hi) {
            let key = StoreKey::Fact(fact);
            if let Some(bytes) = self.mgr.read_committed_bytes(&key).map(<[u8]>::to_vec) {
                entries.push((key, bytes));
            }
        }
        Ok(HandoffPackage {
            tx,
            instance: instance.to_string(),
            src_node: self.node.index() as u32,
            src_instance_id: keys.instance_id,
            entries,
        })
    }

    /// Deletes every committed object of `instance` in one atomic
    /// action: the whole `inst/{name}/` uid prefix plus the dense fact
    /// range of the meta's instance id. The storage half of the source
    /// side of a committed hand-off (the shared compiled-plan blob
    /// stays; plan GC collects it once no local meta pins it).
    fn purge_instance(&mut self, instance: &str) -> Result<(), EngineError> {
        let meta: Option<InstanceMeta> = self.mgr.read_committed(&meta_uid(instance))?;
        let action = self.mgr.begin();
        for uid in self.mgr.uids_with_prefix(&format!("inst/{instance}/")) {
            self.mgr.delete(&action, &uid)?;
        }
        if let Some(meta) = meta {
            let lo = FactKey::instance_first(meta.instance_id);
            let hi = FactKey::instance_last(meta.instance_id);
            for fact in self.mgr.fact_keys_in_range(lo, hi) {
                self.mgr.delete_key(&action, &StoreKey::Fact(fact))?;
            }
        }
        self.commit(action)?;
        Ok(())
    }

    /// Records `n` control blocks entering a terminal state (stuck
    /// detection stays O(1) by never recounting).
    fn note_terminals(&mut self, instance: &str, n: usize) {
        if let Some(rt) = self.instances.get_mut(instance) {
            rt.nonterminal = rt.nonterminal.saturating_sub(n);
        }
    }

    /// Records `n` control blocks leaving a terminal state (scope
    /// resets revive terminated constituents).
    fn note_revived(&mut self, instance: &str, n: usize) {
        if let Some(rt) = self.instances.get_mut(instance) {
            rt.nonterminal += n;
        }
    }

    /// Ends the load accounting of an outstanding dispatch: removes the
    /// path's `dispatched_to` entry and releases the cost it was
    /// charged at. Idempotent (the entry gates the release); returns
    /// the executor the dispatch ran on, if one was counted.
    ///
    /// `now_ns` is the completion time for the `coord.dispatch_latency_ns`
    /// histogram and the cost model's EWMA sample; pass 0 on
    /// non-completion paths (timeouts, failures, subtree sweeps) so
    /// they skew neither the latency distribution nor the duration
    /// estimates.
    fn release_dispatch(&mut self, instance: &str, path: &str, now_ns: u64) -> Option<NodeId> {
        let dispatched = self.instances.get_mut(instance).and_then(|rt| {
            let id = rt.plan.task_by_path(path)?;
            rt.dispatched_to.remove(&id)
        })?;
        self.sched.note_release(dispatched.node, dispatched.cost);
        if now_ns > 0 && now_ns >= dispatched.sent_ns {
            let elapsed = now_ns - dispatched.sent_ns;
            // Only genuine completions reach here: watchdogs and sweeps
            // release with now_ns = 0 and never teach the model.
            self.costs.observe(&dispatched.code, elapsed);
            if self.config.observe.metrics() {
                self.metrics.dispatch_latency_ns.record(elapsed);
            }
        }
        Some(dispatched.node)
    }

    /// Drops every piece of volatile tracking under `scope_path` —
    /// armed watchdogs, in-flight markers, retry origins and the
    /// dispatch load accounting — when the subtree is cancelled or
    /// reset. Returns the disarmed watchdog events for the caller to
    /// cancel outside the borrow.
    fn sweep_subtree(&mut self, instance: &str, scope_path: &str) -> Vec<(String, EventId)> {
        let prefix = format!("{scope_path}/");
        let stale: Vec<(String, EventId)> = self
            .instances
            .get_mut(instance)
            .map(|rt| {
                let stale: Vec<(String, EventId)> = rt
                    .watchdogs
                    .iter()
                    .filter(|(path, _)| path.starts_with(&prefix))
                    .map(|(path, id)| (path.clone(), *id))
                    .collect();
                for (path, _) in &stale {
                    rt.watchdogs.remove(path);
                }
                rt.in_flight.retain(|path| !path.starts_with(&prefix));
                rt.retry_from.retain(|path, _| !path.starts_with(&prefix));
                stale
            })
            .unwrap_or_default();
        // Release every outstanding dispatch under the subtree (a
        // fired watchdog can outlive its load entry and vice versa, so
        // sweep the accounting map itself).
        let dispatched: Vec<String> = self
            .instances
            .get(instance)
            .map(|rt| {
                rt.dispatched_to
                    .keys()
                    .map(|&id| rt.plan.str(rt.plan.task(id).path).to_string())
                    .filter(|path| path.starts_with(&prefix))
                    .collect()
            })
            .unwrap_or_default();
        for path in dispatched {
            let _ = self.release_dispatch(instance, &path, 0);
        }
        // A cancelled subtree's parked dispatches must never run.
        self.parked
            .retain(|_, entry| entry.instance != instance || !entry.path.starts_with(&prefix));
        stale
    }

    /// Drops every parked dispatch of `instance` (instance hand-off or
    /// purge — the new owner re-dispatches from its own committed
    /// control blocks).
    fn unpark_instance(&mut self, instance: &str) {
        self.parked.retain(|_, entry| entry.instance != instance);
    }

    /// Recounts an instance's non-terminal control blocks from the
    /// committed store — point reads over the plan's dense ids, used
    /// only where the plan itself changed (recovery, reconfiguration).
    fn recount_nonterminal(&mut self, instance: &str) {
        let Some(rt) = self.instances.get(instance) else {
            return;
        };
        let (plan, keys) = (rt.plan.clone(), rt.keys.clone());
        let count = count_nonterminal(&self.mgr, &plan, &keys);
        if let Some(rt) = self.instances.get_mut(instance) {
            rt.nonterminal = count;
        }
    }

    /// Looks up a compiled task and its containing scope's path — the
    /// schema-walking twin of `Plan::task_by_path`, kept as the
    /// reference implementation (hot paths use the plan's index).
    #[allow(dead_code)]
    fn find_task<'a>(schema: &'a Schema, path: &str) -> Option<(&'a CompiledTask, String)> {
        let mut segments = path.split('/');
        let root_name = segments.next()?;
        if root_name != schema.root.name {
            return None;
        }
        let segments: Vec<&str> = segments.collect();
        if segments.is_empty() {
            return None;
        }
        let mut scope = &schema.root;
        let mut scope_path = schema.root.name.clone();
        for (i, segment) in segments.iter().enumerate() {
            let task = scope.task(segment)?;
            if i == segments.len() - 1 {
                return Some((task, scope_path));
            }
            let TaskBody::Scope(inner) = &task.body else {
                return None;
            };
            scope_path = format!("{scope_path}/{segment}");
            scope = inner;
        }
        None
    }
}

impl CoordHandle {
    /// Wraps a coordinator.
    pub fn new(coordinator: Coordinator) -> Self {
        Self {
            inner: Rc::new(RefCell::new(coordinator)),
        }
    }

    /// Installs the message handler on the coordinator's node.
    pub fn install(&self, world: &mut World) {
        let node = self.inner.borrow().node;
        let handle = self.clone();
        world.set_handler(node, move |world, envelope| {
            handle.handle_message(world, envelope);
        });
        let handle = self.clone();
        world.set_restart_hook(node, move |world, _| {
            handle.recover(world);
        });
    }

    /// Engine counters, materialized from the `coord.*` registry
    /// entries.
    pub fn stats(&self) -> CoordStats {
        self.inner.borrow().metrics.stats()
    }

    /// This shard's metric registry (counters, gauges, histograms for
    /// the coordinator, scheduler, transaction manager and WAL).
    pub fn registry(&self) -> Registry {
        self.inner.borrow().registry.clone()
    }

    /// This shard's flight recorder. Empty unless
    /// [`EngineConfig::observe`] is [`ObserveLevel::Trace`].
    pub fn recorder(&self) -> FlightRecorder {
        self.inner.borrow().recorder.clone()
    }

    /// Ordered dispatch decisions since the coordinator opened (the
    /// worklist/full-scan equivalence tests compare these verbatim).
    /// Empty unless [`EngineConfig::record_dispatches`] is set.
    pub fn dispatch_trace(&self) -> Vec<DispatchRecord> {
        self.inner.borrow().dispatch_log.clone()
    }

    /// Current log size in bytes (ablation measurements).
    pub fn log_size(&self) -> u64 {
        self.inner.borrow().mgr.log_size()
    }

    /// Uid prefix scans this coordinator's store has served (the
    /// stuck-diagnostics regression guard: zero during normal runs).
    pub fn store_prefix_scans(&self) -> u64 {
        self.inner.borrow().mgr.prefix_scan_count()
    }

    /// Fact range scans this coordinator's store has served (the
    /// per-object regression guard: readiness probes are point reads,
    /// so a clean run performs none — only repeats, cancellations,
    /// recovery and reconfiguration legitimately scan).
    pub fn store_fact_range_scans(&self) -> u64 {
        self.inner.borrow().mgr.fact_range_scan_count()
    }

    /// Fingerprints of the compiled-plan blobs persisted in this
    /// shard's store (`sys/plan/…`) — the plan-GC observability hook.
    /// Performs a uid prefix scan: admin/monitoring only.
    pub fn persisted_plan_fingerprints(&self) -> Vec<u64> {
        self.inner
            .borrow()
            .mgr
            .uids_with_prefix("sys/plan/")
            .into_iter()
            .filter_map(|uid| plan_uid_fingerprint(&uid))
            .collect()
    }

    /// Fingerprints of the validated plans this shard holds decoded
    /// (served by the repository or read back from `sys/plan/…`
    /// blobs), ascending — the in-memory twin of
    /// [`CoordHandle::persisted_plan_fingerprints`]; test hook for the
    /// plan-cache suites.
    #[doc(hidden)]
    pub fn cached_plan_fingerprints(&self) -> Vec<u64> {
        self.inner.borrow().plan_cache.fingerprints()
    }

    /// Overwrites every stored sub-key of one published output fact
    /// with undecodable bytes — fault injection for the corrupt-record
    /// tests (a probe must surface the fault, not read "absent").
    #[doc(hidden)]
    pub fn poison_fact(&self, instance: &str, path: &str, output: &str) -> bool {
        let mut coordinator = self.inner.borrow_mut();
        let Some(rt) = coordinator.instances.get(instance) else {
            return false;
        };
        let (plan, keys) = (rt.plan.clone(), rt.keys.clone());
        let Some(task) = plan.task_by_path(path) else {
            return false;
        };
        let Some(base) = keys.out_key(&plan, task, output) else {
            return false;
        };
        let mut targets = coordinator.mgr.fact_keys_in_range(base, base.fact_last());
        if targets.is_empty() {
            targets.push(base);
        }
        let action = coordinator.mgr.begin();
        for key in targets {
            if coordinator
                .mgr
                .write_key_raw(&action, &StoreKey::Fact(key), vec![0xFF, 0xFF, 0xFF])
                .is_err()
            {
                coordinator.mgr.abort(action);
                return false;
            }
        }
        coordinator.mgr.commit(action).is_ok()
    }

    /// Administrative fact repair: atomically replaces whatever is
    /// stored for `output` of `path` (including undecodable bytes a
    /// storage fault left behind) with `objects`, revives the instance
    /// if it was parked `Stuck`, and re-enters evaluation through the
    /// full scan — the repaired fact has no commit to seed from, so
    /// this mirrors reconfiguration re-entry.
    ///
    /// When `output` is a terminal outcome (`completion`/`abort`) and
    /// the task has not yet terminated, the task is **force-completed**
    /// with it, exactly as if the executor had replied — the escape
    /// hatch for a task whose real reply was lost to the fault.
    ///
    /// # Errors
    ///
    /// Unknown instance/task, an undeclared output name, or a failed
    /// commit. Validation failures leave the instance untouched.
    pub fn repair_fact(
        &self,
        world: &mut World,
        instance: &str,
        path: &str,
        output: &str,
        objects: BTreeMap<String, ObjectVal>,
    ) -> Result<(), EngineError> {
        // Repair reads current state: absorb the batch window first.
        self.flush_pending(world);
        {
            let mut coordinator = self.inner.borrow_mut();
            let Some(rt) = coordinator.instances.get(instance) else {
                return Err(EngineError::UnknownInstance(instance.to_string()));
            };
            let (plan, keys) = (rt.plan.clone(), rt.keys.clone());
            let Some(task_id) = plan.task_by_path(path) else {
                return Err(EngineError::UnknownTask(path.to_string()));
            };
            let class = plan.class_of(plan.task(task_id));
            let kind = plan
                .class_output(class, output)
                .map(|decl| decl.kind)
                .ok_or_else(|| {
                    EngineError::BadInputs(format!("task `{path}` declares no output `{output}`"))
                })?;
            let Some(out_key) = keys.out_key(&plan, task_id, output) else {
                return Err(EngineError::UnknownTask(path.to_string()));
            };
            let Some(mut cb) = coordinator.read_cb_id(&keys, task_id) else {
                return Err(EngineError::UnknownTask(path.to_string()));
            };
            let force = matches!(kind, OutputKind::Outcome | OutputKind::AbortOutcome)
                && !cb.state.is_terminal();
            let stamped: BTreeMap<String, ObjectVal> = objects
                .into_iter()
                .map(|(k, v)| (k, v.produced_by(path.to_string())))
                .collect();
            let whole = coordinator.config.whole_record_facts;
            let action = coordinator.mgr.begin();
            // Drop the stored sub-keys first: a corrupt record may use a
            // different layout than the rewrite below.
            for fact in coordinator
                .mgr
                .fact_keys_in_range(out_key, out_key.fact_last())
            {
                coordinator.mgr.delete_key(&action, &StoreKey::Fact(fact))?;
            }
            facts::write_fact_map(
                &mut coordinator.mgr,
                &action,
                &plan,
                out_key,
                &stamped,
                whole,
            )?;
            if force {
                cb.transition(if kind == OutputKind::Outcome {
                    CbState::Done {
                        outcome: output.to_string(),
                    }
                } else {
                    CbState::Aborted {
                        outcome: output.to_string(),
                    }
                });
                coordinator.mgr.write(&action, keys.cb(task_id), &cb)?;
            }
            let mut revived = false;
            if let Some(mut meta) = coordinator.read_meta(instance) {
                if matches!(meta.status, InstanceStatus::Stuck { .. }) {
                    meta.status = InstanceStatus::Running;
                    coordinator.mgr.write(&action, keys.meta(), &meta)?;
                    revived = true;
                }
            }
            coordinator.commit(action)?;
            if revived {
                coordinator.note_status(instance, &InstanceStatus::Running);
                // Back from Stuck: the instance counts against the
                // admission cap again.
                coordinator.live_instances += 1;
            }
            if force {
                coordinator.note_terminals(instance, 1);
            }
            let what = if force {
                format!("forced `{output}` of `{path}`")
            } else {
                format!("republished `{output}` of `{path}`")
            };
            coordinator.record_event(
                world.now().as_nanos(),
                instance,
                Some(path),
                cb.attempt,
                ObsEventKind::Repair { what },
            );
        }
        self.evaluate(world, instance);
        self.pump(world);
        Ok(())
    }

    /// The node this coordinator runs on.
    pub fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    /// This shard's current view of the executor fleet: per-executor
    /// location label and in-flight dispatch count (monitoring; the
    /// scheduling tests assert the counts drain to zero).
    pub fn executor_loads(&self) -> Vec<ExecutorSlot> {
        self.inner.borrow().sched.snapshot()
    }

    fn handle_message(&self, world: &mut World, envelope: &Envelope) {
        // A fenced shard is a zombie: its storage was claimed by
        // another node and its instances run there now. Probe the
        // claim *before* touching any state, so a zombie that never
        // crashed (a false-positive failure detection) is muzzled at
        // the door rather than discovering the fence mid-commit with
        // half-mutated volatile state. Dropped requests time out at
        // the sender, exactly like a down node.
        if self.inner.borrow_mut().mgr.probe_fence().is_some() {
            return;
        }
        let Ok(msg) = flowscript_codec::from_bytes::<EngineMsg>(&envelope.payload) else {
            return; // corrupt message: drop, sender will time out / retry
        };
        self.deliver(world, envelope, msg, 0);
    }

    /// Handles one engine message that has been relayed `hops` times
    /// already (0 for a direct send; unwrapped [`EngineMsg::Forwarded`]
    /// layers carry the count).
    fn deliver(&self, world: &mut World, envelope: &Envelope, msg: EngineMsg, hops: u32) {
        match msg {
            EngineMsg::Forwarded {
                epoch: _,
                hops: relayed,
                inner,
            } => {
                let Ok(inner) = flowscript_codec::from_bytes::<EngineMsg>(&inner) else {
                    return;
                };
                self.deliver(world, envelope, inner, relayed);
            }
            EngineMsg::Done(done) => {
                if let Some(owner) = self.misdirected(&done.instance) {
                    let instance = done.instance.clone();
                    self.forward_oneway(world, owner, &instance, EngineMsg::Done(done), hops);
                    return;
                }
                if self.batching_enabled() {
                    self.enqueue_event(world, PendingEvent::Done(done));
                } else {
                    self.on_task_done(world, done);
                    self.pump(world);
                }
            }
            EngineMsg::Mark(mark) => {
                if let Some(owner) = self.misdirected(&mark.instance) {
                    let instance = mark.instance.clone();
                    self.forward_oneway(world, owner, &instance, EngineMsg::Mark(mark), hops);
                    return;
                }
                if self.batching_enabled() {
                    self.enqueue_event(world, PendingEvent::Mark(mark));
                } else {
                    self.on_mark(world, mark);
                    self.pump(world);
                }
            }
            EngineMsg::StartInstance {
                instance,
                script,
                version,
                set,
                inputs,
                epoch,
            } => {
                let Some(token) = envelope.reply_token() else {
                    return;
                };
                if let Some(owner) = self.misdirected(&instance) {
                    let relay = EngineMsg::StartInstance {
                        instance: instance.clone(),
                        script,
                        version,
                        set,
                        inputs,
                        epoch,
                    };
                    self.forward_start(world, owner, &instance, token, relay, hops);
                    return;
                }
                let ticket = AdmissionTicket {
                    instance,
                    script,
                    version,
                    set,
                    inputs,
                    token,
                    enqueued_ns: world.now().as_nanos(),
                };
                self.admit_or_queue(world, ticket);
            }
            EngineMsg::HandoffQuery { tx_node, tx_seq } => {
                self.on_handoff_query(world, envelope.src, TxId::new(tx_node, tx_seq));
            }
            EngineMsg::HandoffVerdict {
                tx_node,
                tx_seq,
                committed,
            } => {
                self.on_handoff_verdict(world, TxId::new(tx_node, tx_seq), committed);
            }
            _ => {}
        }
    }

    // -----------------------------------------------------------------
    // Admission control: per-shard instance cap on the RPC surface.
    // -----------------------------------------------------------------

    /// Gates one owned `StartInstance` RPC on the admission cap: under
    /// the cap (with nothing already queued ahead) the start runs
    /// immediately; at the cap it parks in the bounded admission
    /// queue, its reply token held open; with the queue also full the
    /// client gets a typed [`EngineMsg::Busy`] to retry with backoff.
    fn admit_or_queue(&self, world: &mut World, ticket: AdmissionTicket) {
        enum Verdict {
            Admit,
            Busy(u32),
        }
        let verdict = {
            let mut coordinator = self.inner.borrow_mut();
            let occupancy = coordinator.live_instances + coordinator.starting;
            match coordinator.config.max_inflight_instances {
                None => Verdict::Admit,
                // FIFO fairness: a free slot goes to the queue head,
                // never to a start that arrived after queued ones.
                Some(cap) if occupancy < cap && coordinator.admission_queue.is_empty() => {
                    Verdict::Admit
                }
                Some(_)
                    if coordinator.admission_queue.len()
                        < coordinator.config.admission_queue_limit =>
                {
                    coordinator.record_event(
                        ticket.enqueued_ns,
                        &ticket.instance,
                        None,
                        0,
                        ObsEventKind::Parked {
                            queue_depth: coordinator.admission_queue.len() as u64 + 1,
                        },
                    );
                    coordinator.admission_queue.push_back(ticket);
                    if coordinator.config.observe.metrics() {
                        coordinator
                            .metrics
                            .admission_queue_depth
                            .set(coordinator.admission_queue.len() as i64);
                    }
                    return;
                }
                Some(_) => {
                    coordinator.metrics.busy_rejections.inc();
                    Verdict::Busy(coordinator.admission_queue.len() as u32)
                }
            }
        };
        match verdict {
            Verdict::Admit => {
                self.on_start_instance(
                    world,
                    ticket.token,
                    ticket.instance,
                    ticket.script,
                    ticket.version,
                    ticket.set,
                    ticket.inputs,
                );
            }
            Verdict::Busy(queue_depth) => {
                let reply = EngineMsg::Busy { queue_depth };
                world.rpc_reply_to(ticket.token, flowscript_codec::to_bytes(&reply));
            }
        }
    }

    /// Admits queued starts while the shard sits under its cap (called
    /// whenever an instance leaves the live set). Each admitted start
    /// counts toward occupancy from its repository round-trip on, so a
    /// burst of admissions cannot overshoot the cap.
    fn admit_from_queue(&self, world: &mut World) {
        loop {
            let ticket = {
                let mut coordinator = self.inner.borrow_mut();
                let Some(cap) = coordinator.config.max_inflight_instances else {
                    return;
                };
                if coordinator.live_instances + coordinator.starting >= cap {
                    return;
                }
                let Some(ticket) = coordinator.admission_queue.pop_front() else {
                    return;
                };
                let now_ns = world.now().as_nanos();
                let waited = now_ns.saturating_sub(ticket.enqueued_ns);
                if coordinator.config.observe.metrics() {
                    coordinator.metrics.admission_wait_ns.record(waited);
                    coordinator
                        .metrics
                        .admission_queue_depth
                        .set(coordinator.admission_queue.len() as i64);
                }
                coordinator.record_event(
                    now_ns,
                    &ticket.instance,
                    None,
                    0,
                    ObsEventKind::Admitted { wait_ns: waited },
                );
                ticket
            };
            self.on_start_instance(
                world,
                ticket.token,
                ticket.instance,
                ticket.script,
                ticket.version,
                ticket.set,
                ticket.inputs,
            );
        }
    }

    /// The release pump: runs after any event that can free executor
    /// capacity or admission headroom — completed/failed/timed-out
    /// tasks, terminal instances, hand-offs, recovery — first draining
    /// the capacity-parked ready queue, then admitting queued starts.
    /// Never called from inside a drain (dispatch cascades would
    /// re-enter); the outer event handlers call it exactly once.
    fn pump(&self, world: &mut World) {
        self.drain_parked(world);
        self.admit_from_queue(world);
    }

    /// Re-dispatches parked work, highest `(priority, arrival)` first,
    /// as long as some entry's eligible executors have free capacity.
    /// Per-entry eligibility keeps a pinned entry whose location is
    /// still full from blocking an unpinned one behind it.
    fn drain_parked(&self, world: &mut World) {
        loop {
            let entry = {
                let mut coordinator = self.inner.borrow_mut();
                let key = coordinator
                    .parked
                    .iter()
                    .find(|(_, entry)| !coordinator.sched.all_saturated(&entry.hints))
                    .map(|(key, _)| *key);
                let Some(key) = key else {
                    return;
                };
                let entry = coordinator.parked.remove(&key).expect("key just found");
                let now_ns = world.now().as_nanos();
                if coordinator.config.observe.metrics() {
                    coordinator
                        .metrics
                        .queue_wait_ns
                        .record(now_ns.saturating_sub(entry.parked_ns));
                    coordinator
                        .metrics
                        .ready_queue_depth
                        .set(coordinator.parked.len() as i64);
                }
                coordinator.record_event(
                    now_ns,
                    &entry.instance,
                    Some(&entry.path),
                    entry.attempt,
                    ObsEventKind::Admitted {
                        wait_ns: now_ns.saturating_sub(entry.parked_ns),
                    },
                );
                entry
            };
            self.dispatch(
                world,
                &entry.instance,
                &entry.path,
                entry.attempt,
                entry.inputs,
                entry.repeat_objects,
            );
        }
    }

    // -----------------------------------------------------------------
    // The batch window: group commit over executor reports.
    // -----------------------------------------------------------------

    fn batching_enabled(&self) -> bool {
        self.inner.borrow().config.commit_batch.enabled()
    }

    /// Buffers an executor report into the open batch window, flushing
    /// when the window fills. The first report of a window arms a
    /// one-shot timer so a lone report still commits within
    /// `max_window` of sim time.
    fn enqueue_event(&self, world: &mut World, event: PendingEvent) {
        enum Next {
            Flush,
            Arm(NodeId, SimDuration),
            Wait,
        }
        let next = {
            let mut coordinator = self.inner.borrow_mut();
            coordinator.note_report_arrival(world.now().as_nanos());
            coordinator.pending.push(event);
            if coordinator.pending.len() >= coordinator.config.commit_batch.max_events {
                Next::Flush
            } else if coordinator.window_armed {
                Next::Wait
            } else {
                coordinator.window_armed = true;
                Next::Arm(coordinator.node, coordinator.effective_window())
            }
        };
        match next {
            Next::Flush => self.flush_batch(world),
            Next::Arm(node, window) => {
                let handle = self.clone();
                world.schedule_node_after(node, window, move |world| {
                    handle.on_batch_window(world);
                });
            }
            Next::Wait => {}
        }
    }

    /// The batch window elapsed: flush whatever accumulated. A window
    /// whose reports were already flushed by the count trigger is a
    /// no-op (the stale timer fires on an empty buffer).
    fn on_batch_window(&self, world: &mut World) {
        {
            let mut coordinator = self.inner.borrow_mut();
            // A fenced coordinator is a zombie: another node claimed its
            // storage. Buffered reports die with it — the claimant's
            // copies are the truth now (same muzzle as
            // [`Self::handle_message`], for the timer entry points).
            if coordinator.mgr.probe_fence().is_some() {
                return;
            }
            coordinator.window_armed = false;
            if coordinator.pending.is_empty() {
                return;
            }
        }
        self.flush_batch(world);
    }

    /// Drains the batch window immediately, if it holds any reports.
    /// Admin entry points (reconfiguration, operator abort, fact
    /// repair) call this first so their reads and cascades see every
    /// report that already arrived.
    fn flush_pending(&self, world: &mut World) {
        if self.inner.borrow().pending.is_empty() {
            return;
        }
        self.flush_batch(world);
    }

    /// Commits every report buffered in the window as one batch: a
    /// single atomic action over the union of touched control blocks
    /// (locks taken in deterministic [`StoreKey`] order), a single WAL
    /// group frame covering the batch *and* the readiness cascade it
    /// triggers, and one consumer-seeded re-evaluation per touched
    /// instance. Reports the shared action cannot absorb (error
    /// retries, repeats, undeclared outputs) run through their
    /// one-event handlers after the batch commits — still inside the
    /// WAL group, serialized as if they had arrived just after it.
    fn flush_batch(&self, world: &mut World) {
        let events = std::mem::take(&mut self.inner.borrow_mut().pending);
        if events.is_empty() {
            return;
        }
        {
            let mut coordinator = self.inner.borrow_mut();
            let id = coordinator.batch_seq;
            coordinator.batch_seq += 1;
            coordinator.current_batch = Some(id);
            if coordinator.config.observe.metrics() {
                coordinator.metrics.batch_size.record(events.len() as u64);
            }
            coordinator.mgr.begin_group();
        }

        // Per-event plan context, and the key union for the lock
        // pre-pass.
        type EventCtx = Option<(Rc<Plan>, Rc<InstanceKeys>, TaskId)>;
        let mut contexts: Vec<EventCtx> = Vec::with_capacity(events.len());
        let mut cb_keys: BTreeSet<StoreKey> = BTreeSet::new();
        for event in &events {
            let (instance, path) = match event {
                PendingEvent::Done(msg) => (&msg.instance, &msg.path),
                PendingEvent::Mark(msg) => (&msg.instance, &msg.path),
            };
            let ctx = self.instance_ctx(instance).and_then(|(plan, keys)| {
                let task = plan.task_by_path(path)?;
                Some((plan, keys, task))
            });
            if let Some((_, keys, task)) = &ctx {
                cb_keys.insert(StoreKey::from(keys.cb(*task)));
            }
            contexts.push(ctx);
        }

        let mut staged: Vec<StagedEffect> = Vec::new();
        let mut slow: BTreeSet<usize> = BTreeSet::new();
        let committed = {
            let mut coordinator = self.inner.borrow_mut();
            let action = coordinator.mgr.begin();
            // One ordered pass acquires every control-block lock before
            // any transition stages.
            let mut ok = cb_keys
                .iter()
                .all(|key| coordinator.mgr.read_key_raw(&action, key).is_ok());
            if ok {
                for (idx, (event, ctx)) in events.iter().zip(&contexts).enumerate() {
                    let Some((plan, keys, task)) = ctx else {
                        continue; // unknown instance or path: dropped, as ever
                    };
                    match coordinator.stage_event(&action, event, plan, keys, *task) {
                        Staging::Staged(effect) => staged.push(effect),
                        Staging::Consumed => {}
                        Staging::Slow => {
                            slow.insert(idx);
                        }
                        Staging::Error => {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok {
                coordinator.commit(action).is_ok()
            } else {
                coordinator.mgr.abort(action);
                false
            }
        };

        if committed {
            let now_ns = world.now().as_nanos();
            let mut touched: Vec<(String, Vec<TaskId>)> = Vec::new();
            {
                let mut coordinator = self.inner.borrow_mut();
                for effect in &staged {
                    if effect.is_mark {
                        coordinator.metrics.marks.inc();
                    } else {
                        coordinator.note_terminals(&effect.instance, 1);
                    }
                    let kind = coordinator.commit_event(effect.what.clone());
                    coordinator.record_event(
                        now_ns,
                        &effect.instance,
                        Some(&effect.path),
                        effect.attempt,
                        kind,
                    );
                    match touched
                        .iter_mut()
                        .find(|(name, _)| name == &effect.instance)
                    {
                        Some((_, tasks)) => tasks.push(effect.task_id),
                        None => touched.push((effect.instance.clone(), vec![effect.task_id])),
                    }
                }
            }
            // Completed dispatches release their watchdogs and load
            // *before* the cascade dispatches anything new.
            for effect in &staged {
                if !effect.is_mark {
                    let _ = self.clear_watch(world, &effect.instance, &effect.path);
                }
            }
            // One readiness pass per touched instance, seeded from the
            // union of its completions (first-touch arrival order).
            for (instance, tasks) in &touched {
                self.evaluate_from(world, instance, tasks);
            }
        } else {
            // The shared action rolled back, so committed state is
            // untouched: replay the whole window through the one-event
            // pipeline instead.
            slow = (0..events.len()).collect();
        }

        // The leftovers run inside the same WAL group, as if they had
        // arrived right after the batch.
        for (idx, event) in events.into_iter().enumerate() {
            if slow.contains(&idx) {
                match event {
                    PendingEvent::Done(msg) => self.on_task_done(world, msg),
                    PendingEvent::Mark(msg) => self.on_mark(world, msg),
                }
            }
        }

        {
            let mut coordinator = self.inner.borrow_mut();
            let _ = coordinator.mgr.end_group();
            coordinator.current_batch = None;
        }
        let _ = self.inner.borrow_mut().maybe_checkpoint();
        // A flushed batch both frees executor slots (completions) and
        // settles instances — revisit parked dispatches and the
        // admission queue.
        self.pump(world);
    }

    // -----------------------------------------------------------------
    // Shard routing.
    // -----------------------------------------------------------------

    /// `Some(owner)` when `instance` belongs to a *different*
    /// coordinator per the shared shard map (the request must be
    /// forwarded), `None` when this node owns it.
    fn misdirected(&self, instance: &str) -> Option<NodeId> {
        let coordinator = self.inner.borrow();
        // Residency beats the map: the instant a committed hand-off is
        // adopted, this node *is* the owner — even while its own map is
        // still the pre-flip one (a crashed destination recovers the
        // move before any map update reaches it). Without this, the
        // stale map bounces relayed reports straight back at the
        // relayer until the hop cap eats them.
        if coordinator.instances.contains_key(instance) {
            return None;
        }
        let owner = coordinator.shard.node_of(instance);
        if owner != coordinator.node {
            return Some(owner);
        }
        // The map says "mine" but the instance was handed off and the
        // rebalance's map flip hasn't happened yet (the dual-delivery
        // window): relay to where it went.
        coordinator.moved.get(instance).copied()
    }

    /// Relays a misdirected one-way message (`Done`/`Mark`) to the
    /// owning shard, wrapped in [`EngineMsg::Forwarded`] so the hop
    /// count travels with it. A message that already burned
    /// [`MAX_FORWARD_HOPS`] relays is circling between coordinators
    /// whose shard maps disagree — it is dropped and counted
    /// (`coord.forward_loops`) instead of bouncing forever. The relay
    /// charges only `forwarded`; the owner counts the operation itself
    /// exactly once.
    fn forward_oneway(
        &self,
        world: &mut World,
        owner: NodeId,
        instance: &str,
        inner: EngineMsg,
        hops: u32,
    ) {
        let (node, wrapped) = {
            let coordinator = self.inner.borrow();
            if hops >= MAX_FORWARD_HOPS {
                coordinator.metrics.forward_loops.inc();
                return;
            }
            coordinator.metrics.forwarded.inc();
            let epoch = coordinator.shard.epoch();
            coordinator.record_event(
                world.now().as_nanos(),
                instance,
                None,
                0,
                ObsEventKind::Forward {
                    to: owner.index() as u32,
                    epoch,
                },
            );
            let wrapped = EngineMsg::Forwarded {
                epoch,
                hops: hops + 1,
                inner: flowscript_codec::to_bytes(&inner),
            };
            (coordinator.node, wrapped)
        };
        world.send(node, owner, flowscript_codec::to_bytes(&wrapped));
    }

    /// Relays a misdirected `StartInstance` RPC to the owning shard and
    /// pipes the owner's reply back to the original caller. At the hop
    /// cap the caller gets a diagnosable error instead of a hang.
    fn forward_start(
        &self,
        world: &mut World,
        owner: NodeId,
        instance: &str,
        token: ReplyToken,
        inner: EngineMsg,
        hops: u32,
    ) {
        let (node, wrapped) = {
            let coordinator = self.inner.borrow();
            if hops >= MAX_FORWARD_HOPS {
                coordinator.metrics.forward_loops.inc();
                drop(coordinator);
                let reply = EngineMsg::Ack {
                    result: Err(format!(
                        "instance `{instance}` bounced through {hops} shards without \
                         finding an owner (disagreeing shard maps?)"
                    )),
                };
                world.rpc_reply_to(token, flowscript_codec::to_bytes(&reply));
                return;
            }
            coordinator.metrics.forwarded.inc();
            let epoch = coordinator.shard.epoch();
            coordinator.record_event(
                world.now().as_nanos(),
                instance,
                None,
                0,
                ObsEventKind::Forward {
                    to: owner.index() as u32,
                    epoch,
                },
            );
            let wrapped = EngineMsg::Forwarded {
                epoch,
                hops: hops + 1,
                inner: flowscript_codec::to_bytes(&inner),
            };
            (coordinator.node, wrapped)
        };
        world.rpc_call(
            node,
            owner,
            flowscript_codec::to_bytes(&wrapped),
            SimDuration::from_secs(8),
            move |world, reply| {
                let bytes = match reply {
                    Ok(bytes) => bytes,
                    Err(err) => flowscript_codec::to_bytes(&EngineMsg::Ack {
                        result: Err(format!("owning shard unreachable: {err}")),
                    }),
                };
                world.rpc_reply_to(token, bytes);
            },
        );
    }

    // -----------------------------------------------------------------
    // Live hand-off (rebalancing and planned drains).
    //
    // A slice of instances bound for one destination moves in four
    // steps under ONE moving transaction, a 2PC with the source as
    // coordinator (a rebalance moves slices of one, a drain slices of
    // up to a batch):
    //
    //   1. `handoff_collect` (source): WAL `HandOffBegin` intents, then
    //      gather each instance's entire committed keyspace into a
    //      [`HandoffPackage`].
    //   2. `handoff_prepare` (destination): re-key the packages under a
    //      freshly allocated contiguous instance-id range and stage
    //      them as one prepared remote transaction (one durable
    //      yes-vote, write locks held).
    //   3. `handoff_commit` (source): WAL `HandOffEnd` per instance —
    //      the durable decision — plus the keyspace deletes, flushed as
    //      one atomic frame; the volatile runtimes are dropped. From
    //      here the source only relays (executor replies to in-flight
    //      tasks are forwarded to the new owner by the ordinary
    //      misdirection path).
    //   4. `handoff_apply` (destination): resolve the prepared stage
    //      and adopt the materialized instances — watchdogs re-armed
    //      for executing tasks *without* attempt bumps, so a relayed
    //      reply applies exactly as if the instance had never moved.
    //
    // Crash repair: `recover` purges committed-away instances whose
    // delete didn't land, presumed-aborts dangling intents, re-announces
    // verdicts, and chases in-doubt stages with `HandoffQuery`.
    // -----------------------------------------------------------------

    /// Step 1 (source): logs the move intents under one moving
    /// transaction and packages each instance's committed keyspace.
    /// The batch window is flushed first so the packages reflect every
    /// report that has arrived.
    ///
    /// # Errors
    ///
    /// Unknown instance, or storage failure logging the intents.
    pub fn handoff_collect(
        &self,
        world: &mut World,
        instances: &[String],
        dest: NodeId,
    ) -> Result<Vec<HandoffPackage>, EngineError> {
        // The packages must be the whole committed truth: absorb the
        // batch window first so no report is stranded in memory.
        self.flush_pending(world);
        let mut coordinator = self.inner.borrow_mut();
        for instance in instances {
            if !coordinator.instances.contains_key(instance.as_str()) {
                return Err(EngineError::UnknownInstance(instance.clone()));
            }
        }
        let tx = coordinator
            .mgr
            .handoff_begin(instances, dest.index() as u32)?;
        instances
            .iter()
            .map(|instance| coordinator.package_instance(instance, tx))
            .collect()
    }

    /// Step 2 (destination): re-keys the packages under freshly
    /// allocated local instance ids and stages them as one prepared
    /// remote transaction — the durable yes-vote. The committed id
    /// sequence is read once and a contiguous range `base..base + N`
    /// allocated up front, so the slice costs a single prepare frame
    /// however many instances it carries. Nothing is visible until the
    /// source's decision arrives ([`Self::handoff_apply`] or a replayed
    /// verdict).
    ///
    /// Moves into one destination must run sequentially: the id
    /// allocation reads *committed* state, so a second prepare before
    /// the first resolves would draw the same ids.
    ///
    /// # Errors
    ///
    /// Lock conflict on a staged key, undecodable metadata, or storage
    /// failure persisting the vote. All packages must share one moving
    /// transaction.
    pub fn handoff_prepare(&self, packages: &[HandoffPackage]) -> Result<(), EngineError> {
        let Some(first) = packages.first() else {
            return Ok(());
        };
        let mut coordinator = self.inner.borrow_mut();
        // The instances keep their names; only the dense fact-key id is
        // shard-local. Allocate the destination's next id range and
        // re-key each package at its offset.
        let base: u32 = coordinator
            .mgr
            .read_committed(&instance_seq_uid())?
            .unwrap_or(0);
        let total: usize = packages.iter().map(|p| p.entries.len()).sum();
        let mut writes: Vec<(StoreKey, Option<Vec<u8>>)> = Vec::with_capacity(total + 1);
        writes.push((
            StoreKey::Uid(instance_seq_uid()),
            Some(flowscript_codec::to_bytes(&(base + packages.len() as u32))),
        ));
        for (offset, package) in packages.iter().enumerate() {
            debug_assert_eq!(package.tx, first.tx, "batch spans one moving tx");
            let new_id = base + offset as u32;
            let meta_key = StoreKey::Uid(meta_uid(&package.instance));
            for (key, bytes) in &package.entries {
                match key {
                    StoreKey::Fact(fact) => {
                        debug_assert_eq!(fact.instance, package.src_instance_id);
                        let fact = FactKey {
                            instance: new_id,
                            ..*fact
                        };
                        writes.push((StoreKey::Fact(fact), Some(bytes.clone())));
                    }
                    key if *key == meta_key => {
                        let mut meta: InstanceMeta = flowscript_codec::from_bytes(bytes)
                            .map_err(|e| EngineError::Tx(format!("hand-off meta corrupt: {e}")))?;
                        meta.instance_id = new_id;
                        writes.push((key.clone(), Some(flowscript_codec::to_bytes(&meta))));
                    }
                    key => writes.push((key.clone(), Some(bytes.clone()))),
                }
            }
        }
        coordinator
            .mgr
            .prepare_remote(first.tx, first.src_node, writes)?;
        Ok(())
    }

    /// Step 3 (source): durably decides the move committed, atomically
    /// deletes each instance's keyspace and drops its volatile runtime
    /// (watchdogs disarmed, outstanding dispatch load released — the
    /// executor replies those dispatches still owe will arrive here
    /// and be relayed to the new owner by the ordinary misdirection
    /// path). The per-instance decision frames and keyspace purges run
    /// inside a WAL commit group, flushing as a single atomic frame: a
    /// crash can never leave half the slice committed and the other
    /// half presumed aborted — which matters, because the destination
    /// resolves its one staged transaction all-or-nothing.
    ///
    /// # Errors
    ///
    /// Storage failure. Each decision record precedes its delete, so a
    /// failure here leaves a committed move whose purge crash recovery
    /// finishes.
    pub fn handoff_commit(
        &self,
        world: &mut World,
        instances: &[String],
        tx: TxId,
        dest: NodeId,
    ) -> Result<(), EngineError> {
        self.inner.borrow_mut().mgr.begin_group();
        let mut result = Ok(());
        for instance in instances {
            result = self.handoff_commit_inner(world, instance, tx, dest);
            if result.is_err() {
                break;
            }
        }
        {
            let mut coordinator = self.inner.borrow_mut();
            if coordinator.mgr.end_group().is_err() && result.is_ok() {
                result = Err(EngineError::Tx("hand-off batch flush failed".to_string()));
            }
        }
        // Freed executor load and freed admission slots: parked
        // dispatches of other instances may now place, and queued
        // starts may now admit.
        self.pump(world);
        result
    }

    fn handoff_commit_inner(
        &self,
        world: &mut World,
        instance: &str,
        tx: TxId,
        dest: NodeId,
    ) -> Result<(), EngineError> {
        let watchdogs = {
            let mut coordinator = self.inner.borrow_mut();
            // The durable decision record: from here the move is
            // committed, crash or no crash.
            coordinator
                .mgr
                .handoff_end(tx, instance, dest.index() as u32, true)?;
            let was_running = coordinator
                .mgr
                .read_committed::<InstanceMeta>(&meta_uid(instance))
                .ok()
                .flatten()
                .is_some_and(|meta| meta.status == InstanceStatus::Running);
            coordinator.purge_instance(instance)?;
            // Dual delivery: until the rebalance flips this node's map,
            // executor replies for the moved instance still land here —
            // the relay table routes them to the new owner.
            coordinator.moved.insert(instance.to_string(), dest);
            let mut stale = Vec::new();
            if let Some(rt) = coordinator.instances.remove(instance) {
                stale.extend(rt.watchdogs.into_values());
                for dispatched in rt.dispatched_to.values() {
                    coordinator
                        .sched
                        .note_release(dispatched.node, dispatched.cost);
                }
            }
            // The moved instance's parked dispatches must never run
            // here — the new owner re-dispatches from its own committed
            // control blocks. Its admission slot frees up too.
            coordinator.unpark_instance(instance);
            if was_running {
                coordinator.live_instances = coordinator.live_instances.saturating_sub(1);
            }
            coordinator.metrics.handoffs.inc();
            let epoch = coordinator.shard.epoch();
            coordinator.record_event(
                world.now().as_nanos(),
                instance,
                None,
                0,
                ObsEventKind::HandOff {
                    to: dest.index() as u32,
                    epoch,
                },
            );
            stale
        };
        for id in watchdogs {
            world.cancel(id);
        }
        Ok(())
    }

    /// Aborts a move whose destination could not prepare (step 3's
    /// other branch): durably records the abort so the intent is not
    /// replayed as in-doubt. The instance never stopped being served
    /// here.
    ///
    /// # Errors
    ///
    /// Storage failure persisting the abort record.
    pub fn handoff_abort(&self, instance: &str, tx: TxId, dest: NodeId) -> Result<(), EngineError> {
        let mut coordinator = self.inner.borrow_mut();
        coordinator
            .mgr
            .handoff_end(tx, instance, dest.index() as u32, false)?;
        Ok(())
    }

    /// Step 4 (destination): applies the source's decision to the
    /// prepared stage — commit makes the re-keyed keyspace visible and
    /// adopts the instance, abort discards the stage and releases its
    /// locks. Idempotent: resolving an unknown transaction is a no-op.
    ///
    /// # Errors
    ///
    /// Storage failure persisting the resolution.
    pub fn handoff_apply(
        &self,
        world: &mut World,
        tx: TxId,
        committed: bool,
    ) -> Result<(), EngineError> {
        self.inner.borrow_mut().mgr.resolve_remote(tx, committed)?;
        if committed {
            self.adopt_orphans(world);
        }
        Ok(())
    }

    /// Destination half of crash-driven adoption: commits a dead
    /// shard's packaged instance locally under a freshly allocated id.
    /// No 2PC — the source is dead and its storage fenced behind the
    /// claimant, so the claim is ONE local atomic commit. Idempotent:
    /// an instance already present (resident or committed) is skipped
    /// with `Ok(false)`, which is what lets a driver that crashed
    /// mid-claim simply run the whole adoption again.
    ///
    /// The caller adopts the landed orphans afterwards via
    /// [`Self::adopt_claimed`] (one sweep per destination).
    ///
    /// # Errors
    ///
    /// Undecodable claimed metadata, or storage failure on the commit.
    pub fn claim_adopt(
        &self,
        world: &mut World,
        package: &HandoffPackage,
        epoch: u64,
    ) -> Result<bool, EngineError> {
        let mut coordinator = self.inner.borrow_mut();
        if coordinator.instances.contains_key(&package.instance)
            || coordinator.mgr.exists(&meta_uid(&package.instance))
        {
            return Ok(false);
        }
        let new_id: u32 = coordinator
            .mgr
            .read_committed(&instance_seq_uid())?
            .unwrap_or(0);
        let meta_key = StoreKey::Uid(meta_uid(&package.instance));
        let action = coordinator.mgr.begin();
        coordinator
            .mgr
            .write(&action, &instance_seq_uid(), &(new_id + 1))?;
        for (key, bytes) in &package.entries {
            match key {
                StoreKey::Fact(fact) => {
                    debug_assert_eq!(fact.instance, package.src_instance_id);
                    let fact = FactKey {
                        instance: new_id,
                        ..*fact
                    };
                    coordinator
                        .mgr
                        .write_key_raw(&action, &StoreKey::Fact(fact), bytes.clone())?;
                }
                key if *key == meta_key => {
                    let mut meta: InstanceMeta = flowscript_codec::from_bytes(bytes)
                        .map_err(|e| EngineError::Tx(format!("claimed meta corrupt: {e}")))?;
                    meta.instance_id = new_id;
                    coordinator.mgr.write_key_raw(
                        &action,
                        key,
                        flowscript_codec::to_bytes(&meta),
                    )?;
                }
                key => coordinator.mgr.write_key_raw(&action, key, bytes.clone())?,
            }
        }
        coordinator.commit(action)?;
        coordinator.record_event(
            world.now().as_nanos(),
            &package.instance,
            None,
            0,
            ObsEventKind::Claim {
                from: package.src_node,
                epoch,
            },
        );
        Ok(true)
    }

    /// Adopts every instance whose committed state sits in this
    /// shard's store without a resident runtime — the landing half of
    /// a hand-off (and of a replayed verdict after a destination
    /// crash). Unlike crash recovery this bumps no attempts and
    /// re-dispatches nothing: the old owner relays in-flight executor
    /// replies, so the execution history stays byte-identical to an
    /// unmoved run. Watchdogs are re-armed as the safety net for a
    /// relay that never arrives.
    fn adopt_orphans(&self, world: &mut World) {
        self.adopt_orphans_as(world, None);
    }

    /// [`Self::adopt_orphans`] for crash-driven adoption: the landing
    /// trace event is [`ObsEventKind::Adopted`] — stamped with the dead
    /// shard and the claim's membership epoch — and the
    /// `coord.adoptions` counter ticks once per instance.
    pub(crate) fn adopt_claimed(&self, world: &mut World, from: u32, epoch: u64) {
        self.adopt_orphans_as(world, Some((from, epoch)));
    }

    fn adopt_orphans_as(&self, world: &mut World, claim: Option<(u32, u64)>) {
        let adopted: Vec<(String, bool)> = {
            let mut coordinator = self.inner.borrow_mut();
            let metas: Vec<ObjectUid> = coordinator.mgr.uids_matching("inst/", "/meta");
            let mut adopted = Vec::new();
            for uid in metas {
                let name = uid
                    .as_str()
                    .trim_start_matches("inst/")
                    .trim_end_matches("/meta")
                    .to_string();
                if coordinator.instances.contains_key(&name) {
                    continue;
                }
                let Ok(Some(meta)) = coordinator.mgr.read_committed::<InstanceMeta>(&uid) else {
                    continue;
                };
                let Some(rt) = coordinator.load_instance(&name, &meta) else {
                    continue;
                };
                coordinator.instances.insert(name.clone(), rt);
                if meta.status == InstanceStatus::Running {
                    // An adopted live instance occupies an admission
                    // slot on its new shard.
                    coordinator.live_instances += 1;
                }
                let kind = match claim {
                    Some((from, claim_epoch)) => {
                        coordinator.metrics.adoptions.inc();
                        ObsEventKind::Adopted {
                            from,
                            epoch: claim_epoch,
                        }
                    }
                    None => ObsEventKind::HandOff {
                        to: coordinator.node.index() as u32,
                        epoch: coordinator.shard.epoch(),
                    },
                };
                coordinator.record_event(world.now().as_nanos(), &name, None, 0, kind);
                adopted.push((name, meta.status == InstanceStatus::Running));
            }
            adopted
        };
        for (name, running) in adopted {
            self.arm_adopted_watchdogs(world, &name);
            if running {
                // Full re-evaluation: an adopted instance has no
                // commit to seed from. Executing tasks are not
                // re-dispatched — their transitions gate on the
                // control-block state.
                self.evaluate(world, &name);
            }
        }
    }

    /// Arms fresh watchdogs for every task an adopted instance has in
    /// the `Executing` state, marking them in flight. The normal case
    /// is the watchdog being disarmed by the old owner's relayed
    /// `TaskDone`; it fires only if the reply (or its relay) is truly
    /// lost, turning the move into an ordinary bounded retry.
    fn arm_adopted_watchdogs(&self, world: &mut World, instance: &str) {
        let (node, executing) = {
            let coordinator = self.inner.borrow();
            let Some(rt) = coordinator.instances.get(instance) else {
                return;
            };
            let (plan, keys) = (rt.plan.clone(), rt.keys.clone());
            let executing: Vec<(String, u32, u32, SimDuration)> = (0..plan.tasks.len() as TaskId)
                .filter_map(|id| {
                    let cb = coordinator.read_cb_id(&keys, id)?;
                    matches!(cb.state, CbState::Executing { .. }).then(|| {
                        let task = plan.task(id);
                        let hints = ImplHints::from_map(&plan.implementation_map(task));
                        // Same timeout math as a fresh dispatch —
                        // including the observed-duration extension for
                        // the (bindings-resolved) code, so a relay
                        // delayed past a lying short hint still lands
                        // before the adopted watchdog fires.
                        let script_code = plan.code(task).unwrap_or("").to_string();
                        let code = rt
                            .bindings
                            .get(&script_code)
                            .cloned()
                            .unwrap_or(script_code);
                        let timeout = coordinator.costs.watchdog_timeout(
                            &code,
                            &hints,
                            coordinator.config.dispatch_timeout,
                        );
                        (cb.path.clone(), cb.incarnation, cb.attempt, timeout)
                    })
                })
                .collect();
            (coordinator.node, executing)
        };
        for (path, incarnation, attempt, timeout) in executing {
            let handle = self.clone();
            let instance_owned = instance.to_string();
            let path_owned = path.clone();
            let watchdog = world.schedule_node_after(node, timeout, move |world| {
                handle.on_watchdog(world, &instance_owned, &path_owned, incarnation, attempt);
            });
            let stale = {
                let mut coordinator = self.inner.borrow_mut();
                coordinator.instances.get_mut(instance).and_then(|rt| {
                    rt.in_flight.insert(path.clone());
                    rt.watchdogs.insert(path, watchdog)
                })
            };
            if let Some(stale) = stale {
                world.cancel(stale);
            }
        }
    }

    /// A restarted destination asking what happened to an in-doubt
    /// move (source side). The decision record is durable before any
    /// destination learns of a commit, so an unknown transaction means
    /// abort — presumed abort.
    fn on_handoff_query(&self, world: &mut World, from: NodeId, tx: TxId) {
        let (node, committed) = {
            let coordinator = self.inner.borrow();
            (
                coordinator.node,
                coordinator.mgr.coordinator_decision(tx).unwrap_or(false),
            )
        };
        let verdict = EngineMsg::HandoffVerdict {
            tx_node: tx.node(),
            tx_seq: tx.seq(),
            committed,
        };
        world.send(node, from, flowscript_codec::to_bytes(&verdict));
    }

    /// The source's durable decision arriving for a stage this shard
    /// prepared (destination side).
    fn on_handoff_verdict(&self, world: &mut World, tx: TxId, committed: bool) {
        let _ = self.handoff_apply(world, tx, committed);
    }

    /// The shard map's current epoch on this coordinator.
    pub fn shard_epoch(&self) -> u64 {
        self.inner.borrow().shard.epoch()
    }

    /// Replaces this coordinator's shard map — the final flip of a
    /// rebalance, after every moved instance committed. Requests for
    /// instances the new map assigns elsewhere forward from now on.
    pub fn set_shard_map(&self, map: ShardMap) {
        let mut coordinator = self.inner.borrow_mut();
        coordinator.shard = map;
        // The new map is authoritative: relay tombstones from the
        // moves that led to this flip are now redundant.
        coordinator.moved.clear();
    }

    /// [`Self::set_shard_map`] for a coordinator that stays behind as a
    /// pure relay (a drained shard retired from the map, or any node
    /// whose relay table may reference departed peers). Instead of
    /// clearing the relay table, every entry pointing at a node the new
    /// map no longer carries is re-pointed at the new map's owner — so
    /// a late executor report forwards straight to the adopter instead
    /// of bouncing off a dead address and burning `forward_loops` hops.
    pub fn set_shard_map_relay(&self, map: ShardMap) {
        let mut coordinator = self.inner.borrow_mut();
        let moved = std::mem::take(&mut coordinator.moved);
        for (instance, dest) in moved {
            let dest = if map.nodes().contains(&dest) {
                dest
            } else {
                map.node_of(&instance)
            };
            coordinator.moved.insert(instance, dest);
        }
        coordinator.shard = map;
    }

    /// Records one committed move's instance-unavailability window in
    /// the `coord.handoff_pause_ns` histogram (measured wall-clock by
    /// the rebalance driver, on the source shard).
    pub fn note_handoff_pause(&self, ns: u64) {
        self.inner.borrow().metrics.handoff_pause_ns.record(ns);
    }

    /// Records one drain round's instance-unavailability window in the
    /// `coord.drain_pause_ns` histogram (measured wall-clock by the
    /// drain driver, on the departing shard — the whole batch is
    /// unavailable for the round, so the round IS the per-instance
    /// pause bound).
    pub fn note_drain_pause(&self, ns: u64) {
        self.inner.borrow().metrics.drain_pause_ns.record(ns);
    }

    /// Records a fleet-level trace event (drain begin/end) against
    /// this shard, labeled with the shard's node name rather than an
    /// instance.
    pub(crate) fn record_system_event(&self, now_ns: u64, label: &str, kind: ObsEventKind) {
        self.inner
            .borrow_mut()
            .record_event(now_ns, label, None, 0, kind);
    }

    // -----------------------------------------------------------------
    // Instance lifecycle.
    // -----------------------------------------------------------------

    /// Client request: start an instance of a repository script. Fetches
    /// the script from the repository, then compiles and launches.
    #[allow(clippy::too_many_arguments)]
    fn on_start_instance(
        &self,
        world: &mut World,
        token: ReplyToken,
        instance: String,
        script: String,
        version: Option<u32>,
        set: String,
        inputs: BTreeMap<String, ObjectVal>,
    ) {
        let (node, repo) = {
            let coordinator = self.inner.borrow();
            (coordinator.node, coordinator.repo)
        };
        if self.inner.borrow().instances.contains_key(&instance)
            || self.inner.borrow().read_meta(&instance).is_some()
        {
            let reply = EngineMsg::Ack {
                result: Err(format!("instance `{instance}` already exists")),
            };
            world.rpc_reply_to(token, flowscript_codec::to_bytes(&reply));
            return;
        }
        let get = EngineMsg::RepoGet {
            name: script.clone(),
            version,
        };
        // The start occupies an admission slot for the whole repository
        // round-trip — otherwise a burst of starts all admitted before
        // any instance materializes would blow straight past the cap.
        self.inner.borrow_mut().starting += 1;
        let handle = self.clone();
        world.rpc_call(
            node,
            repo,
            flowscript_codec::to_bytes(&get),
            SimDuration::from_secs(5),
            move |world, reply| {
                {
                    let mut coordinator = handle.inner.borrow_mut();
                    coordinator.starting = coordinator.starting.saturating_sub(1);
                }
                let result = match reply {
                    Err(err) => Err(format!("repository unreachable: {err}")),
                    Ok(bytes) => match flowscript_codec::from_bytes::<EngineMsg>(&bytes) {
                        Ok(EngineMsg::RepoReply {
                            result: Ok(stored_version),
                            source,
                            root,
                            plan,
                        }) => {
                            // Use the repository's cached plan when it
                            // decodes AND survives structural +
                            // fingerprint validation (a corrupted plan
                            // must fall back to local lowering, not
                            // panic mid-evaluate).
                            let served = (!plan.is_empty())
                                .then(|| handle.inner.borrow_mut().plan_cache.validated(&plan))
                                .flatten();
                            handle
                                .start_instance_full(
                                    world,
                                    &instance,
                                    &script,
                                    &source,
                                    &root,
                                    &set,
                                    inputs.clone(),
                                    served,
                                    Some(stored_version),
                                )
                                .map_err(|e| e.to_string())
                        }
                        Ok(EngineMsg::RepoReply {
                            result: Err(err), ..
                        }) => Err(err),
                        _ => Err("malformed repository reply".to_string()),
                    },
                };
                let reply = EngineMsg::Ack { result };
                world.rpc_reply_to(token, flowscript_codec::to_bytes(&reply));
                // A failed start frees its reserved slot; a successful
                // one may still have room under the cap. Either way the
                // queue head gets another look.
                handle.pump(world);
            },
        );
    }

    /// Compiles and launches an instance (also used directly by tests).
    ///
    /// # Errors
    ///
    /// Invalid script, bad inputs or storage failure.
    #[allow(clippy::too_many_arguments)]
    pub fn start_instance(
        &self,
        world: &mut World,
        instance: &str,
        script_name: &str,
        source: &str,
        root: &str,
        set: &str,
        inputs: BTreeMap<String, ObjectVal>,
    ) -> Result<(), EngineError> {
        self.start_instance_full(
            world,
            instance,
            script_name,
            source,
            root,
            set,
            inputs,
            None,
            None,
        )
    }

    /// [`CoordHandle::start_instance`], optionally reusing a plan the
    /// repository already compiled for this script version.
    #[allow(clippy::too_many_arguments)]
    fn start_instance_full(
        &self,
        world: &mut World,
        instance: &str,
        script_name: &str,
        source: &str,
        root: &str,
        set: &str,
        inputs: BTreeMap<String, ObjectVal>,
        served_plan: Option<Rc<Plan>>,
        version: Option<u32>,
    ) -> Result<(), EngineError> {
        // Compile-once, execute-many: a validated served plan skips the
        // whole front end here. The hierarchical schema is materialized
        // lazily (only reconfiguration needs it).
        let (plan, schema) = match served_plan {
            Some(plan) => (plan, None),
            None => {
                let schema = schema::compile_source(source, root)?;
                let plan = Rc::new(Plan::lower(&schema));
                (plan, Some(Rc::new(schema)))
            }
        };
        // Validate the chosen input set against the root task class.
        let root_class = plan
            .classes
            .get(plan.root().class as usize)
            .ok_or_else(|| EngineError::InvalidScript("root class missing".into()))?;
        let set_info = plan.class_set(root_class, set).ok_or_else(|| {
            EngineError::BadInputs(format!(
                "taskclass `{}` has no input set `{set}`",
                plan.str(root_class.name)
            ))
        })?;
        for object in &plan.class_objects[set_info.objects.as_range()] {
            let (name, class) = (plan.str(object.name), plan.str(object.class));
            match inputs.get(name) {
                None => {
                    return Err(EngineError::BadInputs(format!(
                        "missing input object `{name}`"
                    )))
                }
                Some(value) if value.class != class => {
                    return Err(EngineError::BadInputs(format!(
                        "input `{name}` has class `{}`, expected `{class}`",
                        value.class
                    )))
                }
                Some(_) => {}
            }
        }
        let root_path = plan.str(plan.root().path).to_string();

        let mut coordinator = self.inner.borrow_mut();
        if coordinator.instances.contains_key(instance) {
            return Err(EngineError::DuplicateInstance(instance.to_string()));
        }
        // Allocate the dense instance id from the persistent sequence.
        let instance_id: u32 = coordinator
            .mgr
            .read_committed(&instance_seq_uid())?
            .unwrap_or(0);
        let keys = InstanceKeys::build(&plan, instance, instance_id);
        let root_in = keys
            .in_key(&plan, 0, set)
            .ok_or_else(|| EngineError::BadInputs(format!("unmapped input set `{set}`")))?;
        let meta = InstanceMeta {
            script: script_name.to_string(),
            source: source.to_string(),
            root: root.to_string(),
            set: set.to_string(),
            inputs: inputs.clone(),
            status: InstanceStatus::Running,
            reconfig_count: 0,
            instance_id,
            version,
            plan_fingerprint: plan.fingerprint,
        };
        let action = coordinator.mgr.begin();
        coordinator
            .mgr
            .write(&action, &instance_seq_uid(), &(instance_id + 1))?;
        coordinator.mgr.write(&action, keys.meta(), &meta)?;
        // Persist the compiled plan once per fingerprint so crash
        // recovery decodes it instead of recompiling from source.
        if !coordinator.mgr.exists(&plan_uid(plan.fingerprint)) {
            coordinator
                .mgr
                .write(&action, &plan_uid(plan.fingerprint), plan.as_ref())?;
        }
        // Root control block starts Active with the supplied inputs bound.
        let mut root_cb = TaskCb::new(root_path.clone());
        root_cb.transition(CbState::Active {
            set: set.to_string(),
        });
        coordinator.mgr.write(&action, keys.cb(0), &root_cb)?;
        // The root's input binding goes through the fact layout like
        // every other fact, so root-input fallbacks probe per object.
        let whole = coordinator.config.whole_record_facts;
        facts::write_fact_map(
            &mut coordinator.mgr,
            &action,
            &plan,
            root_in,
            &inputs,
            whole,
        )?;
        // Every descendant starts Waiting — the plan's DFS order makes
        // this one flat scan instead of a scope-tree recursion.
        for (id, task) in plan.tasks.iter().enumerate().skip(1) {
            let path = plan.str(task.path);
            coordinator
                .mgr
                .write(&action, keys.cb(id as TaskId), &TaskCb::new(path))?;
        }
        coordinator.commit(action)?;
        let task_count = plan.tasks.len();
        coordinator.instances.insert(
            instance.to_string(),
            InstanceRt {
                schema,
                plan,
                keys: Rc::new(keys),
                bindings: BTreeMap::new(),
                watchdogs: BTreeMap::new(),
                in_flight: BTreeSet::new(),
                dispatched_to: BTreeMap::new(),
                retry_from: BTreeMap::new(),
                // Root Active + every descendant Waiting.
                nonterminal: task_count,
                terminal: false,
            },
        );
        // The admission cap counts live (Running) instances; this one
        // just became live.
        coordinator.live_instances += 1;
        coordinator.record_event(
            world.now().as_nanos(),
            instance,
            Some(&root_path),
            0,
            ObsEventKind::InstanceStart,
        );
        drop(coordinator);
        self.evaluate(world, instance);
        Ok(())
    }

    /// Instance status (monitoring API).
    pub fn status(&self, instance: &str) -> Result<InstanceStatus, EngineError> {
        self.inner
            .borrow()
            .read_meta(instance)
            .map(|meta| meta.status)
            .ok_or_else(|| EngineError::UnknownInstance(instance.to_string()))
    }

    /// All task states of an instance, keyed by path. Live instances
    /// resolve through the plan's interned uid table (point reads); the
    /// uid prefix scan survives only for instances not resident in
    /// memory (e.g. monitoring a crashed-but-unrecovered store).
    pub fn task_states(&self, instance: &str) -> BTreeMap<String, CbState> {
        let coordinator = self.inner.borrow();
        if let Some(rt) = coordinator.instances.get(instance) {
            return (0..rt.plan.tasks.len() as TaskId)
                .filter_map(|id| {
                    let cb = coordinator.read_cb_id(&rt.keys, id)?;
                    Some((cb.path.clone(), cb.state))
                })
                .collect();
        }
        let prefix = format!("inst/{instance}/cb/");
        coordinator
            .mgr
            .uids_with_prefix(&prefix)
            .into_iter()
            .filter_map(|uid| {
                let cb: TaskCb = coordinator.mgr.read_committed(&uid).ok().flatten()?;
                Some((cb.path.clone(), cb.state))
            })
            .collect()
    }

    /// A published output fact (monitoring; e.g. root marks).
    pub fn output_fact(
        &self,
        instance: &str,
        path: &str,
        output: &str,
    ) -> Option<BTreeMap<String, ObjectVal>> {
        let coordinator = self.inner.borrow();
        let rt = coordinator.instances.get(instance)?;
        let task = rt.plan.task_by_path(path)?;
        let key = rt.keys.out_key(&rt.plan, task, output)?;
        facts::read_fact_map(
            &coordinator.mgr,
            &rt.plan,
            key,
            coordinator.config.whole_record_facts,
        )
        .ok()
        .flatten()
    }

    /// Names of instances known to the coordinator.
    pub fn instance_names(&self) -> Vec<String> {
        self.inner.borrow().instances.keys().cloned().collect()
    }

    // -----------------------------------------------------------------
    // Evaluation: the event-driven commit pipeline.
    // -----------------------------------------------------------------

    /// The instance's plan and interned key table.
    fn instance_ctx(&self, instance: &str) -> Option<(Rc<Plan>, Rc<InstanceKeys>)> {
        let coordinator = self.inner.borrow();
        let rt = coordinator.instances.get(instance)?;
        Some((rt.plan.clone(), rt.keys.clone()))
    }

    /// Full re-evaluation: seeds every task and drains. Survives for
    /// instance start, crash recovery and reconfiguration re-entry —
    /// the commit paths use [`CoordHandle::evaluate_from`].
    pub fn evaluate(&self, world: &mut World, instance: &str) {
        let Some((plan, keys)) = self.instance_ctx(instance) else {
            return;
        };
        let mut worklist = Worklist::new();
        worklist.seed_all(&plan);
        self.drain(world, instance, &plan, &keys, worklist);
    }

    /// Event-driven re-evaluation: seeds only the consumers of the
    /// tasks whose facts just committed (reverse dependency +
    /// notification edges) and drains. With
    /// [`EngineConfig::full_rescan`] set, falls back to the full-scan
    /// oracle — the equivalence tests assert both produce identical
    /// dispatch traces.
    pub fn evaluate_from(&self, world: &mut World, instance: &str, changed: &[TaskId]) {
        let Some((plan, keys)) = self.instance_ctx(instance) else {
            return;
        };
        let mut worklist = Worklist::new();
        if self.inner.borrow().config.full_rescan {
            worklist.seed_all(&plan);
        } else {
            for &task in changed {
                worklist.seed_commit(&plan, task);
            }
        }
        self.drain(world, instance, &plan, &keys, worklist);
    }

    /// Pops the worklist to quiescence: all startability re-checks
    /// first (highest declared priority, ties by ascending id —
    /// declaration order), then scope outputs
    /// deepest-first. Each progress step commits one atomic action and
    /// seeds the consumers of whatever it published.
    fn drain(
        &self,
        world: &mut World,
        instance: &str,
        plan: &Rc<Plan>,
        keys: &Rc<InstanceKeys>,
        worklist: Worklist,
    ) {
        // Under batching, the whole drain commits as one WAL group:
        // every action the cascade below commits buffers into a single
        // frame flushed at the outermost `end_group` (nested drains —
        // e.g. a fail_task inside a scope cascade — fold into the
        // enclosing group via the depth counter). The unbatched arm
        // takes today's one-frame-per-commit path untouched.
        let group = {
            let mut coordinator = self.inner.borrow_mut();
            let group = coordinator.config.commit_batch.enabled();
            if group {
                coordinator.mgr.begin_group();
            }
            group
        };
        self.drain_inner(world, instance, plan, keys, worklist);
        if group {
            let mut coordinator = self.inner.borrow_mut();
            // Flush failures surface on the next commit's storage ops;
            // the drain itself has no error channel.
            let _ = coordinator.mgr.end_group();
        }
        let _ = self.inner.borrow_mut().maybe_checkpoint();
    }

    fn drain_inner(
        &self,
        world: &mut World,
        instance: &str,
        plan: &Rc<Plan>,
        keys: &Rc<InstanceKeys>,
        mut worklist: Worklist,
    ) {
        let mut steps: u64 = 0;
        loop {
            {
                let coordinator = self.inner.borrow();
                let Some(rt) = coordinator.instances.get(instance) else {
                    return;
                };
                // Checked only where the meta decodes: a missing or
                // corrupt one is a storage fault, not a mirror drift.
                #[cfg(debug_assertions)]
                if let Some(meta) = coordinator.read_meta(instance) {
                    assert_eq!(
                        rt.terminal,
                        meta.status.is_terminal(),
                        "status mirror of `{instance}` drifted from its committed meta"
                    );
                }
                if rt.terminal {
                    return;
                }
            }
            if let Some(task) = worklist.pop_start() {
                steps += 1;
                self.inner.borrow().metrics.evaluations.inc();
                self.try_start(world, instance, plan, keys, task, &mut worklist);
                continue;
            }
            if let Some(scope) = worklist.pop_output(plan) {
                steps += 1;
                self.inner.borrow().metrics.evaluations.inc();
                self.check_scope_outputs(world, instance, plan, keys, scope, &mut worklist);
                continue;
            }
            break;
        }
        {
            let coordinator = self.inner.borrow();
            if coordinator.config.observe.metrics() {
                coordinator.metrics.commit_drain_len.record(steps);
            }
        }
        #[cfg(debug_assertions)]
        self.assert_quiescent(instance, plan, keys);
        self.stuck_check(world, instance);
    }

    /// Re-tests one task's input sets and starts it when satisfied
    /// (dispatch for leaves, activation + compound-boundary seeding for
    /// scopes).
    fn try_start(
        &self,
        world: &mut World,
        instance: &str,
        plan: &Plan,
        keys: &InstanceKeys,
        task_id: TaskId,
        worklist: &mut Worklist,
    ) {
        let task = plan.task(task_id);
        let Some(parent) = task.parent else {
            return; // the root never rebinds through the start agenda
        };
        let activation = {
            let coordinator = self.inner.borrow();
            let parent_cb = coordinator.read_cb_id(keys, parent);
            let cb = coordinator.read_cb_id(keys, task_id);
            match (parent_cb, cb) {
                (Some(parent_cb), Some(cb))
                    if matches!(parent_cb.state, CbState::Active { .. })
                        && cb.state == CbState::Waiting
                        && cb.incarnation == parent_cb.scope_inc =>
                {
                    let facts = StoreFacts::new(
                        &coordinator.mgr,
                        keys,
                        coordinator.config.whole_record_facts,
                    );
                    let satisfied = plan_eval::eval_task_inputs(plan, task_id, &facts);
                    match facts.take_fault() {
                        Some(fault) => Err(fault),
                        None => Ok(satisfied),
                    }
                }
                _ => Ok(None),
            }
        };
        let activation = match activation {
            Err(fault) => {
                // A corrupt fact record must not read as "fact absent"
                // and silently mis-evaluate readiness.
                self.fail_instance_storage(world, instance, keys, &fault);
                return;
            }
            Ok(activation) => activation,
        };
        if let Some((set, bound)) = activation {
            if self.activate_task(world, instance, plan, keys, task_id, set, bound) {
                // The binding itself is a committed fact: consumers of
                // this task's input sets re-check, and a fresh compound
                // enables its constituents (the compound boundary).
                worklist.seed_commit(plan, task_id);
                if task.is_scope {
                    worklist.seed_children(plan, task_id);
                }
            }
        }
    }

    /// Fails an instance on a storage/decode fault: the fact store can
    /// no longer answer readiness soundly, so instead of silently
    /// treating the fact as absent the drain parks the instance with
    /// the diagnosable reason (a reconfiguration or administrative
    /// repair can revive it).
    fn fail_instance_storage(
        &self,
        world: &World,
        instance: &str,
        keys: &InstanceKeys,
        fault: &str,
    ) {
        let mut coordinator = self.inner.borrow_mut();
        let Some(mut meta) = coordinator.read_meta(instance) else {
            return;
        };
        if meta.status.is_terminal() {
            return;
        }
        let reason = format!("fact storage fault: {fault}");
        meta.status = InstanceStatus::Stuck {
            reason: reason.clone(),
        };
        let action = coordinator.mgr.begin();
        let ok = coordinator.mgr.write(&action, keys.meta(), &meta).is_ok();
        if ok {
            if coordinator.commit(action).is_ok() {
                coordinator.note_status(instance, &meta.status);
                // A stuck instance stops counting against the
                // admission cap (a revival re-counts it).
                coordinator.live_instances = coordinator.live_instances.saturating_sub(1);
                coordinator.record_event(
                    world.now().as_nanos(),
                    instance,
                    None,
                    0,
                    ObsEventKind::Stuck { reason },
                );
            }
        } else {
            coordinator.mgr.abort(action);
        }
    }

    /// Binds a satisfied input set and starts the task (dispatch for
    /// leaves, activation for compounds). Returns whether progress was
    /// made. The binding arrives slot-aligned from the evaluator, so
    /// the per-object fact write needs no name-keyed map — only a leaf
    /// dispatch materializes one (the executor wire format).
    #[allow(clippy::too_many_arguments)]
    fn activate_task(
        &self,
        world: &mut World,
        instance: &str,
        plan: &Plan,
        keys: &InstanceKeys,
        task_id: TaskId,
        set_id: flowscript_plan::StrId,
        bound: Vec<(flowscript_plan::StrId, ObjectVal)>,
    ) -> bool {
        let task = plan.task(task_id);
        let path = plan.str(task.path);
        let set = plan.str(set_id);
        let Some(in_key) = keys.in_key(plan, task_id, set) else {
            return false;
        };
        let Some(slots) = plan.sets[task.sets.as_range()]
            .iter()
            .find(|s| s.name == set_id)
            .map(|s| s.slots)
        else {
            return false;
        };
        {
            let mut coordinator = self.inner.borrow_mut();
            let Some(mut cb) = coordinator.read_cb_id(keys, task_id) else {
                return false;
            };
            let next = if task.is_scope {
                CbState::Active {
                    set: set.to_string(),
                }
            } else {
                CbState::Executing {
                    set: set.to_string(),
                }
            };
            cb.transition(next);
            let whole = coordinator.config.whole_record_facts;
            let action = coordinator.mgr.begin();
            let write = coordinator
                .mgr
                .write(&action, keys.cb(task_id), &cb)
                .and_then(|_| {
                    facts::write_fact_bound(
                        &mut coordinator.mgr,
                        &action,
                        plan,
                        in_key,
                        slots,
                        &bound,
                        whole,
                    )
                });
            if write.is_err() {
                coordinator.mgr.abort(action);
                return false;
            }
            if coordinator.commit(action).is_err() {
                return false;
            }
        }
        if !task.is_scope {
            let stamped = facts::bound_map(plan, &bound);
            self.dispatch(world, instance, path, 0, stamped, BTreeMap::new());
        }
        true
    }

    /// Re-tests one Active scope's output mappings: at most one
    /// progress step (a mark, a repeat, or a terminal outcome), then
    /// the scope re-queues itself if more may fire — starts seeded by
    /// the step run first, preserving the fixpoint precedence.
    fn check_scope_outputs(
        &self,
        world: &mut World,
        instance: &str,
        plan: &Plan,
        keys: &InstanceKeys,
        scope_id: TaskId,
        worklist: &mut Worklist,
    ) {
        let Some(scope_cb) = self.inner.borrow().read_cb_id(keys, scope_id) else {
            return;
        };
        if !matches!(scope_cb.state, CbState::Active { .. }) {
            return;
        }
        // Marks first (non-terminal), then the first satisfied terminal
        // output (or repeat) — both in declaration order.
        let satisfied = {
            let coordinator = self.inner.borrow();
            let facts = StoreFacts::new(
                &coordinator.mgr,
                keys,
                coordinator.config.whole_record_facts,
            );
            let satisfied = plan_eval::eval_scope_outputs(plan, scope_id, &facts);
            match facts.take_fault() {
                Some(fault) => Err(fault),
                None => Ok(satisfied),
            }
        };
        let satisfied = match satisfied {
            Err(fault) => {
                self.fail_instance_storage(world, instance, keys, &fault);
                return;
            }
            Ok(satisfied) => satisfied,
        };
        for (out_idx, mapped) in &satisfied {
            let output = &plan.outputs[*out_idx];
            if output.kind == OutputKind::Mark
                && !scope_cb.mark_emitted(plan.str(output.name))
                && self
                    .emit_scope_mark(
                        world.now().as_nanos(),
                        instance,
                        plan,
                        keys,
                        scope_id,
                        *out_idx,
                        mapped,
                    )
                    .is_ok()
            {
                worklist.seed_commit(plan, scope_id);
                worklist.push_task(plan, scope_id); // more outputs may fire
                return;
            }
        }
        for (out_idx, mapped) in satisfied {
            match plan.outputs[out_idx].kind {
                OutputKind::Mark => {}
                OutputKind::RepeatOutcome => {
                    self.repeat_scope(
                        world, instance, plan, keys, scope_id, out_idx, mapped, worklist,
                    );
                    return;
                }
                kind @ (OutputKind::Outcome | OutputKind::AbortOutcome) => {
                    self.terminate_scope(
                        world, instance, plan, keys, scope_id, out_idx, kind, mapped,
                    );
                    worklist.seed_commit(plan, scope_id);
                    return;
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Dispatch and executor replies.
    // -----------------------------------------------------------------

    /// Sends a `StartTask` to an executor and arms the watchdog. The
    /// executor is chosen by the load-aware scheduler: `location` pins
    /// are hard constraints (an unsatisfiable pin fails the task with
    /// the diagnosable reason), a retry avoids the node the previous
    /// attempt failed on whenever an alternative is eligible, and the
    /// remainder goes least-loaded.
    fn dispatch(
        &self,
        world: &mut World,
        instance: &str,
        path: &str,
        attempt: u32,
        inputs: BTreeMap<String, ObjectVal>,
        repeat_objects: BTreeMap<String, ObjectVal>,
    ) {
        // Fenced = zombie: nothing dispatches off claimed storage.
        if self.inner.borrow_mut().mgr.probe_fence().is_some() {
            return;
        }
        enum Prepared {
            Send {
                node: NodeId,
                executor: NodeId,
                bytes: Vec<u8>,
                timeout: SimDuration,
                incarnation: u32,
            },
            /// The task cannot run anywhere (unsatisfiable location).
            Unplaceable(String),
        }
        // Gather everything under one borrow, then interact with the
        // world outside it.
        let now_ns = world.now().as_nanos();
        let prepared = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(rt) = coordinator.instances.get(instance) else {
                return;
            };
            let plan = rt.plan.clone();
            let keys = rt.keys.clone();
            let (task_id, cb) = match plan.task_by_path(path) {
                Some(task_id) => match coordinator.read_cb_id(&keys, task_id) {
                    Some(cb) => (task_id, cb),
                    None => {
                        // Only a mid-flight reconfiguration can drop the
                        // control block of a scheduled dispatch.
                        coordinator.metrics.dropped_dispatches.inc();
                        debug_assert!(
                            coordinator.metrics.reconfigs.get() > 0,
                            "dispatch dropped `{path}` of `{instance}`: control block \
                             missing without any reconfiguration"
                        );
                        return;
                    }
                },
                None => {
                    coordinator.metrics.dropped_dispatches.inc();
                    debug_assert!(
                        coordinator.metrics.reconfigs.get() > 0,
                        "dispatch dropped `{path}` of `{instance}`: task missing from \
                         the plan without any reconfiguration"
                    );
                    return;
                }
            };
            let task = plan.task(task_id);
            let CbState::Executing { set } = cb.state.clone() else {
                return; // stale (cancelled/terminated meanwhile): not a drop
            };
            // Run-time binding: per-instance rebinding overrides the
            // script's name. A leaf with no implementation clause has
            // no code to ship — shipping an empty name would bounce off
            // every executor as an unbound implementation and burn the
            // retry budget on an error no retry can fix.
            let script_code = match plan.code(task) {
                Some(code) if !code.is_empty() => code.to_string(),
                _ => {
                    drop(coordinator);
                    self.fail_task(
                        world,
                        instance,
                        path,
                        &format!("missing implementation code for `{path}`"),
                    );
                    return;
                }
            };
            let rt = coordinator.instances.get(instance).expect("checked above");
            let code = rt
                .bindings
                .get(&script_code)
                .cloned()
                .unwrap_or(script_code);
            let implementation = plan.implementation_map(task);
            let hints = ImplHints::from_map(&implementation);
            // Capacity gate: when every eligible executor is at its
            // declared capacity, park instead of piling on. The path
            // stays in `in_flight` (it IS outstanding work — stuck
            // detection and crash recovery must see it) and the
            // committed `Executing` control block makes the park
            // crash-safe: recovery re-dispatches, and re-parks if the
            // fleet is still full. `retry_from` is left in place for
            // the eventual real dispatch.
            if coordinator.sched.all_saturated(&hints) {
                let seq = coordinator.park_seq;
                coordinator.park_seq += 1;
                coordinator.record_event(
                    now_ns,
                    instance,
                    Some(path),
                    attempt,
                    ObsEventKind::Parked {
                        queue_depth: coordinator.parked.len() as u64 + 1,
                    },
                );
                coordinator.parked.insert(
                    (std::cmp::Reverse(hints.priority), seq),
                    ParkedDispatch {
                        instance: instance.to_string(),
                        path: path.to_string(),
                        attempt,
                        inputs,
                        repeat_objects,
                        hints,
                        parked_ns: now_ns,
                    },
                );
                if coordinator.config.observe.metrics() {
                    coordinator
                        .metrics
                        .ready_queue_depth
                        .set(coordinator.parked.len() as i64);
                }
                if let Some(rt) = coordinator.instances.get_mut(instance) {
                    rt.in_flight.insert(path.to_string());
                }
                return;
            }
            // A failed attempt recorded the node it died on; consume it
            // so the retry relocates whenever an alternative exists
            // (service relocation, §3).
            let avoid = coordinator
                .instances
                .get_mut(instance)
                .and_then(|rt| rt.retry_from.remove(path));
            match coordinator.sched.pick(path, attempt, &hints, avoid) {
                Err(err) => Prepared::Unplaceable(err.to_string()),
                Ok(placement) => {
                    if placement.no_alternative {
                        coordinator.metrics.no_alternative_retries.inc();
                    }
                    if coordinator.config.observe.metrics() {
                        coordinator.metrics.sched_pick_load.record(placement.load);
                    }
                    // Watchdog: base timeout extended by the declared
                    // duration — or by the observed estimate when that
                    // is *longer* (a lying short hint must not time out
                    // healthy work) — capped by the declared deadline.
                    let timeout = coordinator.costs.watchdog_timeout(
                        &code,
                        &hints,
                        coordinator.config.dispatch_timeout,
                    );
                    let msg = EngineMsg::Start(StartTask {
                        instance: instance.to_string(),
                        path: path.to_string(),
                        incarnation: cb.incarnation,
                        attempt,
                        code: code.clone(),
                        implementation,
                        set,
                        inputs,
                        repeat_objects,
                        epoch: coordinator.shard.epoch(),
                    });
                    coordinator.metrics.dispatches.inc();
                    coordinator.record_event(
                        now_ns,
                        instance,
                        Some(path),
                        attempt,
                        ObsEventKind::Dispatch {
                            executor: placement.node.index() as u32,
                        },
                    );
                    if coordinator.config.record_dispatches {
                        coordinator.dispatch_log.push(DispatchRecord {
                            instance: instance.to_string(),
                            path: path.to_string(),
                            attempt,
                            executor: placement.node,
                        });
                    }
                    // Count the load now — at the observed estimate
                    // when the cost model has one, else the declared
                    // remaining-work cost — releasing any stale entry a
                    // defensive re-dispatch might have left behind.
                    let cost = coordinator.costs.load_cost(&code, &hints);
                    let _ = coordinator.release_dispatch(instance, path, 0);
                    coordinator.sched.note_dispatch(placement.node, cost);
                    if let Some(rt) = coordinator.instances.get_mut(instance) {
                        rt.dispatched_to.insert(
                            task_id,
                            DispatchedTask {
                                node: placement.node,
                                cost,
                                sent_ns: now_ns,
                                code,
                            },
                        );
                    }
                    Prepared::Send {
                        node: coordinator.node,
                        executor: placement.node,
                        bytes: flowscript_codec::to_bytes(&msg),
                        timeout,
                        incarnation: cb.incarnation,
                    }
                }
            }
        };
        match prepared {
            Prepared::Unplaceable(reason) => {
                // No amount of retrying places an unsatisfiable pin:
                // fail the task immediately with the diagnosable reason.
                self.fail_task(world, instance, path, &reason);
            }
            Prepared::Send {
                node,
                executor,
                bytes,
                timeout,
                incarnation,
            } => {
                let handle = self.clone();
                let instance_owned = instance.to_string();
                let path_owned = path.to_string();
                let watchdog = world.schedule_node_after(node, timeout, move |world| {
                    handle.on_watchdog(world, &instance_owned, &path_owned, incarnation, attempt);
                });
                let stale = {
                    let mut coordinator = self.inner.borrow_mut();
                    coordinator.instances.get_mut(instance).and_then(|rt| {
                        rt.in_flight.insert(path.to_string());
                        rt.watchdogs.insert(path.to_string(), watchdog)
                    })
                };
                if let Some(stale) = stale {
                    world.cancel(stale);
                }
                world.send(node, executor, bytes);
            }
        }
    }

    fn on_task_done(&self, world: &mut World, msg: TaskDone) {
        let Some((plan, keys)) = self.instance_ctx(&msg.instance) else {
            return;
        };
        let Some(task_id) = plan.task_by_path(&msg.path) else {
            return;
        };
        let current = self.inner.borrow().read_cb_id(&keys, task_id);
        let Some(cb) = current else {
            return;
        };
        let CbState::Executing { .. } = cb.state else {
            return; // stale (cancelled/terminated meanwhile)
        };
        if cb.incarnation != msg.incarnation || cb.attempt != msg.attempt {
            return; // stale attempt or previous scope incarnation
        }
        let released = self.clear_watch(world, &msg.instance, &msg.path);

        match msg.result.clone() {
            TaskResult::ExecError { reason } => {
                // Remember the node the attempt died on so the retry
                // relocates whenever an alternative is eligible.
                if let Some(node) = released {
                    let mut coordinator = self.inner.borrow_mut();
                    if let Some(rt) = coordinator.instances.get_mut(&msg.instance) {
                        rt.retry_from.insert(msg.path.clone(), node);
                    }
                }
                self.retry_or_fail(world, &msg.instance, &msg.path, &reason);
            }
            TaskResult::Output {
                name,
                objects,
                redo_after,
            } => {
                let class = plan.class_of(plan.task(task_id));
                let kind = plan.class_output(class, &name).map(|o| o.kind);
                let Some(kind) = kind else {
                    self.fail_task(
                        world,
                        &msg.instance,
                        &msg.path,
                        &format!("implementation produced undeclared output `{name}`"),
                    );
                    return;
                };
                match kind {
                    OutputKind::Mark => {
                        self.fail_task(
                            world,
                            &msg.instance,
                            &msg.path,
                            &format!("mark `{name}` cannot be a completion"),
                        );
                    }
                    OutputKind::Outcome | OutputKind::AbortOutcome => {
                        let Some(out_key) = keys.out_key(&plan, task_id, &name) else {
                            return;
                        };
                        let stamped: BTreeMap<String, ObjectVal> = objects
                            .into_iter()
                            .map(|(k, v)| (k, v.produced_by(msg.path.clone())))
                            .collect();
                        let committed = {
                            let mut coordinator = self.inner.borrow_mut();
                            let mut cb = cb.clone();
                            cb.transition(if kind == OutputKind::Outcome {
                                CbState::Done {
                                    outcome: name.clone(),
                                }
                            } else {
                                CbState::Aborted {
                                    outcome: name.clone(),
                                }
                            });
                            let whole = coordinator.config.whole_record_facts;
                            let action = coordinator.mgr.begin();
                            let write = coordinator
                                .mgr
                                .write(&action, keys.cb(task_id), &cb)
                                .and_then(|_| {
                                    facts::write_fact_map(
                                        &mut coordinator.mgr,
                                        &action,
                                        &plan,
                                        out_key,
                                        &stamped,
                                        whole,
                                    )
                                });
                            match write {
                                Ok(()) => coordinator.commit(action).is_ok(),
                                Err(_) => {
                                    coordinator.mgr.abort(action);
                                    false
                                }
                            }
                        };
                        if committed {
                            {
                                let mut coordinator = self.inner.borrow_mut();
                                coordinator.note_terminals(&msg.instance, 1);
                                let what = if kind == OutputKind::Outcome {
                                    format!("done `{name}`")
                                } else {
                                    format!("aborted `{name}`")
                                };
                                coordinator.record_event(
                                    world.now().as_nanos(),
                                    &msg.instance,
                                    Some(&msg.path),
                                    msg.attempt,
                                    coordinator.commit_event(what),
                                );
                            }
                            self.evaluate_from(world, &msg.instance, &[task_id]);
                        }
                    }
                    OutputKind::RepeatOutcome => {
                        self.leaf_repeat(world, &msg, task_id, &name, redo_after);
                    }
                }
            }
        }
    }

    /// A leaf took a repeat outcome: publish the (private) repeat fact and
    /// re-execute after the requested delay (Fig. 3's `Repeat1`).
    fn leaf_repeat(
        &self,
        world: &mut World,
        msg: &TaskDone,
        task_id: TaskId,
        name: &str,
        redo_after: SimDuration,
    ) {
        let Some((plan, keys)) = self.instance_ctx(&msg.instance) else {
            return;
        };
        let TaskResult::Output { objects, .. } = &msg.result else {
            return;
        };
        let Some(out_key) = keys.out_key(&plan, task_id, name) else {
            return;
        };
        let over_limit = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(mut cb) = coordinator.read_cb_id(&keys, task_id) else {
                return;
            };
            cb.repeats += 1;
            let over = cb.repeats > coordinator.config.max_repeats;
            let whole = coordinator.config.whole_record_facts;
            let action = coordinator.mgr.begin();
            if over {
                cb.transition(CbState::Failed {
                    reason: format!("repeat limit exceeded via `{name}`"),
                });
            } else {
                cb.attempt += 1;
            }
            let write = coordinator
                .mgr
                .write(&action, keys.cb(task_id), &cb)
                .and_then(|_| {
                    facts::write_fact_map(
                        &mut coordinator.mgr,
                        &action,
                        &plan,
                        out_key,
                        objects,
                        whole,
                    )
                });
            if write.is_ok() {
                // Counters move only on commit success: an aborted
                // action must not register as a repeat.
                if coordinator.commit(action).is_ok() {
                    coordinator.metrics.repeats.inc();
                    coordinator.record_event(
                        world.now().as_nanos(),
                        &msg.instance,
                        Some(&msg.path),
                        msg.attempt,
                        coordinator.commit_event(format!("repeat `{name}`")),
                    );
                    if over {
                        coordinator.note_terminals(&msg.instance, 1);
                    }
                }
            } else {
                coordinator.mgr.abort(action);
            }
            over
        };
        if over_limit {
            self.remove_in_flight(&msg.instance, &msg.path);
            self.evaluate_from(world, &msg.instance, &[task_id]);
            return;
        }
        // Re-dispatch with the repeat objects after the requested delay.
        let inputs = {
            let coordinator = self.inner.borrow();
            let Some(cb) = coordinator.read_cb_id(&keys, task_id) else {
                return;
            };
            let CbState::Executing { set } = &cb.state else {
                return;
            };
            keys.in_key(&plan, task_id, set)
                .and_then(|key| {
                    facts::read_fact_map(
                        &coordinator.mgr,
                        &plan,
                        key,
                        coordinator.config.whole_record_facts,
                    )
                    .ok()
                    .flatten()
                })
                .unwrap_or_default()
        };
        {
            let mut coordinator = self.inner.borrow_mut();
            if let Some(rt) = coordinator.instances.get_mut(&msg.instance) {
                rt.in_flight.insert(msg.path.clone());
            }
        }
        let handle = self.clone();
        let node = self.inner.borrow().node;
        let instance = msg.instance.clone();
        let path = msg.path.clone();
        let attempt = msg.attempt + 1;
        let repeat_objects = objects.clone();
        world.schedule_node_after(node, redo_after, move |world| {
            handle.dispatch(world, &instance, &path, attempt, inputs, repeat_objects);
        });
        // The repeat fact is committed now — consumers drawing on it
        // (e.g. `AnyOf` alternatives) re-check immediately.
        self.evaluate_from(world, &msg.instance, &[task_id]);
    }

    fn on_mark(&self, world: &mut World, msg: MarkMsg) {
        let Some((plan, keys)) = self.instance_ctx(&msg.instance) else {
            return;
        };
        let Some(task_id) = plan.task_by_path(&msg.path) else {
            return;
        };
        let committed = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(mut cb) = coordinator.read_cb_id(&keys, task_id) else {
                return;
            };
            if !matches!(cb.state, CbState::Executing { .. })
                || cb.incarnation != msg.incarnation
                || cb.attempt != msg.attempt
                || cb.mark_emitted(&msg.mark)
            {
                return;
            }
            // The mark must be declared by the class.
            let class = plan.class_of(plan.task(task_id));
            let declared = plan
                .class_output(class, &msg.mark)
                .is_some_and(|output| output.kind == OutputKind::Mark);
            if !declared {
                return;
            }
            let Some(out_key) = keys.out_key(&plan, task_id, &msg.mark) else {
                return;
            };
            cb.marks_emitted.push(msg.mark.clone());
            let stamped: BTreeMap<String, ObjectVal> = msg
                .objects
                .clone()
                .into_iter()
                .map(|(k, v)| (k, v.produced_by(msg.path.clone())))
                .collect();
            let whole = coordinator.config.whole_record_facts;
            let action = coordinator.mgr.begin();
            let write = coordinator
                .mgr
                .write(&action, keys.cb(task_id), &cb)
                .and_then(|_| {
                    facts::write_fact_map(
                        &mut coordinator.mgr,
                        &action,
                        &plan,
                        out_key,
                        &stamped,
                        whole,
                    )
                });
            match write {
                // The mark counts only once its action commits.
                Ok(()) => {
                    let ok = coordinator.commit(action).is_ok();
                    if ok {
                        coordinator.metrics.marks.inc();
                        coordinator.record_event(
                            world.now().as_nanos(),
                            &msg.instance,
                            Some(&msg.path),
                            msg.attempt,
                            coordinator.commit_event(format!("mark `{}`", msg.mark)),
                        );
                    }
                    ok
                }
                Err(_) => {
                    coordinator.mgr.abort(action);
                    false
                }
            }
        };
        if committed {
            self.evaluate_from(world, &msg.instance, &[task_id]);
        }
    }

    fn on_watchdog(
        &self,
        world: &mut World,
        instance: &str,
        path: &str,
        incarnation: u32,
        attempt: u32,
    ) {
        // Fenced = zombie: no retry may be driven off claimed storage.
        if self.inner.borrow_mut().mgr.probe_fence().is_some() {
            return;
        }
        // The completion may already be sitting in the batch window:
        // its transition just hasn't committed yet, and the watchdog
        // must not turn a report-in-flight into a spurious retry.
        {
            let coordinator = self.inner.borrow();
            let buffered = coordinator.pending.iter().any(|event| match event {
                PendingEvent::Done(msg) => {
                    msg.instance == instance
                        && msg.path == path
                        && msg.incarnation == incarnation
                        && msg.attempt == attempt
                }
                PendingEvent::Mark(_) => false,
            });
            if buffered {
                return;
            }
        }
        let Some(cb) = self.inner.borrow().read_cb(instance, path) else {
            return;
        };
        if !matches!(cb.state, CbState::Executing { .. })
            || cb.incarnation != incarnation
            || cb.attempt != attempt
        {
            return;
        }
        // The executor is presumed lost: stop counting the dispatch
        // against it and remember the node so the retry relocates.
        {
            let mut coordinator = self.inner.borrow_mut();
            if let Some(node) = coordinator.release_dispatch(instance, path, 0) {
                if let Some(rt) = coordinator.instances.get_mut(instance) {
                    rt.retry_from.insert(path.to_string(), node);
                }
            }
        }
        self.retry_or_fail(world, instance, path, "dispatch timed out");
        // The timed-out dispatch released its executor load (and a
        // failed task may have terminated its instance): revisit the
        // ready and admission queues.
        self.pump(world);
    }

    /// Bounded automatic retry of a system-level failure.
    fn retry_or_fail(&self, world: &mut World, instance: &str, path: &str, reason: &str) {
        let decision = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(mut cb) = coordinator.read_cb(instance, path) else {
                return;
            };
            if cb.attempt < coordinator.config.max_retries {
                cb.attempt += 1;
                let backoff = coordinator
                    .config
                    .retry_backoff
                    .saturating_mul(1 << (cb.attempt.min(16) - 1));
                let action = coordinator.mgr.begin();
                let ok = coordinator
                    .mgr
                    .write(&action, &cb_uid(instance, path), &cb)
                    .is_ok()
                    && coordinator.commit(action).is_ok();
                if ok {
                    // The retry counts only once its bumped attempt
                    // committed.
                    coordinator.metrics.retries.inc();
                    coordinator.record_event(
                        world.now().as_nanos(),
                        instance,
                        Some(path),
                        cb.attempt,
                        ObsEventKind::Retry {
                            reason: reason.to_string(),
                        },
                    );
                    Some((cb.attempt, backoff))
                } else {
                    None
                }
            } else {
                None
            }
        };
        match decision {
            Some((attempt, backoff)) => {
                {
                    let mut coordinator = self.inner.borrow_mut();
                    if let Some(rt) = coordinator.instances.get_mut(instance) {
                        rt.in_flight.insert(path.to_string());
                    }
                }
                let handle = self.clone();
                let node = self.inner.borrow().node;
                let instance_owned = instance.to_string();
                let path_owned = path.to_string();
                world.schedule_node_after(node, backoff, move |world| {
                    handle.redispatch(world, &instance_owned, &path_owned, attempt);
                });
            }
            None => {
                self.fail_task(world, instance, path, reason);
            }
        }
    }

    /// Re-dispatches from persisted facts (also the recovery path).
    fn redispatch(&self, world: &mut World, instance: &str, path: &str, attempt: u32) {
        let gathered = {
            let coordinator = self.inner.borrow();
            let Some(rt) = coordinator.instances.get(instance) else {
                return;
            };
            let (plan, keys) = (rt.plan.clone(), rt.keys.clone());
            let Some(task_id) = plan.task_by_path(path) else {
                return;
            };
            let Some(cb) = coordinator.read_cb_id(&keys, task_id) else {
                return;
            };
            let CbState::Executing { set } = &cb.state else {
                return;
            };
            if cb.attempt != attempt {
                return;
            }
            let whole = coordinator.config.whole_record_facts;
            let inputs = keys
                .in_key(&plan, task_id, set)
                .and_then(|key| {
                    facts::read_fact_map(&coordinator.mgr, &plan, key, whole)
                        .ok()
                        .flatten()
                })
                .unwrap_or_default();
            // Repeat objects (if the task had repeated) are re-readable
            // from its repeat-outcome facts.
            let mut repeat_objects = BTreeMap::new();
            let class = plan.class_of(plan.task(task_id));
            for (ordinal, output) in plan.class_outputs[class.outputs.as_range()]
                .iter()
                .enumerate()
            {
                if output.kind == OutputKind::RepeatOutcome {
                    let key =
                        flowscript_tx::FactKey::output(keys.instance_id, task_id, ordinal as u32);
                    if let Ok(Some(objects)) =
                        facts::read_fact_map(&coordinator.mgr, &plan, key, whole)
                    {
                        repeat_objects.extend(objects);
                    }
                }
            }
            Some((inputs, repeat_objects))
        };
        if let Some((inputs, repeat_objects)) = gathered {
            self.dispatch(world, instance, path, attempt, inputs, repeat_objects);
        }
    }

    /// Marks a task permanently failed (retries exhausted).
    fn fail_task(&self, world: &mut World, instance: &str, path: &str, reason: &str) {
        {
            let mut coordinator = self.inner.borrow_mut();
            // End any outstanding load accounting for the path.
            let _ = coordinator.release_dispatch(instance, path, 0);
            if let Some(rt) = coordinator.instances.get_mut(instance) {
                rt.retry_from.remove(path);
            }
            let Some(mut cb) = coordinator.read_cb(instance, path) else {
                return;
            };
            if cb.state.is_terminal() {
                return;
            }
            cb.transition(CbState::Failed {
                reason: reason.to_string(),
            });
            let action = coordinator.mgr.begin();
            let ok = coordinator
                .mgr
                .write(&action, &cb_uid(instance, path), &cb)
                .is_ok();
            if ok {
                // The failure counts only once its transition committed.
                if coordinator.commit(action).is_ok() {
                    coordinator.metrics.failures.inc();
                    coordinator.record_event(
                        world.now().as_nanos(),
                        instance,
                        Some(path),
                        cb.attempt,
                        coordinator.commit_event(format!("failed: {reason}")),
                    );
                    coordinator.note_terminals(instance, 1);
                }
            } else {
                coordinator.mgr.abort(action);
            }
        }
        self.remove_in_flight(instance, path);
        // A failure publishes no facts: nothing new can become
        // satisfied, but the instance may now be stuck (the drain's
        // debug oracle re-verifies quiescence).
        self.evaluate_from(world, instance, &[]);
    }

    /// Disarms a dispatch's watchdog and releases its load accounting;
    /// returns the executor the dispatch ran on, if one was counted.
    fn clear_watch(&self, world: &mut World, instance: &str, path: &str) -> Option<NodeId> {
        let (watchdog, released) = {
            let mut coordinator = self.inner.borrow_mut();
            let watchdog = coordinator
                .instances
                .get_mut(instance)
                .and_then(|rt| rt.watchdogs.remove(path));
            let released = coordinator.release_dispatch(instance, path, world.now().as_nanos());
            (watchdog, released)
        };
        if let Some(id) = watchdog {
            world.cancel(id);
        }
        self.remove_in_flight(instance, path);
        released
    }

    fn remove_in_flight(&self, instance: &str, path: &str) {
        let mut coordinator = self.inner.borrow_mut();
        if let Some(rt) = coordinator.instances.get_mut(instance) {
            rt.in_flight.remove(path);
        }
    }

    // -----------------------------------------------------------------
    // Compound scope termination / repeat.
    // -----------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn emit_scope_mark(
        &self,
        now_ns: u64,
        instance: &str,
        plan: &Plan,
        keys: &InstanceKeys,
        scope_id: TaskId,
        out_idx: usize,
        mapped: &[(flowscript_plan::StrId, ObjectVal)],
    ) -> Result<(), EngineError> {
        let output = &plan.outputs[out_idx];
        let mark = plan.str(output.name);
        let scope_path = plan.str(plan.task(scope_id).path);
        let out_key = keys
            .out_key(plan, scope_id, mark)
            .ok_or_else(|| EngineError::UnknownTask(scope_path.to_string()))?;
        let mut coordinator = self.inner.borrow_mut();
        let Some(mut cb) = coordinator.read_cb_id(keys, scope_id) else {
            return Err(EngineError::UnknownTask(scope_path.to_string()));
        };
        cb.marks_emitted.push(mark.to_string());
        let whole = coordinator.config.whole_record_facts;
        let action = coordinator.mgr.begin();
        coordinator.mgr.write(&action, keys.cb(scope_id), &cb)?;
        facts::write_fact_bound(
            &mut coordinator.mgr,
            &action,
            plan,
            out_key,
            output.slots,
            mapped,
            whole,
        )?;
        coordinator.commit(action)?;
        // Count the mark only now that it committed.
        coordinator.metrics.marks.inc();
        coordinator.record_event(
            now_ns,
            instance,
            Some(scope_path),
            cb.attempt,
            coordinator.commit_event(format!("mark `{mark}`")),
        );
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn terminate_scope(
        &self,
        world: &mut World,
        instance: &str,
        plan: &Plan,
        keys: &InstanceKeys,
        scope_id: TaskId,
        out_idx: usize,
        kind: OutputKind,
        mapped: Vec<(flowscript_plan::StrId, ObjectVal)>,
    ) {
        let output = &plan.outputs[out_idx];
        let outcome_name = plan.str(output.name);
        let scope_path = plan.str(plan.task(scope_id).path);
        let is_root = !scope_path.contains('/');
        let Some(out_key) = keys.out_key(plan, scope_id, outcome_name) else {
            return;
        };
        {
            let mut coordinator = self.inner.borrow_mut();
            let Some(mut cb) = coordinator.read_cb_id(keys, scope_id) else {
                return;
            };
            cb.transition(if kind == OutputKind::Outcome {
                CbState::Done {
                    outcome: outcome_name.to_string(),
                }
            } else {
                CbState::Aborted {
                    outcome: outcome_name.to_string(),
                }
            });
            let whole = coordinator.config.whole_record_facts;
            let action = coordinator.mgr.begin();
            let mut ok = coordinator
                .mgr
                .write(&action, keys.cb(scope_id), &cb)
                .is_ok()
                && facts::write_fact_bound(
                    &mut coordinator.mgr,
                    &action,
                    plan,
                    out_key,
                    output.slots,
                    &mapped,
                    whole,
                )
                .is_ok();
            // Cancel every non-terminal descendant (one flat subtree
            // scan — DFS pre-order keeps descendants contiguous).
            let mut terminal_delta = 1; // the scope itself
            if ok {
                match cancel_descendants(&mut coordinator.mgr, &action, keys, plan, scope_id) {
                    Ok(cancelled) => terminal_delta += cancelled,
                    Err(_) => ok = false,
                }
            }
            let mut root_status = None;
            if ok && is_root {
                if let Some(mut meta) = coordinator.read_meta(instance) {
                    meta.status = InstanceStatus::Completed(Outcome {
                        name: outcome_name.to_string(),
                        kind,
                        objects: facts::bound_map(plan, &mapped),
                    });
                    ok = coordinator.mgr.write(&action, keys.meta(), &meta).is_ok();
                    root_status = Some(meta.status);
                }
            }
            if ok {
                if coordinator.commit(action).is_ok() {
                    coordinator.note_terminals(instance, terminal_delta);
                    if let Some(status) = &root_status {
                        coordinator.note_status(instance, status);
                    }
                    if is_root {
                        // The instance just completed: its admission
                        // slot frees for a queued start.
                        coordinator.live_instances = coordinator.live_instances.saturating_sub(1);
                    }
                    let verb = if kind == OutputKind::Outcome {
                        "done"
                    } else {
                        "aborted"
                    };
                    let event = if is_root {
                        ObsEventKind::Terminal {
                            outcome: format!("{verb} `{outcome_name}`"),
                        }
                    } else {
                        coordinator.commit_event(format!("{verb} `{outcome_name}`"))
                    };
                    coordinator.record_event(
                        world.now().as_nanos(),
                        instance,
                        Some(scope_path),
                        0,
                        event,
                    );
                }
            } else {
                coordinator.mgr.abort(action);
            }
        }
        // Drop volatile tracking for the whole subtree.
        let watchdogs = self.inner.borrow_mut().sweep_subtree(instance, scope_path);
        for (_, id) in watchdogs {
            world.cancel(id);
        }
    }

    /// Scope-level repeat (Fig. 8): publish the repeat fact, reset the
    /// subtree and let the compound rebind its inputs.
    #[allow(clippy::too_many_arguments)]
    fn repeat_scope(
        &self,
        world: &mut World,
        instance: &str,
        plan: &Plan,
        keys: &InstanceKeys,
        scope_id: TaskId,
        out_idx: usize,
        mapped: Vec<(flowscript_plan::StrId, ObjectVal)>,
        worklist: &mut Worklist,
    ) {
        let output = &plan.outputs[out_idx];
        let outcome_name = plan.str(output.name);
        let scope_path = plan.str(plan.task(scope_id).path);
        let is_root = !scope_path.contains('/');
        let Some(out_key) = keys.out_key(plan, scope_id, outcome_name) else {
            return;
        };
        let over_limit = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(mut cb) = coordinator.read_cb_id(keys, scope_id) else {
                return;
            };
            cb.repeats += 1;
            if cb.repeats > coordinator.config.max_repeats {
                cb.transition(CbState::Failed {
                    reason: format!("compound repeat limit exceeded via `{outcome_name}`"),
                });
                let action = coordinator.mgr.begin();
                let ok = coordinator
                    .mgr
                    .write(&action, keys.cb(scope_id), &cb)
                    .is_ok();
                if ok {
                    // The repeat counts only on commit success.
                    if coordinator.commit(action).is_ok() {
                        coordinator.metrics.repeats.inc();
                        coordinator.record_event(
                            world.now().as_nanos(),
                            instance,
                            Some(scope_path),
                            cb.attempt,
                            coordinator.commit_event(format!("repeat `{outcome_name}`")),
                        );
                        coordinator.note_terminals(instance, 1);
                    }
                } else {
                    coordinator.mgr.abort(action);
                }
                true
            } else {
                // Reset: bump this scope's incarnation, clear own input
                // facts and all descendant state, publish the repeat fact.
                cb.scope_inc += 1;
                let new_inc = cb.scope_inc;
                let meta = coordinator.read_meta(instance);
                let whole = coordinator.config.whole_record_facts;
                let action = coordinator.mgr.begin();
                let mut ok = facts::write_fact_bound(
                    &mut coordinator.mgr,
                    &action,
                    plan,
                    out_key,
                    output.slots,
                    &mapped,
                    whole,
                )
                .is_ok();
                // The compound goes back to Waiting to rebind (the root,
                // which has no bindings, reactivates with its original
                // inputs).
                if is_root {
                    if let Some(meta) = &meta {
                        cb.state = CbState::Active {
                            set: meta.set.clone(),
                        };
                        if let Some(in_key) = keys.in_key(plan, scope_id, &meta.set) {
                            ok = ok
                                && facts::write_fact_map(
                                    &mut coordinator.mgr,
                                    &action,
                                    plan,
                                    in_key,
                                    &meta.inputs,
                                    whole,
                                )
                                .is_ok();
                        } else {
                            ok = false;
                        }
                    }
                } else {
                    cb.state = CbState::Waiting;
                    // Clear own input-binding facts so the new incarnation
                    // rebinds afresh — one range scan over the dense keys.
                    let (lo, hi) = keys.input_fact_range(scope_id);
                    for fact in coordinator.mgr.fact_keys_in_range(lo, hi) {
                        ok = ok
                            && coordinator
                                .mgr
                                .delete_key(&action, &StoreKey::Fact(fact))
                                .is_ok();
                    }
                }
                ok = ok
                    && coordinator
                        .mgr
                        .write(&action, keys.cb(scope_id), &cb)
                        .is_ok();
                if ok {
                    // All descendant facts die with the incarnation: the
                    // whole DFS-contiguous subtree is one key range.
                    if let Some((lo, hi)) = keys.subtree_fact_range(plan, scope_id) {
                        for fact in coordinator.mgr.fact_keys_in_range(lo, hi) {
                            ok = ok
                                && coordinator
                                    .mgr
                                    .delete_key(&action, &StoreKey::Fact(fact))
                                    .is_ok();
                        }
                    }
                }
                let mut revived = 0;
                if ok {
                    match reset_descendants(
                        &mut coordinator.mgr,
                        &action,
                        keys,
                        plan,
                        scope_id,
                        new_inc,
                    ) {
                        Ok(n) => revived = n,
                        Err(_) => ok = false,
                    }
                }
                if ok {
                    if coordinator.commit(action).is_ok() {
                        coordinator.metrics.repeats.inc();
                        coordinator.record_event(
                            world.now().as_nanos(),
                            instance,
                            Some(scope_path),
                            cb.attempt,
                            coordinator.commit_event(format!("repeat `{outcome_name}`")),
                        );
                        coordinator.note_revived(instance, revived);
                    }
                } else {
                    coordinator.mgr.abort(action);
                }
                false
            }
        };
        // Cancel volatile subtree tracking either way.
        let watchdogs = self.inner.borrow_mut().sweep_subtree(instance, scope_path);
        for (_, id) in watchdogs {
            world.cancel(id);
        }
        // Seed the re-entry: the repeat fact is a fresh commit; a reset
        // non-root compound rebinds through the start agenda; a reset
        // root reactivates directly, enabling its constituents.
        worklist.seed_commit(plan, scope_id);
        if over_limit {
            return;
        }
        if is_root {
            worklist.seed_children(plan, scope_id);
        } else {
            worklist.push_task(plan, scope_id);
        }
    }

    // -----------------------------------------------------------------
    // Quiescence / stuck detection.
    // -----------------------------------------------------------------

    /// The full-scan oracle (debug builds): after a worklist drain, no
    /// startable task and no satisfied unprocessed scope output may
    /// remain — if one does, the reverse-edge seeding missed it.
    #[cfg(debug_assertions)]
    fn assert_quiescent(&self, instance: &str, plan: &Plan, keys: &InstanceKeys) {
        let coordinator = self.inner.borrow();
        // The incremental non-terminal count must agree with a fresh
        // recount (this is the bookkeeping stuck detection trusts).
        if let Some(rt) = coordinator.instances.get(instance) {
            debug_assert_eq!(
                rt.nonterminal,
                count_nonterminal(&coordinator.mgr, plan, keys),
                "incremental non-terminal count of `{instance}` drifted"
            );
        }
        let facts = StoreFacts::new(
            &coordinator.mgr,
            keys,
            coordinator.config.whole_record_facts,
        );
        for id in 1..plan.tasks.len() as TaskId {
            let task = plan.task(id);
            let Some(parent) = task.parent else {
                continue;
            };
            let (Some(parent_cb), Some(cb)) = (
                coordinator.read_cb_id(keys, parent),
                coordinator.read_cb_id(keys, id),
            ) else {
                continue;
            };
            if matches!(parent_cb.state, CbState::Active { .. })
                && cb.state == CbState::Waiting
                && cb.incarnation == parent_cb.scope_inc
            {
                debug_assert!(
                    plan_eval::eval_task_inputs(plan, id, &facts).is_none(),
                    "worklist missed a startable task `{}` of instance `{instance}`",
                    plan.str(task.path)
                );
            }
        }
        for id in 0..plan.tasks.len() as TaskId {
            if !plan.task(id).is_scope {
                continue;
            }
            let Some(cb) = coordinator.read_cb_id(keys, id) else {
                continue;
            };
            if !matches!(cb.state, CbState::Active { .. }) {
                continue;
            }
            for (out_idx, _) in plan_eval::eval_scope_outputs(plan, id, &facts) {
                let output = &plan.outputs[out_idx];
                let name = plan.str(output.name);
                let missed = match output.kind {
                    OutputKind::Mark => !cb.mark_emitted(name),
                    _ => true,
                };
                debug_assert!(
                    !missed,
                    "worklist missed a satisfied output `{name}` of scope `{}` in `{instance}`",
                    plan.str(plan.task(id).path)
                );
            }
        }
    }

    /// Stuck detection. O(1) on every drain: a running instance with
    /// work in flight (or, in principle, no live control blocks) can
    /// never be stuck, and both tests read volatile counters the drain
    /// maintains incrementally — no control-block enumeration, no store
    /// scan. Only the one-time transition *to* Stuck reads control
    /// blocks (point reads through the interned uid table) to compose
    /// the diagnostic reason.
    fn stuck_check(&self, world: &mut World, instance: &str) {
        let mut coordinator = self.inner.borrow_mut();
        let Some(rt) = coordinator.instances.get(instance) else {
            return;
        };
        if rt.terminal || !rt.in_flight.is_empty() {
            return;
        }
        let plan = rt.plan.clone();
        let keys = rt.keys.clone();
        let nonterminal = rt.nonterminal;
        // Quiescent but not terminated: stuck. Summarise why — one walk
        // over the plan's dense task ids (point reads; this runs once
        // per stuck instance, never on the commit path), using the
        // plan's satisfaction masks to say how close each waiting task
        // got.
        let mut failed = Vec::new();
        let mut waiting = Vec::new();
        for id in 0..plan.tasks.len() as TaskId {
            let Some(cb) = coordinator.read_cb_id(&keys, id) else {
                continue;
            };
            match &cb.state {
                CbState::Failed { reason } => {
                    failed.push(format!("{} ({reason})", cb.path));
                }
                CbState::Waiting => {
                    let facts = StoreFacts::new(
                        &coordinator.mgr,
                        &keys,
                        coordinator.config.whole_record_facts,
                    );
                    let task = plan.task(id);
                    let pending = plan.sets[task.sets.as_range()]
                        .iter()
                        .map(|set| {
                            let met = plan_eval::met_requirements(&plan, set, &facts);
                            format!("{} {met}/{}", plan.str(set.name), set.requirement_count())
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                    if pending.is_empty() {
                        waiting.push(cb.path.clone());
                    } else {
                        waiting.push(format!("{} (deps met: {pending})", cb.path));
                    }
                }
                _ => {}
            }
        }
        let reason = format!(
            "no runnable task and the root cannot terminate ({nonterminal} of {} tasks \
             non-terminal); failed: [{}]; waiting: [{}]",
            plan.tasks.len(),
            failed.join(", "),
            waiting.join(", ")
        );
        let Some(mut meta) = coordinator.read_meta(instance) else {
            return;
        };
        meta.status = InstanceStatus::Stuck {
            reason: reason.clone(),
        };
        let action = coordinator.mgr.begin();
        let ok = coordinator.mgr.write(&action, keys.meta(), &meta).is_ok();
        if ok {
            if coordinator.commit(action).is_ok() {
                coordinator.note_status(instance, &meta.status);
                // A stuck instance stops counting against the
                // admission cap (a revival re-counts it).
                coordinator.live_instances = coordinator.live_instances.saturating_sub(1);
                coordinator.record_event(
                    world.now().as_nanos(),
                    instance,
                    None,
                    0,
                    ObsEventKind::Stuck { reason },
                );
            }
        } else {
            coordinator.mgr.abort(action);
        }
    }

    // -----------------------------------------------------------------
    // Reconfiguration (paper §2/§3: transactional structure changes).
    // -----------------------------------------------------------------

    /// Applies a reconfiguration to a running instance atomically.
    ///
    /// The plan is re-lowered from the mutated schema, the instance's
    /// persisted facts are **remapped** onto the new plan's dense ids
    /// (task ids shift when tasks are added or removed; facts whose
    /// task or declaration vanished are deleted), and the interned key
    /// table is rebuilt — all in the same atomic action as the op
    /// itself.
    ///
    /// # Errors
    ///
    /// Validation failures leave the instance untouched.
    pub fn reconfigure(
        &self,
        world: &mut World,
        instance: &str,
        op: Reconfig,
    ) -> Result<(), EngineError> {
        // Reconfiguration rebuilds the plan and rebinding state from
        // committed truth: absorb the batch window first.
        self.flush_pending(world);
        {
            let mut coordinator = self.inner.borrow_mut();
            let Some(mut meta) = coordinator.read_meta(instance) else {
                return Err(EngineError::UnknownInstance(instance.to_string()));
            };
            // A reconfiguration can rescue a stuck instance (e.g. by adding
            // an alternative source), so revive it for re-evaluation.
            let revived = matches!(meta.status, InstanceStatus::Stuck { .. });
            if revived {
                meta.status = InstanceStatus::Running;
            }
            if !coordinator.instances.contains_key(instance) {
                return Err(EngineError::UnknownInstance(instance.to_string()));
            }
            // Materialize the schema on demand: an instance started
            // from a served plan never compiled one. Replay any
            // previously persisted reconfigurations so it is current.
            let current = match coordinator
                .instances
                .get(instance)
                .and_then(|rt| rt.schema.clone())
            {
                Some(schema) => schema,
                None => {
                    let mut schema = schema::compile_source(&meta.source, &meta.root)?;
                    for op_uid in coordinator
                        .mgr
                        .uids_with_prefix(&format!("inst/{instance}/reconfig/"))
                    {
                        if let Ok(Some(past)) = coordinator.mgr.read_committed::<Reconfig>(&op_uid)
                        {
                            let _ = reconfig::apply(&mut schema, &past);
                        }
                    }
                    Rc::new(schema)
                }
            };
            let mut schema = (*current).clone();
            let effects = reconfig::apply(&mut schema, &op)?;
            let (old_plan, old_keys) = {
                let rt = coordinator.instances.get(instance).expect("checked above");
                (rt.plan.clone(), rt.keys.clone())
            };
            // Compile-once per structural change: the mutated schema is
            // re-lowered and swapped in atomically with the fact remap.
            let new_plan = Plan::lower(&schema);
            let new_keys = InstanceKeys::build(&new_plan, instance, meta.instance_id);

            // Persist the op and its engine-side effects in one action.
            let action = coordinator.mgr.begin();
            let n = meta.reconfig_count;
            meta.reconfig_count += 1;
            meta.plan_fingerprint = new_plan.fingerprint;
            coordinator
                .mgr
                .write(&action, &reconfig_uid(instance, n), &op)?;
            coordinator.mgr.write(&action, new_keys.meta(), &meta)?;
            if !coordinator.mgr.exists(&plan_uid(new_plan.fingerprint)) {
                coordinator
                    .mgr
                    .write(&action, &plan_uid(new_plan.fingerprint), &new_plan)?;
            }
            // Move every persisted fact onto the new plan's id space.
            let whole = coordinator.config.whole_record_facts;
            facts::remap_instance_facts(
                &mut coordinator.mgr,
                &action,
                &old_plan,
                &old_keys,
                &new_plan,
                meta.instance_id,
                whole,
            )?;
            for path in &effects.new_tasks {
                // New tasks join the current incarnation of their scope.
                let scope_path = path.rsplit_once('/').map(|(s, _)| s).unwrap_or("");
                let scope_inc = coordinator
                    .read_cb(instance, scope_path)
                    .map(|cb| cb.scope_inc)
                    .unwrap_or(0);
                let mut cb = TaskCb::new(path.clone());
                cb.incarnation = scope_inc;
                coordinator
                    .mgr
                    .write(&action, &cb_uid(instance, path), &cb)?;
            }
            for path in &effects.removed_tasks {
                coordinator.mgr.delete(&action, &cb_uid(instance, path))?;
            }
            if let Reconfig::Rebind { code, to } = &op {
                coordinator
                    .mgr
                    .write(&action, &bind_uid(instance, code), to)?;
            }
            coordinator.commit(action)?;
            coordinator.note_status(instance, &meta.status);
            if revived {
                // Back from Stuck: the instance counts against the
                // admission cap again.
                coordinator.live_instances += 1;
            }
            coordinator.metrics.reconfigs.inc();
            let rt = coordinator
                .instances
                .get_mut(instance)
                .expect("checked above");
            rt.plan = Rc::new(new_plan);
            rt.keys = Rc::new(new_keys);
            rt.schema = Some(Rc::new(schema));
            if let Reconfig::Rebind { code, to } = &op {
                rt.bindings.insert(code.clone(), to.clone());
            }
            // The plan (and possibly the task set) changed: recount the
            // non-terminal blocks instead of patching deltas.
            coordinator.recount_nonterminal(instance);
            // The old fingerprint may now be orphaned — reclaim it
            // right away rather than waiting for the next checkpoint
            // (an idle instance would strand it forever).
            coordinator.gc_plans()?;
        }
        // The plan changed under the instance: reconfiguration re-enters
        // through the full scan (new tasks and new edges have no commit
        // to seed from).
        self.evaluate(world, instance);
        self.pump(world);
        Ok(())
    }

    /// Administrative abort of a *waiting* task (Fig. 3 permits
    /// wait-state aborts for timer expiry or a user forcing an abort).
    /// The named outcome must be a declared abort outcome of the task's
    /// class; it is published like any other abort so dependents (e.g. a
    /// compound's cancellation notification) observe it.
    ///
    /// # Errors
    ///
    /// Unknown instance/task, a non-waiting task, or an outcome that is
    /// not a declared abort outcome.
    pub fn abort_waiting_task(
        &self,
        world: &mut World,
        instance: &str,
        path: &str,
        outcome: &str,
    ) -> Result<(), EngineError> {
        // The operator decision is against current state: absorb the
        // batch window first.
        self.flush_pending(world);
        let task_id = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(rt) = coordinator.instances.get(instance) else {
                return Err(EngineError::UnknownInstance(instance.to_string()));
            };
            let (plan, keys) = (rt.plan.clone(), rt.keys.clone());
            let Some(task_id) = plan.task_by_path(path) else {
                return Err(EngineError::UnknownTask(path.to_string()));
            };
            let class = plan.class_of(plan.task(task_id));
            let declared_abort = plan
                .class_output(class, outcome)
                .is_some_and(|o| o.kind == OutputKind::AbortOutcome);
            if !declared_abort {
                return Err(EngineError::ReconfigRejected(format!(
                    "`{outcome}` is not an abort outcome of `{}`",
                    plan.str(class.name)
                )));
            }
            let out_key = keys
                .out_key(&plan, task_id, outcome)
                .ok_or_else(|| EngineError::UnknownTask(path.to_string()))?;
            let Some(mut cb) = coordinator.read_cb_id(&keys, task_id) else {
                return Err(EngineError::UnknownTask(path.to_string()));
            };
            if cb.state != CbState::Waiting {
                return Err(EngineError::ReconfigRejected(format!(
                    "task `{path}` is not waiting (state {:?})",
                    cb.state
                )));
            }
            cb.transition(CbState::Aborted {
                outcome: outcome.to_string(),
            });
            let whole = coordinator.config.whole_record_facts;
            let action = coordinator.mgr.begin();
            coordinator.mgr.write(&action, keys.cb(task_id), &cb)?;
            facts::write_fact_map(
                &mut coordinator.mgr,
                &action,
                &plan,
                out_key,
                &BTreeMap::new(),
                whole,
            )?;
            coordinator.commit(action)?;
            coordinator.note_terminals(instance, 1);
            task_id
        };
        self.evaluate_from(world, instance, &[task_id]);
        self.pump(world);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Recovery.
    // -----------------------------------------------------------------

    /// Rebuilds all state from the write-ahead log after a restart and
    /// resumes every running instance (re-dispatching in-flight tasks).
    ///
    /// The compiled plan is read back from its persisted, fingerprinted
    /// blob (written at instance start and on every reconfiguration),
    /// so recovery skips the whole front end; recompiling from source —
    /// replaying persisted reconfigurations — survives only as the
    /// fallback for a missing or corrupt blob.
    pub fn recover(&self, world: &mut World) {
        let recovered = {
            let mut coordinator = self.inner.borrow_mut();
            let (node, storage) = (coordinator.node, coordinator.storage.clone());
            // Reopen the store against the same registry: metric
            // history (like the flight recorder's) spans the crash.
            let mgr = match TxManager::open_with_metrics(
                node.index() as u32,
                storage,
                &coordinator.registry,
                coordinator.config.observe,
            ) {
                Ok(mgr) => mgr,
                Err(_) => return,
            };
            coordinator.mgr = mgr;
            coordinator.instances.clear();
            // Decoded plans died with the process; the loads below
            // re-validate each persisted blob once.
            coordinator.plan_cache = PlanCache::default();
            if coordinator.mgr.fenced().is_some() {
                // Another shard claimed this storage while the node was
                // down (crash-driven adoption): every instance now
                // lives — and runs — on the claimant's side. A zombie
                // must not reload, re-dispatch, or relay anything; it
                // wakes empty and every durable act it attempts fails
                // on the fence.
                coordinator.pending.clear();
                coordinator.window_armed = false;
                coordinator.current_batch = None;
                coordinator.sched.reset_loads();
                coordinator.parked.clear();
                coordinator.admission_queue.clear();
                coordinator.starting = 0;
                coordinator.live_instances = 0;
                coordinator.moved.clear();
                return;
            }
            // The batch window died with the process: unflushed reports
            // are lost as a unit (executors re-report via watchdog
            // retries), and the reopened manager starts outside any
            // group.
            coordinator.pending.clear();
            coordinator.window_armed = false;
            coordinator.current_batch = None;
            // The in-flight view died with the process; re-dispatches
            // below rebuild it.
            coordinator.sched.reset_loads();
            // So did the ready and admission queues: parked dispatches
            // re-park (if still saturated) when their committed
            // `Executing` blocks re-dispatch below, and queued starts
            // are the client's to retry — their reply tokens died with
            // the process. Live occupancy is recounted from the metas.
            coordinator.parked.clear();
            coordinator.park_seq = 0;
            coordinator.admission_queue.clear();
            coordinator.starting = 0;
            coordinator.live_instances = 0;
            coordinator.arrival_gap_ns = u64::MAX;
            coordinator.last_report_ns = 0;

            // Hand-off repair, before instances load. A crash can
            // strand a move at any point:
            //  * a replayed *committed* decision whose keyspace purge
            //    did not land means the destination owns the instance
            //    — purge now, and re-announce the verdict below;
            //  * an intent with no decision is presumed aborted:
            //    append the durable abort and notify the destination
            //    so it releases its staged locks.
            let ends: Vec<(TxId, String, u32, bool)> =
                coordinator.mgr.replayed_handoff_ends().to_vec();
            for (_, instance, dest, committed) in &ends {
                if !*committed {
                    continue;
                }
                if coordinator.mgr.exists(&meta_uid(instance)) {
                    let _ = coordinator.purge_instance(instance);
                }
                // Rebuild the dual-delivery relay entry: executor
                // replies for the moved instance may still arrive here.
                coordinator
                    .moved
                    .insert(instance.clone(), NodeId::from_index(*dest as usize));
            }
            let aborted = coordinator.mgr.open_handoffs();
            for (tx, instance, dest) in &aborted {
                let _ = coordinator.mgr.handoff_end(*tx, instance, *dest, false);
            }
            let in_doubt = coordinator.mgr.in_doubt();
            let node = coordinator.node;

            // Enumerate instances by their meta objects.
            let metas: Vec<ObjectUid> = coordinator.mgr.uids_matching("inst/", "/meta");
            let mut names = Vec::new();
            for uid in metas {
                let Ok(Some(meta)) = coordinator.mgr.read_committed::<InstanceMeta>(&uid) else {
                    continue;
                };
                let name = uid
                    .as_str()
                    .trim_start_matches("inst/")
                    .trim_end_matches("/meta")
                    .to_string();
                // Fast path inside: decode the persisted plan
                // (validated like any other untrusted plan) and skip
                // the front end.
                let Some(rt) = coordinator.load_instance(&name, &meta) else {
                    continue;
                };
                coordinator.instances.insert(name.clone(), rt);
                coordinator.metrics.recovered_instances.inc();
                let epoch = coordinator.shard.epoch();
                coordinator.record_event(
                    world.now().as_nanos(),
                    &name,
                    None,
                    0,
                    ObsEventKind::Recovery { epoch },
                );
                if meta.status == InstanceStatus::Running {
                    coordinator.live_instances += 1;
                    names.push(name);
                }
            }
            (names, ends, aborted, in_doubt, node)
        };
        let (instances, ends, aborted, in_doubt, node) = recovered;

        // 2PC termination traffic. Every durable decision this restart
        // replayed (plus the presumed aborts just appended) is
        // re-announced — the destination may have crashed before
        // hearing it the first time; resolution is idempotent, so
        // duplicates are harmless. And every stage this node prepared
        // but never heard a decision for is chased with a query to its
        // coordinator.
        for (tx, _, dest, committed) in &ends {
            let verdict = EngineMsg::HandoffVerdict {
                tx_node: tx.node(),
                tx_seq: tx.seq(),
                committed: *committed,
            };
            world.send(
                node,
                NodeId::from_index(*dest as usize),
                flowscript_codec::to_bytes(&verdict),
            );
        }
        for (tx, _, dest) in &aborted {
            let verdict = EngineMsg::HandoffVerdict {
                tx_node: tx.node(),
                tx_seq: tx.seq(),
                committed: false,
            };
            world.send(
                node,
                NodeId::from_index(*dest as usize),
                flowscript_codec::to_bytes(&verdict),
            );
        }
        for (tx, coordinator_node) in &in_doubt {
            let query = EngineMsg::HandoffQuery {
                tx_node: tx.node(),
                tx_seq: tx.seq(),
            };
            world.send(
                node,
                NodeId::from_index(*coordinator_node as usize),
                flowscript_codec::to_bytes(&query),
            );
        }

        // Re-dispatch whatever was executing (at-least-once execution,
        // exactly-once outcome application via attempt matching).
        for instance in &instances {
            let executing: Vec<(String, u32)> = {
                let coordinator = self.inner.borrow();
                let Some(rt) = coordinator.instances.get(instance) else {
                    continue;
                };
                let (plan, keys) = (rt.plan.clone(), rt.keys.clone());
                (0..plan.tasks.len() as TaskId)
                    .filter_map(|id| {
                        let cb = coordinator.read_cb_id(&keys, id)?;
                        matches!(cb.state, CbState::Executing { .. })
                            .then(|| (cb.path.clone(), cb.attempt))
                    })
                    .collect()
            };
            for (path, attempt) in executing {
                // Bump the attempt so a late pre-crash reply is ignored.
                let bumped = {
                    let mut coordinator = self.inner.borrow_mut();
                    let Some(mut cb) = coordinator.read_cb(instance, &path) else {
                        continue;
                    };
                    cb.attempt = attempt + 1;
                    let new_attempt = cb.attempt;
                    let action = coordinator.mgr.begin();
                    let ok = coordinator
                        .mgr
                        .write(&action, &cb_uid(instance, &path), &cb)
                        .is_ok();
                    if ok {
                        let _ = coordinator.commit(action);
                        Some(new_attempt)
                    } else {
                        coordinator.mgr.abort(action);
                        None
                    }
                };
                if let Some(new_attempt) = bumped {
                    self.redispatch(world, instance, &path, new_attempt);
                }
            }
            self.evaluate(world, instance);
        }
        // Re-dispatches above may have parked against a still-cold
        // scheduler view; give them one immediate placement pass.
        self.pump(world);
    }
}

/// Counts an instance's non-terminal control blocks in committed state
/// (point reads over the plan's dense ids — no store scan). Seeds and
/// cross-checks the incrementally maintained `InstanceRt::nonterminal`.
fn count_nonterminal(mgr: &TxManager<StableStore>, plan: &Plan, keys: &InstanceKeys) -> usize {
    (0..plan.tasks.len() as TaskId)
        .filter(|&id| {
            mgr.read_committed::<TaskCb>(keys.cb(id))
                .ok()
                .flatten()
                .is_some_and(|cb| !cb.state.is_terminal())
        })
        .count()
}

/// Cancels every non-terminal descendant of a scope: one linear scan of
/// the plan's contiguous subtree range, through the interned cb uids.
/// Returns how many blocks it cancelled.
fn cancel_descendants(
    mgr: &mut TxManager<StableStore>,
    action: &flowscript_tx::AtomicAction,
    keys: &InstanceKeys,
    plan: &Plan,
    scope_id: TaskId,
) -> Result<usize, EngineError> {
    let mut cancelled = 0;
    for task_id in plan.subtree(scope_id) {
        let uid = keys.cb(task_id);
        if let Some(mut cb) = mgr.read::<TaskCb>(action, uid)? {
            if !cb.state.is_terminal() {
                cb.transition(CbState::Cancelled);
                mgr.write(action, uid, &cb)?;
                cancelled += 1;
            }
        }
    }
    Ok(cancelled)
}

/// Resets a scope's subtree for a new incarnation, bumping each nested
/// compound's own scope incarnation so its children rebind
/// consistently. (The subtree's facts were already range-deleted by the
/// caller.) Returns how many previously *terminal* blocks the reset
/// revived to `Waiting`.
fn reset_descendants(
    mgr: &mut TxManager<StableStore>,
    action: &flowscript_tx::AtomicAction,
    keys: &InstanceKeys,
    plan: &Plan,
    scope_id: TaskId,
    incarnation: u32,
) -> Result<usize, EngineError> {
    let mut revived = 0;
    for &child in plan.children(scope_id) {
        let task = plan.task(child);
        let uid = keys.cb(child);
        let mut inner_inc = 0;
        if let Some(mut cb) = mgr.read::<TaskCb>(action, uid)? {
            if cb.state.is_terminal() {
                revived += 1;
            }
            cb.reset_for_incarnation(incarnation);
            if task.is_scope {
                // A nested compound's own scope advances too, so its
                // children rebind consistently.
                cb.scope_inc += 1;
                inner_inc = cb.scope_inc;
            }
            mgr.write(action, uid, &cb)?;
        }
        if task.is_scope {
            revived += reset_descendants(mgr, action, keys, plan, child, inner_inc)?;
        }
    }
    Ok(revived)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let config = EngineConfig::default();
        assert!(config.max_retries >= 1);
        assert!(config.max_repeats > 1);
        assert!(config.dispatch_timeout > config.retry_backoff);
        assert!(!config.full_rescan, "production default is event-driven");
    }

    #[test]
    fn status_codec_roundtrip() {
        let statuses = vec![
            InstanceStatus::Running,
            InstanceStatus::Completed(Outcome {
                name: "done".into(),
                kind: OutputKind::Outcome,
                objects: BTreeMap::from([("x".to_string(), ObjectVal::text("C", "v"))]),
            }),
            InstanceStatus::Stuck {
                reason: "nothing to run".into(),
            },
        ];
        for status in statuses {
            let bytes = flowscript_codec::to_bytes(&status);
            assert_eq!(
                flowscript_codec::from_bytes::<InstanceStatus>(&bytes).unwrap(),
                status
            );
            let _ = status.is_terminal();
        }
    }

    #[test]
    fn meta_codec_roundtrip() {
        let meta = InstanceMeta {
            script: "order".into(),
            source: "class C;".into(),
            root: "root".into(),
            set: "main".into(),
            inputs: BTreeMap::from([("seed".to_string(), ObjectVal::text("C", "s"))]),
            status: InstanceStatus::Running,
            reconfig_count: 2,
            instance_id: 7,
            version: Some(3),
            plan_fingerprint: 0xDEAD_BEEF,
        };
        let bytes = flowscript_codec::to_bytes(&meta);
        assert_eq!(
            flowscript_codec::from_bytes::<InstanceMeta>(&bytes).unwrap(),
            meta
        );
    }

    #[test]
    fn plan_cache_validates_once_and_never_holds_bad_bytes() {
        let schema =
            schema::compile_source(flowscript_core::samples::FIG1_DIAMOND, "diamond").unwrap();
        let bytes = flowscript_codec::to_bytes(&Plan::lower(&schema));
        let mut cache = PlanCache::default();
        // Every instance of one encoding shares one decoded plan.
        let first = cache.validated(&bytes).expect("a lowered plan validates");
        let again = cache
            .validated(&bytes)
            .expect("and is served from the cache");
        assert!(Rc::ptr_eq(&first, &again));
        assert_eq!(cache.fingerprints(), [first.fingerprint]);
        // Undecodable, truncated and tampered encodings all miss — and
        // leave no entry behind to be served later.
        let mut tampered = bytes.clone();
        *tampered.last_mut().unwrap() ^= 0xFF; // the stored fingerprint
        for bad in [&[0xFF; 3][..], &bytes[..bytes.len() / 2], &tampered] {
            assert!(cache.validated(bad).is_none());
        }
        assert_eq!(cache.fingerprints(), [first.fingerprint]);
    }

    #[test]
    fn find_task_resolves_nested_paths() {
        let schema =
            schema::compile_source(flowscript_core::samples::BUSINESS_TRIP, "tripReservation")
                .unwrap();
        let (task, scope_path) = Coordinator::find_task(
            &schema,
            "tripReservation/businessReservation/checkFlightReservation/airlineQueryB",
        )
        .unwrap();
        assert_eq!(task.name, "airlineQueryB");
        assert_eq!(
            scope_path,
            "tripReservation/businessReservation/checkFlightReservation"
        );
        let (task, scope_path) =
            Coordinator::find_task(&schema, "tripReservation/printTickets").unwrap();
        assert_eq!(task.name, "printTickets");
        assert_eq!(scope_path, "tripReservation");
        assert!(Coordinator::find_task(&schema, "tripReservation/ghost").is_none());
        assert!(Coordinator::find_task(&schema, "wrong/printTickets").is_none());
    }
}
