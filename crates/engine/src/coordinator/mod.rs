//! The Workflow Execution Service.
//!
//! The coordinator owns every workflow instance's persistent state: task
//! control blocks ([`crate::state::TaskCb`]) and dependency *facts*, all
//! stored as objects in a [`TxManager`] so that each state transition is
//! an atomic action and a coordinator crash loses nothing committed
//! (paper §3, system-level fault tolerance). It is one loop of *steps* —
//! stage an event (a window of reports, a time-out, a restart's re-arm,
//! an operator's repair) and everything it cascades into in one atomic
//! action, commit it once, publish what it made true — plus what keeps
//! that loop fed and alive: dispatch with watchdogs, admission, shard
//! membership and crash recovery. A task attempt moves no other way.
//!
//! Re-evaluation is **event-driven**: each committed fact seeds a
//! [`Worklist`](flowscript_plan::Worklist) from the plan's reverse
//! dependency edges, so per-commit work scales with the fan-out of the
//! changed task, not the instance size. The full scan survives only for
//! crash recovery, adoption, repair and reconfiguration (where the plan
//! itself changes), and — in debug builds — as a quiescence oracle
//! asserted after every step. All fact storage runs on dense
//! per-object sub-keys interned per instance (the
//! [`crate::keys::InstanceKeys`] table over the [`crate::facts`]
//! layout): a readiness probe is one point read of exactly the bytes it
//! needs, and no commit or probe on the dispatch hot path decodes a
//! whole record or formats a string.
//!
//! # Inside the coordinator
//!
//! This module holds the shared state ([`Coordinator`], reached through
//! the cloneable [`CoordHandle`]), the message entry point and the
//! helpers every concern uses (`record_event`, the
//! control-block/header/status reads, `pump`). Each child module owns one
//! concern; what it *owns* is private to it, and the entry points named
//! are the only way in from a sibling:
//!
//! | module | concern | owns | entry points |
//! |---|---|---|---|
//! | `config`, `meta`, `stats` | the types: operator knobs; status and outcome, the `InstanceHeader` (rewritten only by a reconfiguration and a hand-off's re-key), the `StatusRecord`, the pinned source's hash (their uids: [`crate::keys`]); counters and the dispatch record | — | — |
//! | `step` | the unit of commit: stage into one action (reading its own writes back), commit once — one frame straight to the log — publish the effects in staging order | `Step`, `Effect`, `Launch` (what an attempt ships under) | `run_step` (the one way the engine runs an action), `atomically` (the step with nothing to publish), `publish`; `staged`, `staged_cb`, `trace` |
//! | `window` | the one place a report is applied: buffer `Done`/`Mark` reports, stage a window of them in arrival order — outcome, mark, execution error, repeat outcome, misreport — and its cascade as one step | `BatchWindow` | `enqueue_event`, `flush_pending`, `commit_event` |
//! | `evaluate` | the cascade a step stages: input-set satisfaction, activation, compound-scope outputs (marks, termination, the fig. 8 repeat), stuck detection; the debug full-scan oracle | `Drain` (one instance inside a step: its seeds, its flights as the step leaves them) | `reevaluate` (the step over one resident instance: the caller stages its transition, the drain follows, one commit, publish — the watchdog, a failed placement, the operator's abort and repair, a restart's re-arm), `evaluate` (the same with nothing but the full scan to stage: adoption); `drain_of`, `stage_drain`, `park_stuck`, `assert_settled` |
//! | `dispatch` | executor placement, the capacity-parked ready queue, watchdogs, and what an attempt that ends with no outcome stages: the bounded retry or `Failed` | `Dispatcher` (scheduler loads, cost model, ready queue), `Flights` (per instance: one record per task with outstanding work) | staging: `stage_lost` (error report, time-out), `stage_failure`, `stage_launch` (the next attempt, now or after a delay); publishing: `ship` (an attempt, under what its step staged), `dispatch` (a staged attempt whose delay or park is over), `dispatch_after`, `lose_flight`, `clear_watch`, `discard_flights` (subtree sweep, forced outcome, failure), `fail_unplaceable`; `drain_parked`, `executing`; `Flights::outstanding` (stuck detection), `replan` (a reconfiguration's new plan, its books re-keyed), `rearm_adopted` (adoption), `Dispatcher::{release_all, reset}` (hand-off, recovery), `executor_loads` |
//! | `admission` | the per-shard instance cap on the start RPC | `Admission` | `admit_or_queue`, `admit_from_queue`, `Admission::{instance_live, instance_settled}` |
//! | `lifecycle` | instance start (the first writer of a header), the two per-shard blobs an instance pins — the compiled plan per fingerprint, the canonical source per hash — materialising a runtime from committed state, the monitoring reads; blob collection | `PlanCache` | `start_instance` (from admission, the one start path), `pin_blobs` (start, reconfiguration), `pinned_source` (the one reader of the source: reconfiguration, and a load with no valid plan blob), `load_instance`, `count_nonterminal`, `PlanCache::validated`, `gc_plans` |
//! | `membership` | shard routing and relays; the fleet protocols the nodes run among themselves — live hand-off (the one `tx::dist` 2PC, this module its host) and crash-driven adoption | `Membership`, [`MoveReport`], [`FailoverReport`] | `route_report`, `misdirected`, `forward_start`; from the façade `begin_move`, `begin_adoption` (each answers with a `Ticket`); from the wire `on_dist`, `on_claim`; `adopt_orphans`, `repair_handoffs` |
//! | `recovery` | restart: reopen the log, reset volatile state (fleet protocols included), repair hand-offs, reload, re-arm each running instance in one step | — | `recover`, `stored_instances`, `stored_instance_names` |
//! | `admin` | operator actions on a running instance, one step each: the abort, the repair, and a reconfiguration — the script's new version, the remap onto its plan and the full drain over it | — | `reconfigure`, `abort_waiting_task`, `repair_fact` |

mod admin;
mod admission;
mod config;
mod dispatch;
mod evaluate;
mod lifecycle;
mod membership;
mod meta;
mod recovery;
mod stats;
mod step;
mod window;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use flowscript_codec::Encode;
use flowscript_obs::{FlightRecorder, ObsEventKind, Registry};
use flowscript_plan::{Plan, TaskId};
use flowscript_sim::{Envelope, NodeId, World};
use flowscript_tx::{StableStore, StoreKey, TxError, TxManager};

use crate::error::EngineError;
use crate::facts;
use crate::keys::{meta_uid, status_uid, InstanceKeys};
use crate::msg::EngineMsg;
use crate::sched::ExecutorSpec;
use crate::shard::ShardMap;
use crate::state::TaskCb;

pub use config::{CommitBatch, EngineConfig};
pub use membership::{FailoverReport, MoveReport, MAX_FORWARD_HOPS};

pub(crate) use membership::{TicketRef, DRAIN_BATCH, FLEET_DEADLINE};
pub use meta::{InstanceStatus, Outcome};
pub use stats::{CoordStats, DispatchRecord};

use recovery::{stored_instance_names, stored_instances};

use admission::{Admission, AdmissionTicket};
use dispatch::{Dispatcher, Flights};
pub(crate) use lifecycle::PlanCache;
use membership::Membership;
use meta::{InstanceHeader, StatusRecord};
use stats::CoordMetrics;
use window::{BatchWindow, PendingEvent};

/// Volatile per-instance runtime state (rebuilt on recovery).
struct InstanceRt {
    /// The compiled execution plan all hot paths run off (served by the
    /// repository's plan cache, or lowered locally; a reconfiguration
    /// swaps in the plan of the script's new version).
    plan: Rc<Plan>,
    /// Interned storage keys: header and status uids formatted once,
    /// fact keys precomputed per plan source (rebuilt with the plan).
    keys: Rc<InstanceKeys>,
    /// One record per task with outstanding work (`dispatch`'s, keyed
    /// by the plan's dense task ids and re-keyed with the plan).
    flights: Flights,
    /// Control blocks not yet in a terminal state, maintained
    /// incrementally at every transition commit (recounted only on
    /// recovery and reconfiguration). Stuck detection reads this
    /// instead of enumerating the store.
    nonterminal: usize,
    /// Mirror of the committed status record's `status.is_terminal()`,
    /// refreshed right after every commit that writes it (see
    /// [`Coordinator::note_status`]). The drain tests it once per
    /// worklist step.
    terminal: bool,
    /// A fact may sit below a scope that has not activated — an operator
    /// published (`repair_fact`, `abort_waiting_task`), or this runtime
    /// was loaded from the store, which does not say: an activation then
    /// enables every constituent, not only [`Plan::activation_seeds`].
    planted: bool,
}

/// The execution service state. Use through [`CoordHandle`].
pub struct Coordinator {
    node: NodeId,
    repo: NodeId,
    /// Executor loads, observed costs and the capacity-parked ready
    /// queue.
    dispatcher: Dispatcher,
    /// The admission cap's queue and occupancy counts.
    admission: Admission,
    /// The shard map and the relay table of handed-off instances.
    membership: Membership,
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
    /// The open commit window: buffered executor reports, the flush
    /// timer flag and batch ids.
    window: BatchWindow,
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
    /// Opens one shard's coordinator over durable `storage` (recovering
    /// any previous state): `shard` names every coordinator node (this
    /// one included), and this coordinator serves only the instances the
    /// map assigns to `node`, forwarding the rest. Each executor comes
    /// with its optional `location` label — the scheduler's hard
    /// placement constraint — and its declared capacity.
    ///
    /// # Errors
    ///
    /// Corrupt storage.
    pub fn open(
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
        Ok(Self {
            node,
            repo,
            dispatcher: Dispatcher::new(executors),
            admission: Admission::default(),
            membership: Membership::new(node, shard),
            config,
            mgr,
            storage,
            instances: BTreeMap::new(),
            plan_cache: PlanCache::default(),
            commits: 0,
            commits_at_checkpoint: 0,
            window: BatchWindow::default(),
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

    /// Writes one object in an atomic action of its own.
    fn commit_object<T: Encode>(&mut self, key: &StoreKey, value: &T) -> Result<(), EngineError> {
        self.atomically(|mgr, action| Ok(mgr.write_key(action, key, value)?))
    }

    /// Checkpoints when the threshold of commits has accumulated since
    /// the last one. Evaluated once per step (and after each batch
    /// flush) rather than per commit, so a window can never stall
    /// mid-batch on a `rewrite_with_checkpoint`; every commit is one
    /// frame already on the log, so there is nothing a checkpoint could
    /// land in the middle of.
    fn maybe_checkpoint(&mut self) -> Result<(), EngineError> {
        let Some(every) = self.config.checkpoint_every else {
            return Ok(());
        };
        if self.commits - self.commits_at_checkpoint < every {
            return Ok(());
        }
        self.commits_at_checkpoint = self.commits;
        self.gc_plans()?;
        self.mgr.checkpoint()?;
        Ok(())
    }

    /// The committed control block of `task`: one dense-key point read.
    fn read_cb_id(
        &self,
        plan: &Plan,
        keys: &InstanceKeys,
        task: TaskId,
    ) -> Result<TaskCb, TxError> {
        facts::read_block(&self.mgr, None, plan, keys, task)
    }

    /// Whether `instance` exists on this shard. The store is the truth,
    /// not residency: an instance a hand-off round holds frozen is
    /// committed here without being resident.
    fn holds(&self, instance: &str) -> bool {
        self.instances.contains_key(instance) || self.mgr.exists_key(&meta_uid(instance))
    }

    /// The committed header of `instance`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownInstance`] if there is none, a storage
    /// error if what is stored does not decode as one.
    fn read_header(&self, instance: &str) -> Result<InstanceHeader, EngineError> {
        let stored = match self.instances.get(instance) {
            Some(rt) => self.mgr.read_committed_key(rt.keys.meta()),
            None => self.mgr.read_committed_key(&meta_uid(instance)),
        };
        stored?.ok_or_else(|| EngineError::UnknownInstance(instance.to_string()))
    }

    /// The committed status record of `instance`.
    ///
    /// # Errors
    ///
    /// As for [`Coordinator::read_header`].
    fn read_status(&self, instance: &str) -> Result<StatusRecord, EngineError> {
        let stored = match self.instances.get(instance) {
            Some(rt) => self.mgr.read_committed_key(rt.keys.status()),
            None => self.mgr.read_committed_key(&status_uid(instance)),
        };
        stored?.ok_or_else(|| EngineError::UnknownInstance(instance.to_string()))
    }

    /// Refreshes the volatile mirror of the status a commit just wrote
    /// to `instance`'s status record.
    fn note_status(&mut self, instance: &str, status: &InstanceStatus) {
        if let Some(rt) = self.instances.get_mut(instance) {
            rt.terminal = status.is_terminal();
        }
    }

    /// Records `n` control blocks entering a terminal state (stuck
    /// detection stays O(1) by never recounting).
    fn note_terminals(&mut self, instance: &str, n: usize) {
        if let Some(rt) = self.instances.get_mut(instance) {
            rt.nonterminal = rt.nonterminal.saturating_sub(n);
        }
    }
}

/// Why an instance stops on `task`'s block that does not decode.
fn block_fault(plan: &Plan, task: TaskId, fault: &TxError) -> String {
    let path = plan.str(plan.task(task).path);
    format!("control block storage fault at `{path}`: {fault}")
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
    /// [`EngineConfig::observe`] is [`flowscript_obs::ObserveLevel::Trace`].
    pub fn recorder(&self) -> FlightRecorder {
        self.inner.borrow().recorder.clone()
    }

    /// Ordered dispatch decisions: the recorder's `Dispatch` events,
    /// oldest first. Like the recorder, empty below
    /// [`flowscript_obs::ObserveLevel::Trace`] and bounded by
    /// [`EngineConfig::recorder_capacity`] (a suite that compares traces
    /// checks [`FlightRecorder::dropped`] is zero).
    pub fn dispatch_trace(&self) -> Vec<DispatchRecord> {
        let events = self.inner.borrow().recorder.events();
        events
            .into_iter()
            .filter_map(DispatchRecord::from_event)
            .collect()
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

    /// The node this coordinator runs on.
    pub fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    /// Whether another node has claimed this shard's storage (probes
    /// the log tail, so a zombie that has not noticed yet says yes).
    pub(crate) fn is_fenced(&self) -> bool {
        self.inner.borrow_mut().mgr.probe_fence().is_some()
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
        // A relay unwraps before it re-wraps, so an honest message nests
        // at most one `Forwarded` deep: unwrap that one layer, without
        // recursion, and drop anything still wrapped as a routing loop
        // (however deep the nest, this frame is all it costs).
        let (msg, hops) = match msg {
            EngineMsg::Forwarded { hops, inner, .. } => {
                match flowscript_codec::from_bytes::<EngineMsg>(&inner) {
                    Ok(EngineMsg::Forwarded { .. }) => {
                        self.inner.borrow().metrics.forward_loops.inc();
                        return;
                    }
                    Ok(inner) => (inner, hops),
                    Err(_) => return,
                }
            }
            msg => (msg, 0),
        };
        self.deliver(world, envelope, msg, hops);
    }

    /// Handles one unwrapped engine message that has been relayed
    /// `hops` times already (0 for a direct send).
    fn deliver(&self, world: &mut World, envelope: &Envelope, msg: EngineMsg, hops: u32) {
        match msg {
            EngineMsg::Done(done) => self.route_report(world, PendingEvent::Done(done), hops),
            EngineMsg::Mark(mark) => self.route_report(world, PendingEvent::Mark(mark), hops),
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
            EngineMsg::Dist(msg) => self.on_dist(world, msg),
            EngineMsg::Claim {
                dead,
                epoch,
                writes,
            } => {
                let Some(token) = envelope.reply_token() else {
                    return;
                };
                let result = self.on_claim(world, dead, epoch, writes);
                let reply = EngineMsg::Ack {
                    result: result.map_err(|err| err.to_string()),
                };
                world.rpc_reply_to(token, flowscript_codec::to_bytes(&reply));
            }
            _ => {}
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
}
