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
//! per-object sub-keys (the [`crate::facts`] layout): an instance is its
//! id, which [`crate::keys`] places the plan's derived ordinals under,
//! so a readiness probe is one point read of exactly the bytes it
//! needs, and no commit or probe on the dispatch hot path decodes a
//! whole record or formats a string.
//!
//! # Inputs in, outputs out
//!
//! A shard is a value like every node (`crate::driver`): a
//! [`Coordinator`] does no I/O and reads no clock. Its one door is
//! [`Coordinator::handle`]: an [`Input`] at a virtual time in, the
//! [`Output`]s it owes the world out, in the order owed. What a timer or
//! a call resumes is a [`Timer`] or a [`Call`] the world hands back.
//! An operator's request (a reconfiguration, a repair, a move) is an
//! input too, an [`Op`], and what it came to an output, a [`Report`] or
//! why not, which the driver files on the caller's side.
//!
//! This module holds the shared state ([`Coordinator`]), the door and
//! the helpers every concern uses (`record_event`, the control-block
//! and header reads, `settled`, `pump`). Each child module owns one
//! concern; what it *owns* is private to it, and its documented
//! `pub(super)` functions are the only way in from a sibling:
//!
//! | module | concern | owns |
//! |---|---|---|
//! | `config`, `meta`, `stats` | the types: operator knobs; status, outcome, the instance header and stuck record; counters | — |
//! | `step` | the unit of commit: one action, one frame, one tail, one rollback rule | `Step`, `Effect`, `Launch` |
//! | `window` | the one place a report is applied: a window of reports and its cascade, one step | `BatchWindow` |
//! | `evaluate` | the cascade a step stages: readiness, activation, scope outputs, stuck detection | `Drain` |
//! | `dispatch` | placement; each task's flight, watched, delayed or parked; retries, tickets, cancels | `Dispatcher`, `Flights` |
//! | `admission` | the per-shard instance cap, and a start's fetch, once per shard and version | `Admission`, `AdmissionTicket` |
//! | `lifecycle` | instance start, the pinned source and its plan, loading, monitoring reads, blob collection | `PlanCache` |
//! | `membership` | routing and relays; the book of rounds, each frozen or landed, one name index over them; the claim, the one way an instance changes shards; fleet calls | `Membership`, [`MoveReport`], [`FailoverReport`] |
//! | `package` | what a claim carries: an instance's keyspace packaged, re-keyed, purged | — |
//! | `recovery` | a stored instance coming back, and restart: reopen, reload, re-arm, census, re-send | `Back`, `Census` |
//! | `resident` | the resident set: each runtime by its id, one name index, resolved where a name enters | `Residents` |
//! | `admin` | operator actions on a running instance, one step each: abort, repair, reconfiguration | — |

mod admin;
mod admission;
mod config;
mod dispatch;
mod evaluate;
mod lifecycle;
mod membership;
mod meta;
mod package;
mod recovery;
mod resident;
mod stats;
mod step;
mod window;

use std::collections::BTreeMap;
use std::sync::Arc;

use flowscript_obs::{FlightRecorder, ObsEventKind, Snapshot};
use flowscript_plan::{Plan, TaskId};
use flowscript_sim::{NodeId, ReplyToken, SimDuration, SimTime};
use flowscript_tx::{
    AtomicAction, FactKey, StableStore, StoreKey, TxError, TxId, TxManager, TxMetrics,
};

use crate::driver::{self, Node, TimerId};
use crate::error::EngineError;
use crate::facts;
use crate::keys::{meta_uid, status_uid};
use crate::msg::{self, Attempt, Delivered, EngineMsg};
use crate::reconfig::Reconfig;
use crate::sched::ExecutorSpec;
use crate::shard::ShardMap;
use crate::state::TaskCb;
use crate::value::ObjectVal;

pub use config::{CommitBatch, EngineConfig};
pub use membership::{FailoverReport, MoveReport, MAX_FORWARD_HOPS};

pub(crate) use membership::FLEET_DEADLINE;
pub use meta::{InstanceStatus, Outcome};
pub use stats::{CoordStats, DispatchRecord};

use recovery::{stored_instance_names, stored_instances, Census};
use resident::Residents;
use step::Effects;

use admission::{Admission, AdmissionTicket};
use dispatch::{Dispatcher, Flights};
use lifecycle::PlanCache;
use membership::Membership;
use meta::{InstanceHeader, StuckRecord};
use stats::CoordMetrics;
use window::BatchWindow;

/// What the world, or the operator, feeds a shard.
pub(crate) type Input = driver::Input<Timer, Call, Op>;

/// What a shard owes the world and the operator, in the order owed.
pub(crate) type Output = driver::Output<Timer, Call, Result<Report, EngineError>>;

/// What an armed timer resumes when it goes off.
#[derive(Debug)]
pub(crate) enum Timer {
    /// A flight's one timer: its attempt's watchdog, or the end of the
    /// delay its launch waits out. The task is named by path, the name
    /// that survives a re-lowering.
    Flight(Attempt),
    /// The open commit window's time is up.
    Window,
}

/// What an answered call resumes.
#[derive(Debug)]
pub(crate) enum Call {
    /// An admitted start's fetch of its script from the repository (the
    /// ticket boxed, so that every output stays small).
    Fetch(Box<AdmissionTicket>),
    /// A misdirected start relayed to its owner: the owner's answer goes
    /// back to the client holding this token.
    Relay(ReplyToken),
    /// One claim, by id: a live move's round or an adoption's share,
    /// sent again if no answer comes while someone waits for it.
    Claim(TxId),
    /// A restart's census of one executor: what it still runs for this
    /// shard.
    Census(NodeId),
}

/// An operator's request, answered once by what it came to.
pub(crate) enum Op {
    /// A new version of a running instance's script.
    Reconfigure { instance: String, op: Reconfig },
    /// A fact repair.
    Repair {
        instance: String,
        path: String,
        output: String,
        objects: BTreeMap<String, ObjectVal>,
    },
    /// The abort of a waiting task.
    Abort {
        instance: String,
        path: String,
        outcome: String,
    },
    /// A rebalance to the map `to`, or, given this shard's name, its drain.
    Move { to: ShardMap, drain: Option<String> },
    /// A claim of a dead node's storage for the owners the map names.
    Adopt(StableStore, NodeId, ShardMap),
    /// The flip to `map`, or retirement to a relay if it omits this shard.
    Map(ShardMap),
    /// The caller stopped waiting on the running move or adoption:
    /// nothing more is sent again for it, so no fleet call outlives the
    /// caller's wait by more than an interval.
    GiveUp,
}

/// What a request came to — a move once its last round landed, an
/// adoption once every claim is answered, anything else at once — or,
/// until then, how it progresses.
#[derive(Debug)]
pub(crate) enum Report {
    /// A round of the running move landed, or a claim of the running
    /// adoption was answered `Ok`: the caller's deadline restarts.
    Progress,
    Acted,
    Moved(MoveReport),
    Adopted(FailoverReport),
}

/// Volatile per-instance runtime state (rebuilt on recovery).
struct InstanceRt {
    /// The instance's name, shared with every trace, reply and timer
    /// that spells it.
    name: Arc<str>,
    /// The compiled execution plan all hot paths run off: the pinned
    /// source compiled, shared through the shard's [`PlanCache`] with
    /// every instance of the same version (a reconfiguration swaps in
    /// the plan of the script's new version).
    plan: Arc<Plan>,
    /// The instance's id, from its header: the namespace of its fact and
    /// control-block keys, which `crate::keys` resolves through the plan
    /// (a reconfiguration keeps it; a move re-keys it and loads anew).
    id: u32,
    /// One record per task with outstanding work (`dispatch`'s, keyed
    /// by the plan's dense task ids and re-keyed with the plan).
    flights: Flights,
    /// Whether the instance is settled — its root terminated or it is
    /// parked `Stuck` — mirrored from the store, refreshed right after
    /// every commit that settles or revives it (see
    /// [`Coordinator::note_status`]). The drain tests it once per
    /// worklist step.
    terminal: bool,
    /// A fact may sit below a scope that has not activated — an operator
    /// published (`repair_fact`, `abort_waiting_task`), or this runtime
    /// was loaded from the store, which does not say: an activation then
    /// enables every constituent, not only [`Plan::activation_seeds`].
    planted: bool,
}

/// The execution service state of one shard: inputs in, outputs out
/// ([`Coordinator::handle`]). What it holds is its own, or shared only
/// through an `Arc` where sharing is real (a plan, the disk), so a
/// shard is `Send` — checked below, at build.
pub struct Coordinator {
    node: NodeId,
    repo: NodeId,
    /// Executor loads, observed costs and the ready queue's order.
    dispatcher: Dispatcher,
    /// The admission cap's queue and occupancy counts.
    admission: Admission,
    /// The shard map and the rounds this shard sources, frozen or landed.
    membership: Membership,
    config: EngineConfig,
    mgr: TxManager<StableStore>,
    storage: StableStore,
    /// The resident instances, by id, and the one name index.
    instances: Residents,
    plan_cache: PlanCache,
    commits: u64,
    /// `commits` as of the last checkpoint — the once-per-drain
    /// threshold check works off the delta (see
    /// [`Coordinator::maybe_checkpoint`]).
    commits_at_checkpoint: u64,
    /// The open commit window: buffered executor reports, the armed
    /// flush timer and batch ids.
    window: BatchWindow,
    /// The last published step's effects vector, emptied: the next step
    /// stages into it.
    spare_effects: Effects,
    /// Emptied `Drain::flying` buffers, one per drain a step held at
    /// once: the next drains fill them.
    spare_flying: Vec<Vec<TaskId>>,
    /// The `coord.*` and `sched.*` metrics (the [`TxManager`] owns the
    /// `tx.*` and `wal.*` ones). Like the recorder, they survive
    /// [`Coordinator::recover`], which moves the manager's into the
    /// reopened one. Boxed: kilobytes of cold histogram buckets kept off
    /// the hot fields' cache lines.
    metrics: Box<CoordMetrics>,
    /// The shard's flight recorder. Intentionally NOT reset by
    /// [`Coordinator::recover`]: it models an external telemetry sink,
    /// so a trace spans crashes of the coordinator it describes.
    recorder: FlightRecorder,
    /// Virtual time of the input being handled.
    now: SimTime,
    /// What the input being handled owes the world so far, in order.
    outbox: Vec<Output>,
    /// The id the next armed timer gets: never reused, restarts
    /// included.
    next_timer: u64,
    /// The dense id the next instance this shard starts or lands takes:
    /// past every id the store holds, seeded from it at open and at
    /// every restart ([`recovery::next_free_id`]), and advanced by each
    /// start and landing that commits. Not stored: the log already says
    /// which ids are taken.
    next_id: u32,
    /// Why the log did not open at the last restart: until one opens
    /// it, the shard holds nothing and answers every start and request
    /// with this ([`Coordinator::refuse`]).
    unopened: Option<EngineError>,
    /// The last restart's census of the executors, until every one has
    /// answered.
    census: Census,
}

// Every node is a value that can move to a thread: a shard, and an
// executor with its driver (it holds its binding table by `Arc`).
const _: fn() = || {
    fn is_send<T: Send>() {}
    is_send::<Coordinator>();
    is_send::<crate::executor::Executor>();
    is_send::<crate::driver::Driver<crate::executor::Executor>>();
};

impl Coordinator {
    /// Opens one shard's coordinator over durable `storage`: `shard`
    /// names every coordinator node (this one included), and this
    /// coordinator serves only the instances the map assigns to `node`,
    /// forwarding the rest. Each executor comes with its optional
    /// `location` label — the scheduler's hard placement constraint —
    /// and its declared capacity. Previous state in `storage` is loaded
    /// by the first [`Input::Restart`].
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
        let recorder = FlightRecorder::new(node.index() as u32, config.recorder_capacity);
        let mut mgr = TxManager::open(node.index() as u32, storage.clone())?;
        *mgr.metrics_mut() = TxMetrics::new(config.observe);
        let next_id = recovery::next_free_id(&mgr, []);
        Ok(Self {
            node,
            repo,
            dispatcher: Dispatcher::new(executors, mgr.next_seq()),
            admission: Admission::default(),
            membership: Membership::new(shard),
            config,
            mgr,
            storage,
            instances: Residents::default(),
            plan_cache: PlanCache::default(),
            commits: 0,
            commits_at_checkpoint: 0,
            window: BatchWindow::default(),
            spare_effects: Effects::new(),
            spare_flying: Vec::new(),
            metrics: Box::default(),
            recorder,
            now: SimTime::ZERO,
            outbox: Vec::new(),
            next_timer: 0,
            next_id,
            unopened: None,
            census: Census::default(),
        })
    }

    fn on_message(&mut self, payload: Vec<u8>, token: Option<ReplyToken>) {
        // A relay unwraps before it re-wraps, so an honest message nests
        // at most one `Forwarded` deep: unwrap that one layer, without
        // recursion, and drop anything still wrapped as a routing loop
        // (however deep the nest, this frame is all it costs). `hops`:
        // the relays the message took (0 for a direct send).
        let Ok((inner, hops)) = msg::unwrap_relay(&payload) else {
            return; // corrupt message: drop, sender will time out / retry
        };
        let message = payload.get(inner.clone()).unwrap_or_default();
        if inner.start > 0 && msg::is_relay(message) {
            self.metrics.stats.forward_loops += 1;
            return;
        }
        // A report is kept in the bytes it arrived in.
        if msg::is_report(message) {
            if let Ok(report) = Delivered::read(payload, inner) {
                self.route_report(report, hops);
            }
            return;
        }
        let Ok(msg) = flowscript_codec::from_bytes::<EngineMsg>(message) else {
            return;
        };
        match (msg, token) {
            (
                EngineMsg::StartInstance {
                    instance,
                    script,
                    version,
                    set,
                    inputs,
                },
                Some(token),
            ) => {
                if let Some(owner) = self.misdirected(&instance) {
                    let relay = EngineMsg::StartInstance {
                        instance: instance.clone(),
                        script,
                        version,
                        set,
                        inputs,
                    };
                    return self.forward_start(owner, &instance, token, relay, hops);
                }
                let ticket = AdmissionTicket {
                    instance,
                    script,
                    version,
                    set,
                    inputs,
                    token,
                    enqueued_ns: self.now.as_nanos(),
                };
                self.admit_or_queue(ticket);
            }
            (
                EngineMsg::Claim {
                    id,
                    epoch,
                    fenced,
                    writes,
                },
                Some(token),
            ) => {
                let result = self.on_claim(id, epoch, fenced, writes);
                let result = result.map_err(|err| err.to_string());
                self.reply(token, &EngineMsg::Ack { result });
            }
            _ => {}
        }
    }

    fn send(&mut self, to: NodeId, msg: &EngineMsg) {
        let bytes = flowscript_codec::to_bytes(msg);
        self.outbox.push(Output::Send { to, bytes });
    }

    fn reply(&mut self, token: ReplyToken, msg: &EngineMsg) {
        let bytes = flowscript_codec::to_bytes(msg);
        self.outbox.push(Output::Reply { token, bytes });
    }

    /// Arms `timer` to come back `after` from now.
    fn arm(&mut self, after: SimDuration, timer: Timer) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.outbox.push(Output::Arm { id, after, timer });
        id
    }

    fn cancel(&mut self, timers: impl IntoIterator<Item = TimerId>) {
        self.outbox.extend(timers.into_iter().map(Output::Cancel));
    }

    fn answer(&mut self, answer: Result<Report, EngineError>) {
        self.outbox.push(Output::Answer(answer));
    }

    /// An operator's request. A move or an adoption answers as it goes;
    /// anything else, at once.
    fn on_op(&mut self, op: Op) {
        let done = match op {
            Op::Reconfigure { instance, op } => self.reconfigure(&instance, op),
            Op::Repair {
                instance,
                path,
                output,
                objects,
            } => self.repair_fact(&instance, &path, &output, objects),
            Op::Abort {
                instance,
                path,
                outcome,
            } => self.abort_waiting_task(&instance, &path, &outcome),
            Op::Move { to, drain } => return self.begin_move(&to, drain),
            Op::Adopt(storage, dead, map) => return self.begin_adoption(storage, dead, &map),
            Op::Map(map) => self.set_shard_map(map),
            Op::GiveUp => {
                self.membership.drop_jobs();
                Ok(())
            }
        };
        self.answer(done.map(|()| Report::Acted));
    }

    /// An input to a shard whose log did not open: a start (or a
    /// claim) and an operator's request are answered with why, anything
    /// else is dropped.
    fn refuse(&mut self, input: Input) {
        let Some(why) = self.unopened.clone() else {
            return;
        };
        match input {
            Input::Message {
                token: Some(token), ..
            } => {
                let result = Err(why.to_string());
                self.reply(token, &EngineMsg::Ack { result });
            }
            Input::Op(_) => self.answer(Err(why)),
            _ => {}
        }
    }

    /// Appends a lifecycle event, stamped now, to the flight recorder
    /// (no-op below
    /// [`ObserveLevel::Trace`](flowscript_obs::ObserveLevel::Trace)).
    fn record_event(
        &mut self,
        instance: &str,
        task: Option<&str>,
        attempt: u32,
        kind: ObsEventKind,
    ) {
        if self.config.observe.trace() {
            let at_ns = self.now.as_nanos();
            self.recorder.record(at_ns, instance, task, attempt, kind);
        }
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
    fn read_cb_id(&self, plan: &Plan, instance_id: u32, task: TaskId) -> Result<TaskCb, TxError> {
        facts::read_block(&self.mgr, None, plan, instance_id, task)
    }

    /// Whether `instance` exists on this shard. The store is the truth,
    /// not residency: an instance a hand-off round holds frozen is
    /// committed here without being resident, and a resident one is
    /// committed too.
    fn holds(&self, instance: &str) -> bool {
        self.mgr.exists_key(&meta_uid(instance))
    }

    /// The committed header of `instance`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownInstance`] if there is none, a storage
    /// error if what is stored does not decode as one.
    fn read_header(&self, instance: &str) -> Result<InstanceHeader, EngineError> {
        let stored = self.mgr.read_committed_key(&meta_uid(instance))?;
        stored.ok_or_else(|| EngineError::UnknownInstance(instance.to_string()))
    }

    /// Refreshes the volatile mirror of whether a commit just settled
    /// instance `id` or revived it.
    fn note_status(&mut self, id: u32, terminal: bool) {
        if let Some(rt) = self.instances.get_mut(id) {
            rt.terminal = terminal;
        }
    }

    /// The release pump: runs after any event that can free executor
    /// capacity or admission headroom — completed/failed/timed-out
    /// tasks, terminal instances, hand-offs, recovery — first draining
    /// the capacity-parked ready queue, then admitting queued starts.
    /// Never called from inside a drain (dispatch cascades would
    /// re-enter); the outer event handlers call it exactly once.
    fn pump(&mut self) {
        self.drain_parked();
        self.admit_from_queue();
    }

    /// Engine counters.
    pub fn stats(&self) -> CoordStats {
        self.metrics.stats
    }

    /// This shard's metrics by name, zeros included: the coordinator's
    /// and scheduler's (`coord.*`, `sched.*`) and its transaction
    /// manager's (`tx.*`, `wal.*` — `tx.prefix_scans` and
    /// `tx.fact_range_scans` are the regression guards a clean run
    /// keeps flat).
    pub fn snapshot(&self) -> Snapshot {
        let mut snapshot = self.metrics.snapshot();
        snapshot.merge(&self.mgr.metrics().snapshot());
        snapshot
    }

    /// This shard's flight recorder. Empty unless
    /// [`EngineConfig::observe`] is [`flowscript_obs::ObserveLevel::Trace`].
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Current log size in bytes (ablation measurements).
    pub fn log_size(&self) -> u64 {
        self.mgr.log_size()
    }

    /// The node this coordinator runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// How many instance names this shard has resolved to ids: a test
    /// hook, which a golden pins per instance.
    #[doc(hidden)]
    pub fn name_resolutions(&self) -> u64 {
        self.instances.resolutions()
    }

    /// Whether another node has claimed this shard's storage (probes
    /// the log tail, so a zombie that has not noticed yet says yes, and
    /// notes what it found: the tail is walked once).
    pub(crate) fn is_fenced(&mut self) -> bool {
        matches!(self.mgr.note_fence(), Ok(Some(_)))
    }
}

impl Node for Coordinator {
    type Timer = Timer;
    type Call = Call;
    type Op = Op;
    type Answer = Result<Report, EngineError>;

    fn node(&self) -> NodeId {
        self.node
    }

    /// The one door. A shard ignores who sent a message: whom it
    /// answers is in the message or its token.
    fn handle(&mut self, now: SimTime, input: Input) -> Vec<Output> {
        self.now = now;
        match input {
            Input::Restart => self.recover(),
            input if self.unopened.is_some() => self.refuse(input),
            // A fenced shard is a zombie: its storage was claimed by another node and
            // its instances run there now. Probe the claim *before* touching any
            // state, so a zombie that never crashed (a false-positive failure
            // detection) is muzzled at the door rather than discovering the fence
            // mid-commit with half-mutated volatile state. Dropped requests time out
            // at the sender, exactly like a down node; buffered reports die with it,
            // the claimant's copies being the truth now. An operator's request
            // passes: the flip that retires a zombie to a relay must reach it.
            // The probe notes what it finds, so a zombie walks its log's
            // tail once, not at every input.
            Input::Message { .. } | Input::Fired(_)
                if matches!(self.mgr.note_fence(), Ok(Some(_))) => {}
            Input::Message { payload, token, .. } => self.on_message(payload, token),
            Input::Fired(Timer::Flight(at)) => self.on_flight_timer(&at),
            Input::Fired(Timer::Window) => self.on_batch_window(),
            Input::Answered(Call::Fetch(ticket), answer) => self.on_fetched(*ticket, answer),
            Input::Answered(Call::Relay(token), answer) => self.on_relayed(token, answer),
            Input::Answered(Call::Claim(id), answer) => self.on_claim_answered(id, answer),
            Input::Answered(Call::Census(node), answer) => self.on_census(node, answer),
            Input::Op(op) => self.on_op(op),
        }
        std::mem::take(&mut self.outbox)
    }
}

/// Whether `instance` is settled as `action` reads `mgr` — parked
/// `Stuck`, its stuck record present, or its root block (dense id `id`)
/// saying `Done`/`Aborted`. Reads no plan: recovery and adoption decide
/// running vs settled before one is built.
fn settled(
    mgr: &TxManager<StableStore>,
    action: Option<&AtomicAction>,
    instance: &str,
    id: u32,
) -> bool {
    let root = StoreKey::Fact(FactKey::control(id, 0));
    mgr.read_through(action, &status_uid(instance)).is_some()
        || mgr
            .read_through(action, &root)
            .is_some_and(facts::block_settled)
}

/// Why an instance stops on `task`'s block that does not decode.
fn block_fault(plan: &Plan, task: TaskId, fault: &TxError) -> String {
    let path = plan.str(plan.task(task).path);
    format!("control block storage fault at `{path}`: {fault}")
}

#[cfg(test)]
mod tests {
    use flowscript_tx::SharedStorage;

    use super::*;
    use crate::msg::{StartTask, TaskReport, TaskResult};
    use crate::value::ObjectVal;

    /// One leaf under the root, handing the seed back as the result.
    const ECHO: &str = r#"
class Message;

taskclass Echo {
    inputs { input main { seed of class Message } };
    outputs { outcome echoed { seed of class Message } }
}

taskclass Root {
    inputs { input main { seed of class Message } };
    outputs { outcome done { result of class Message } }
}

compoundtask root of taskclass Root {
    task echo of taskclass Echo {
        implementation { "code" is "refEcho" };
        inputs {
            input main {
                inputobject seed from { seed of task root if input main }
            }
        }
    };
    outputs {
        outcome done {
            outputobject result from { seed of task echo if output echoed }
        }
    }
}
"#;

    fn decoded(bytes: &[u8]) -> EngineMsg {
        flowscript_codec::from_bytes(bytes).expect("an engine message")
    }

    /// A shard needs no world to run: fed a start, the repository's
    /// answer and an executor's report by hand, it
    /// answers each with exactly the outputs a driver would carry out.
    #[test]
    fn a_shard_runs_on_inputs_alone() {
        let [client, repo, here, executor] = [0, 1, 2, 3].map(NodeId::from_index);
        let mut shard = Coordinator::open(
            here,
            repo,
            vec![ExecutorSpec::unbounded(executor)],
            EngineConfig::default(),
            SharedStorage::new(),
            ShardMap::new(vec![here]),
        )
        .expect("empty storage opens");
        let at = SimTime::from_nanos;
        let seed = ObjectVal::text("Message", "hi");

        // The client's start: the shard asks the repository for the
        // script, and nothing else.
        let start = EngineMsg::StartInstance {
            instance: "i".into(),
            script: "echo".into(),
            version: None,
            set: "main".into(),
            inputs: BTreeMap::from([("seed".to_string(), seed.clone())]),
        };
        let payload = flowscript_codec::to_bytes(&start);
        let token = Some(ReplyToken::new(here, client, 7));
        let message = Input::Message {
            from: client,
            payload,
            token,
        };
        let outputs = shard.handle(at(0), message);
        let [Output::Call {
            to, bytes, call, ..
        }] = <[Output; 1]>::try_from(outputs).unwrap()
        else {
            panic!("a call to the repository, and nothing else");
        };
        assert_eq!(to, repo);
        assert!(matches!(decoded(&bytes), EngineMsg::RepoGet { name, .. } if name == "echo"));

        // The repository's answer: the start commits, `echo` ships with
        // its watchdog armed first, and then the client hears `Ack`.
        let answer = EngineMsg::RepoReply {
            result: Ok(1),
            source: ECHO.into(),
            root: "root".into(),
        };
        let answer = Ok(flowscript_codec::to_bytes(&answer));
        let outputs = shard.handle(at(10), Input::Answered(call, answer));
        let [watchdog, dispatch, ack] = <[Output; 3]>::try_from(outputs).unwrap();
        let Output::Arm {
            id: watchdog,
            timer: Timer::Flight(watched),
            ..
        } = watchdog
        else {
            panic!("the watchdog first: {watchdog:?}");
        };
        assert_eq!(&*watched.path, "root/echo");
        let Output::Send { to, bytes } = dispatch else {
            panic!("then the dispatch: {dispatch:?}");
        };
        assert_eq!(to, executor);
        let Some(StartTask {
            at: shipped,
            ticket,
            ..
        }) = crate::msg::start_in(&bytes)
        else {
            panic!("a `StartTask`");
        };
        assert_eq!(shipped, watched, "watched under the address shipped");
        assert!(matches!(
            ack,
            Output::Reply { bytes, .. } if decoded(&bytes) == EngineMsg::Ack { result: Ok(()) }
        ));

        // The executor's report is the only one the shard awaits: it
        // commits on arrival, the instance with it, and all the world
        // hears of it is the watchdog cancelled.
        let done = EngineMsg::Report(TaskReport {
            at: shipped,
            ticket,
            result: TaskResult::Output {
                name: "echoed".into(),
                objects: crate::msg::Objects::of(&BTreeMap::from([("seed".to_string(), seed)])),
                redo_after: SimDuration::ZERO,
            },
        });
        let payload = flowscript_codec::to_bytes(&done);
        let message = Input::Message {
            from: executor,
            payload,
            token: None,
        };
        let outputs = shard.handle(at(20), message);
        assert!(matches!(&outputs[..], [Output::Cancel(id)] if *id == watchdog));
        match shard.status("i") {
            Ok(InstanceStatus::Completed(outcome)) => {
                assert_eq!(outcome.name, "done");
                assert_eq!(outcome.objects["result"].as_text(), "hi");
            }
            other => panic!("expected the root's outcome, got {other:?}"),
        }
    }

    /// A move needs no world either. Handed `Op::Move`, the source sends
    /// its claim; fed that claim, the destination lands it and answers;
    /// fed the answer, the source tells the operator — a progress tick
    /// for the round, then the report — and the flip settles the round's
    /// move record.
    #[test]
    fn a_move_runs_on_inputs_alone() {
        let [client, repo, here, there, executor] = [0, 1, 2, 3, 4].map(NodeId::from_index);
        let before = ShardMap::new(vec![here]);
        let mut after = before.clone();
        after.add_node(there);
        let mut names = (0..).map(|i| format!("i{i}"));
        let instance = names.find(|n| after.node_of(n) == there).unwrap();
        let open = |node, map| {
            let executors = vec![ExecutorSpec::unbounded(executor)];
            let (config, storage) = (EngineConfig::default(), SharedStorage::new());
            Coordinator::open(node, repo, executors, config, storage, map).expect("opens")
        };
        let (mut source, mut dest) = (open(here, before), open(there, after.clone()));
        let at = SimTime::from_nanos;

        // The start, by hand: the client's request, the repository's answer.
        let start = EngineMsg::StartInstance {
            instance: instance.clone(),
            script: "echo".into(),
            version: None,
            set: "main".into(),
            inputs: BTreeMap::from([("seed".to_string(), ObjectVal::text("Message", "hi"))]),
        };
        let payload = flowscript_codec::to_bytes(&start);
        let token = Some(ReplyToken::new(here, client, 7));
        let message = Input::Message {
            from: client,
            payload,
            token,
        };
        let outputs = source.handle(at(0), message);
        let [Output::Call { call, .. }] = <[Output; 1]>::try_from(outputs).unwrap() else {
            panic!("the repository's fetch, and nothing else");
        };
        let answer = EngineMsg::RepoReply {
            result: Ok(1),
            source: ECHO.into(),
            root: "root".into(),
        };
        let answer = Ok(flowscript_codec::to_bytes(&answer));
        source.handle(at(10), Input::Answered(call, answer));
        assert!(source.instances.named(&instance).is_some(), "running");

        // The move: the source freezes the instance and sends its claim.
        let op = Op::Move {
            to: after.clone(),
            drain: None,
        };
        let outputs = source.handle(at(20), Input::Op(op));
        let claim = outputs.into_iter().find_map(|output| match output {
            Output::Call {
                to, bytes, call, ..
            } => Some((to, bytes, call)),
            _ => None,
        });
        let Some((to, payload, call)) = claim else {
            panic!("the claim");
        };
        assert_eq!(to, there);
        assert!(source.instances.named(&instance).is_none(), "frozen");

        // The claim, at the destination: landed, and answered.
        let token = Some(ReplyToken::new(there, here, 8));
        let message = Input::Message {
            from: here,
            payload,
            token,
        };
        let outputs = dest.handle(at(30), message);
        let reply = outputs.into_iter().find_map(|output| match output {
            Output::Reply { bytes, .. } => Some(bytes),
            _ => None,
        });
        let reply = reply.expect("the claim's answer");
        assert!(dest.instances.named(&instance).is_some(), "landed");

        // Its answer, at the source: what the operator hears.
        let outputs = source.handle(at(40), Input::Answered(call, Ok(reply)));
        let answers: Vec<_> = outputs
            .into_iter()
            .filter_map(|output| match output {
                Output::Answer(answer) => Some(answer),
                _ => None,
            })
            .collect();
        let [Ok(Report::Progress), Ok(Report::Moved(report))] = &answers[..] else {
            panic!("a progress tick, then the report: {answers:?}");
        };
        assert_eq!((report.moved, report.rounds), (1, 1));

        // The flip: the landed round's record goes.
        let records = |shard: &Coordinator| shard.mgr.uids_with_prefix(crate::keys::MOVE_PREFIX);
        assert_eq!(records(&source).len(), 1, "landed, kept until the flip");
        for shard in [&mut source, &mut dest] {
            let outputs = shard.handle(at(50), Input::Op(Op::Map(after.clone())));
            assert!(matches!(&outputs[..], [Output::Answer(Ok(Report::Acted))]));
        }
        assert!(records(&source).is_empty(), "settled by the flip");
    }
}
