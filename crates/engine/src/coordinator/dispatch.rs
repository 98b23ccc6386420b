//! Dispatch: placement on the executor fleet, the capacity-parked ready
//! queue, watchdogs, and what an attempt that ends with no outcome
//! stages — a bounded retry under a bumped attempt, or `Failed`.
//!
//! Its volatile state is private to this module: the shard's
//! [`Dispatcher`] (executor loads, observed costs, the ready queue's
//! order) and, per instance, [`Flights`]: one record per task with
//! outstanding work, in exactly one of three states, each holding at
//! most one timer:
//! - **watched**: on the wire, or awaited where it already runs (a
//!   restart's or a landing's watch), under its watchdog and charged the
//!   load it runs at here, if any;
//! - **delayed**: its launch waits out a back-off or a repeat's delay
//!   under the timer that ships it;
//! - **parked**: its launch waits behind saturated executors under its
//!   queue key, and holds no timer.
//!
//! Entering a state ends the one left ([`Dispatcher::enter`]): its timer
//! is cancelled, its load released, its queue entry dropped by key. A
//! task is its dense [`TaskId`]: a timer names its [`Attempt`] by path,
//! resolved against the instance's current plan where it enters, and a
//! reconfiguration re-keys the records ([`Coordinator::replan`]).
//!
//! An attempt on the wire carries a **ticket**, the shard's name for it:
//! when the shard drops the attempt unfinished — its scope cancelled or
//! reset, its outcome forced, its task reconfigured away, its watchdog
//! fired — one [`EngineMsg::Cancel`] with that ticket, sent once the step
//! commits, stops the work at its executor; an instance leaving the shard
//! cancels nothing, its next owner being owed that work. Tickets are
//! volatile and never reused, restarts included: a life whose log opened
//! at sequence number `s` counts from `s << 32`. Every attempt a life
//! ships follows a commit of its own — a step's publish, a delay or a
//! park it left, or a census re-send behind the shard-life key
//! ([`Coordinator::stage_life`]), so a refused append ships none — and
//! so a life that shipped anything moved the log past `s`: the next
//! counts from a higher base (one life ships fewer than 2^32), and an
//! executor's `(shard, ticket)` index never holds two attempts under one
//! name. An attempt the census claims ([`Coordinator::claim_running`])
//! keeps the ticket an earlier life shipped it under, below this life's
//! base; the census's cancels, like every other, go out from here.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

use flowscript_codec::ByteWriter;
use flowscript_core::ast::OutputKind;
use flowscript_obs::ObsEventKind;
use flowscript_plan::{Plan, TaskId};
use flowscript_sim::{NodeId, SimDuration};
use flowscript_tx::{FactKey, TxError};

use super::evaluate::Drain;
use super::step::{Effect, Launch, Step};
use super::{block_fault, Coordinator, InstanceRt, Timer, TimerId};
use crate::error::EngineError;
use crate::facts;
use crate::keys::{self, in_key};
use crate::msg::{Attempt, EngineMsg, StartTask};
use crate::sched::{CostModel, ExecutorSlot, ExecutorSpec, ImplHints, SchedPolicy, Scheduler};
use crate::state::{CbState, TaskCb};
use crate::value::ObjectVal;

/// Scheduler accounting for the attempt on the wire: where it went
/// and under which ticket, the load cost it was charged at (the unit of
/// remaining-work accounting), the virtual send time (dispatch-latency
/// metric and cost-model sample base) and the implementation code that
/// ran (the [`CostModel`] EWMA key).
#[derive(Debug)]
struct Charge {
    node: NodeId,
    ticket: u64,
    cost: u64,
    sent_ns: u64,
    code: String,
}

/// A parked record's place in the ready queue: `(priority desc,
/// arrival)`.
type QueueKey = (Reverse<i64>, u64);

/// Where one task's outstanding work stands: the module doc's three
/// states, each holding at most one timer.
#[derive(Debug)]
enum State {
    /// On the wire or awaited where it runs: its watchdog, if armed, and
    /// its charge here, if any. A watchdog that fired (the retry not yet
    /// staged) and one over a load charged on another shard's books (a
    /// landed instance) are this state too.
    Watched(Option<TimerId>, Option<Charge>),
    /// Waiting out a delay: the timer that ships the launch (boxed, like
    /// a parked one, so that a watched record does not grow).
    Delayed(TimerId, Box<Launch>),
    /// In the ready queue behind saturated executors.
    Parked(Box<Parked>),
}

impl Default for State {
    /// Watched by nothing, charged nothing: a record between states.
    fn default() -> Self {
        State::Watched(None, None)
    }
}

impl State {
    /// The load charged here, if any.
    fn charge(&self) -> Option<&Charge> {
        match self {
            State::Watched(_, charge) => charge.as_ref(),
            _ => None,
        }
    }
}

/// A parked launch: its queue key, the hints its eligibility is
/// re-checked against as the queue drains, and its virtual park time
/// (`sched.queue_wait_ns` sample base).
#[derive(Debug)]
struct Parked {
    key: QueueKey,
    launch: Launch,
    hints: ImplHints,
    since_ns: u64,
}

/// One task's outstanding work, in one [`State`]: watched, delayed or
/// parked. A present record *is* "outstanding" — stuck detection and the
/// drain oracle read presence, nothing else.
#[derive(Debug, Default)]
struct Flight {
    state: State,
    /// The node the most recent *failed* attempt ran on; consumed by
    /// the next placement so the retry relocates whenever an eligible
    /// alternative exists (service relocation, §3).
    avoid: Option<NodeId>,
}

/// The flight records of one instance, keyed by the dense task id of
/// its current plan.
#[derive(Debug, Default)]
pub(super) struct Flights(BTreeMap<TaskId, Flight>);

impl Flights {
    /// The tasks with outstanding work.
    pub(super) fn outstanding(&self) -> Vec<TaskId> {
        self.0.keys().copied().collect()
    }
}

/// The shard-wide half of dispatch state. Volatile by design: recovery
/// resets it and the re-dispatches rebuild it.
pub(super) struct Dispatcher {
    /// Load-aware executor selection over the shared fleet (each shard
    /// keeps its own load view; no cross-shard coordination on the
    /// dispatch hot path).
    sched: Scheduler,
    /// Observed-duration feedback: per-code EWMA of real completion
    /// times, sampled at every genuine completion's release. An estimate,
    /// not state: where it is empty the declared hints carry placement.
    costs: CostModel,
    /// The ready queue: each parked record's instance and task, in the
    /// order the queue drains. Drained whenever a release frees a slot.
    queue: BTreeMap<QueueKey, (String, TaskId)>,
    /// Arrival tie-break for queue keys.
    park_seq: u64,
    /// The ticket the next attempt shipped takes.
    next_ticket: u64,
}

/// What dropping unfinished records leaves to do: the timers to cancel,
/// and each attempt still on the wire, by executor and ticket.
#[derive(Default)]
pub(super) struct Dropped {
    timers: Vec<TimerId>,
    attempts: Vec<(NodeId, u64)>,
}

impl Dispatcher {
    /// A dispatcher for a shard whose log opened at `next_seq`.
    pub(super) fn new(executors: Vec<ExecutorSpec>, next_seq: u64) -> Self {
        Self {
            sched: Scheduler::new(executors, SchedPolicy::default()),
            costs: CostModel::new(),
            queue: BTreeMap::new(),
            park_seq: 0,
            next_ticket: next_seq << 32,
        }
    }

    /// A new life of the shard, its log reopened at `next_seq`: tickets
    /// count from a base no earlier life used (the module doc says why).
    pub(super) fn reopened(&mut self, next_seq: u64) {
        self.next_ticket = next_seq << 32;
    }

    /// The in-flight view and the ready queue died with the process:
    /// re-dispatches rebuild the loads, and parked tasks committed
    /// `Executing`, so they re-dispatch too — re-parking if the fleet is
    /// still saturated. The cost estimates are kept: nothing depends on
    /// them, and the declared hints would only carry placement until
    /// they re-converged.
    pub(super) fn reset(&mut self) {
        self.sched.reset_loads();
        self.queue.clear();
        self.park_seq = 0;
    }

    /// The executor fleet, in registration order.
    pub(super) fn executors(&self) -> Vec<NodeId> {
        let slots = self.sched.snapshot();
        slots.into_iter().map(|slot| slot.node).collect()
    }

    /// The dispatches on the wire whose reports this shard awaits — the
    /// loads it charged and has not released.
    pub(super) fn in_flight(&self) -> u32 {
        self.sched.in_flight()
    }

    /// Puts `flight` in `state`, ending the state it leaves: a parked
    /// launch leaves the queue and a charged load is released. Returns
    /// what the caller still owes: the timer it held, to cancel, and the
    /// released charge, whose attempt may still run.
    fn enter(&mut self, flight: &mut Flight, state: State) -> (Option<TimerId>, Option<Charge>) {
        match std::mem::replace(&mut flight.state, state) {
            State::Watched(watchdog, charge) => {
                if let Some(charge) = &charge {
                    self.sched.note_release(charge.node, charge.cost);
                }
                (watchdog, charge)
            }
            State::Delayed(timer, _) => (Some(timer), None),
            State::Parked(parked) => {
                self.queue.remove(&parked.key);
                (None, None)
            }
        }
    }

    /// Drops the records of `tasks` — none of them completed — with
    /// their load and queue entries (a cancelled task's parked launch
    /// must never run): their timers and attempts on the wire are left
    /// to cancel.
    fn discard(&mut self, flights: &mut Flights, tasks: impl Iterator<Item = TaskId>) -> Dropped {
        let mut dropped = Dropped::default();
        for mut flight in tasks.filter_map(|task| flights.0.remove(&task)) {
            let (timer, charge) = self.enter(&mut flight, State::default());
            dropped.timers.extend(timer);
            dropped.attempts.extend(charge.map(|c| (c.node, c.ticket)));
        }
        dropped
    }

    /// Moves every record of an instance from its task id under the old
    /// plan to `to(old)`, a parked one's queue entry with it; the
    /// records of tasks the new plan no longer has are discarded.
    fn rekey(&mut self, flights: &mut Flights, to: impl Fn(TaskId) -> Option<TaskId>) -> Dropped {
        let mut removed = flights.outstanding();
        removed.retain(|&old| to(old).is_none());
        let dropped = self.discard(flights, removed.into_iter());
        for (old, flight) in std::mem::take(&mut flights.0) {
            let new = to(old).expect("a removed task's record is discarded");
            if let State::Parked(parked) = &flight.state {
                self.queue.get_mut(&parked.key).expect("queued").1 = new;
            }
            flights.0.insert(new, flight);
        }
        dropped
    }

    /// Releases every record of an instance leaving this shard
    /// (hand-off, purge), its queue entries with them — whoever owns it
    /// next re-arms from its committed control blocks, and is owed the
    /// work on the wire, so none is cancelled. Returns the timers to
    /// cancel.
    pub(super) fn release_all(&mut self, mut flights: Flights) -> Vec<TimerId> {
        let tasks = flights.outstanding();
        self.discard(&mut flights, tasks.into_iter()).timers
    }
}

/// What one dispatch of a task ships and how long it may take.
struct Shipment {
    /// The implementation code its script names.
    code: String,
    implementation: BTreeMap<String, String>,
    hints: ImplHints,
    /// The load it is charged at: the observed estimate when the cost
    /// model has one, else the declared remaining-work cost.
    cost: u64,
    /// Watchdog: base timeout extended by the declared duration — or by
    /// the observed estimate when that is *longer* (a lying short hint
    /// must not time out healthy work) — capped by the declared
    /// deadline.
    timeout: SimDuration,
}

impl Coordinator {
    /// The code → hints → watchdog timeout derivation, shared by a fresh
    /// dispatch and the re-arming of an adopted instance.
    fn shipment(&self, rt: &InstanceRt, task: TaskId) -> Shipment {
        let task = rt.plan.task(task);
        let code = rt.plan.code(task).unwrap_or("").to_string();
        let implementation = rt.plan.implementation_map(task);
        let hints = ImplHints::from_map(&implementation);
        let costs = &self.dispatcher.costs;
        let timeout = costs.watchdog_timeout(&code, &hints, self.config.dispatch_timeout);
        let cost = costs.load_cost(&code, &hints);
        Shipment {
            code,
            implementation,
            hints,
            cost,
            timeout,
        }
    }

    /// The objects of a committed fact a re-dispatch ships (none when
    /// the fact is absent); `Err` when the stored bytes do not decode —
    /// a fault, which must not read as "fact absent".
    fn read_fact(
        &self,
        plan: &Plan,
        key: Option<FactKey>,
    ) -> Result<BTreeMap<String, ObjectVal>, TxError> {
        match key {
            Some(key) => Ok(facts::read_fact_map(&self.mgr, plan, key)?.unwrap_or_default()),
            None => Ok(BTreeMap::new()),
        }
    }

    /// What a re-dispatch ships: the bound inputs, and the objects of
    /// every repeat outcome the task took (re-readable from its
    /// repeat-outcome facts).
    fn redispatch_objects(
        &self,
        plan: &Plan,
        instance_id: u32,
        task_id: TaskId,
        set: &str,
    ) -> Result<[BTreeMap<String, ObjectVal>; 2], TxError> {
        let inputs = self.read_fact(plan, in_key(plan, instance_id, task_id, set))?;
        let mut repeat_objects = BTreeMap::new();
        let class = plan.class_of(plan.task(task_id));
        for (ordinal, output) in plan.class_outputs[class.outputs.as_range()]
            .iter()
            .enumerate()
        {
            if output.kind == OutputKind::RepeatOutcome {
                let key = FactKey::output(instance_id, task_id, ordinal as u32);
                repeat_objects.extend(self.read_fact(plan, Some(key))?);
            }
        }
        Ok([inputs, repeat_objects])
    }

    /// Stages the next attempt of `task` under `cb` — staged `Executing`
    /// by the caller — shipped once `after` is over, at once when `None`,
    /// with the bound inputs and `repeat_objects`: the repeat outcome
    /// just taken, else whatever the task's repeat facts hold. A fact
    /// that does not decode parks the instance instead: running the task
    /// on empty inputs would be a silent misread.
    pub(super) fn stage_launch(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        task: TaskId,
        cb: &TaskCb,
        repeat_objects: Option<&BTreeMap<String, ObjectVal>>,
        after: Option<SimDuration>,
    ) -> Result<(), EngineError> {
        let CbState::Executing { set } = &cb.state else {
            return Ok(());
        };
        let (plan, instance_id) = (drain.plan, drain.id);
        let gathered = match repeat_objects {
            Some(objects) => self
                .read_fact(plan, in_key(plan, instance_id, task, set))
                .map(|inputs| [inputs, objects.clone()]),
            None => self.redispatch_objects(plan, instance_id, task, set),
        };
        let [inputs, repeat_objects] = match gathered {
            Ok(gathered) => gathered,
            Err(fault) => {
                return self.park_stuck(step, drain, format!("fact storage fault: {fault}"));
            }
        };
        let launch = Launch {
            incarnation: cb.incarnation,
            attempt: cb.attempt,
            set: set.clone(),
            inputs,
            repeat_objects,
        };
        if !drain.flying.contains(&task) {
            drain.flying.push(task);
        }
        let shipped = match after {
            Some(delay) => Effect::Later(task, delay, launch),
            None => Effect::Dispatch(task, launch),
        };
        step.push(&drain.name, shipped);
        Ok(())
    }

    /// Stages the end of an attempt of `task` that brought no outcome —
    /// its executor `reported` an error, or its watchdog fired: a
    /// bounded retry (one more retry spent, the bumped attempt
    /// re-dispatched after an exponential back-off, away from the node it
    /// died on) or, the budget spent, `Failed`. Only retries spend the
    /// budget: a repeat's bumped attempt does not, and a restart bumps
    /// none. `cb` is the block as the step reads it; `reported`, the
    /// ticket of the copy whose error report ended the attempt, if one
    /// did.
    pub(super) fn stage_lost(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        task: TaskId,
        mut cb: TaskCb,
        reason: &str,
        reported: Option<u64>,
    ) -> Result<(), EngineError> {
        if cb.retries >= self.config.max_retries {
            return self.stage_failure(step, drain, task, cb, reason, reported);
        }
        cb.retries += 1;
        cb.attempt += 1;
        let action = step.action(&mut self.mgr);
        facts::write_block(&mut self.mgr, action, drain.plan, drain.id, task, &cb)?;
        step.push(&drain.name, Effect::Lost(task, reported));
        step.push(&drain.name, Effect::Count(|stats| &mut stats.retries));
        let path = drain.plan.str(drain.plan.task(task).path);
        self.trace(step, &drain.name, Some(path), cb.attempt, || {
            ObsEventKind::Retry {
                reason: reason.to_string(),
            }
        });
        let backoff = self
            .config
            .retry_backoff
            .saturating_mul(1 << (cb.retries.min(16) - 1));
        self.stage_launch(step, drain, task, &cb, None, Some(backoff))
    }

    /// Stages `task` permanently `Failed` (retries exhausted, or nothing
    /// a retry could fix) and the end of its flight — a completion's
    /// when a copy shipped under the ticket `reported` reported it. A
    /// failure publishes no fact: nothing new can become satisfied, but
    /// the instance may now be stuck.
    pub(super) fn stage_failure(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        task: TaskId,
        mut cb: TaskCb,
        why: &str,
        reported: Option<u64>,
    ) -> Result<(), EngineError> {
        cb.transition(CbState::Failed {
            reason: why.to_string(),
        });
        let action = step.action(&mut self.mgr);
        facts::write_block(&mut self.mgr, action, drain.plan, drain.id, task, &cb)?;
        let landed = match reported {
            Some(ticket) => Effect::Completed(task, ticket),
            None => Effect::Discard(task..task + 1),
        };
        step.push(&drain.name, landed);
        drain.lands(task);
        step.push(&drain.name, Effect::Count(|stats| &mut stats.failures));
        let path = drain.plan.str(drain.plan.task(task).path);
        self.trace(step, &drain.name, Some(path), cb.attempt, || {
            self.commit_event(format!("failed: {why}"))
        });
        Ok(())
    }

    /// The record of `task`, created if it has none: the task has
    /// outstanding work from here on.
    fn flight_mut(&mut self, instance: &str, task: TaskId) -> Option<&mut Flight> {
        let rt = self.instances.get_mut(instance)?;
        Some(rt.flights.0.entry(task).or_default())
    }

    /// Puts `instance`'s record of `task`, created if it has none, in
    /// `state` ([`Dispatcher::enter`]): the timer it held, to cancel.
    fn enter(&mut self, instance: &str, task: TaskId, state: State) -> Option<TimerId> {
        let rt = self.instances.get_mut(instance)?;
        self.dispatcher
            .enter(rt.flights.0.entry(task).or_default(), state)
            .0
    }

    /// A genuine executor report ended `charge`'s attempt: its elapsed
    /// time feeds the `coord.dispatch_latency_ns` histogram and the cost
    /// model. Time-outs, failures and sweeps teach neither.
    fn observe(&mut self, charge: &Charge) {
        let Some(elapsed) = self.now.as_nanos().checked_sub(charge.sent_ns) else {
            return;
        };
        self.dispatcher.costs.observe(&charge.code, elapsed);
        if self.config.observe.metrics() {
            self.metrics.dispatch_latency_ns.record(elapsed);
        }
    }

    /// How long ago this shard shipped the attempt of `instance`'s task
    /// at `path` that it has charged; zero when it charged none (a
    /// relayed report's, a landed instance's).
    pub(super) fn attempt_age(&self, instance: &str, path: &str) -> SimDuration {
        let rt = self.instances.get(instance);
        let flight = rt.and_then(|rt| rt.flights.0.get(&rt.plan.task_by_path(path)?));
        let sent_ns = flight.and_then(|flight| Some(flight.state.charge()?.sent_ns));
        let age = sent_ns.map_or(0, |sent| self.now.as_nanos().saturating_sub(sent));
        SimDuration::from_nanos(age)
    }

    /// Stages the shard-life key, a varint of the sequence number this
    /// life's tickets count from: a restart's re-sends then follow a
    /// commit of their own, as every attempt a life ships must (the
    /// module doc says why), and a refused append rolls them back with
    /// it.
    pub(super) fn stage_life(&mut self, step: &mut Step) -> Result<(), EngineError> {
        let mut life = ByteWriter::with_capacity(4);
        life.put_var_u64(self.dispatcher.next_ticket >> 32);
        let action = step.action(&mut self.mgr);
        Ok(self
            .mgr
            .write_key_raw(action, &keys::life_uid(), life.into_vec())?)
    }

    /// The committed control blocks of `instance` sitting in
    /// `Executing`, by task id: what a restart re-dispatches and an
    /// adoption re-arms watchdogs for.
    ///
    /// # Errors
    ///
    /// Why the instance must stop instead: a block that does not decode
    /// may be an attempt on the wire.
    pub(super) fn executing(&self, instance: &str) -> Result<Vec<(TaskId, TaskCb)>, String> {
        let Some(rt) = self.instances.get(instance) else {
            return Ok(Vec::new());
        };
        let mut executing = Vec::new();
        for id in 0..rt.plan.tasks.len() as TaskId {
            match self.read_cb_id(&rt.plan, rt.id, id) {
                Ok(cb) if matches!(cb.state, CbState::Executing { .. }) => executing.push((id, cb)),
                Ok(_) => {}
                Err(fault) => return Err(block_fault(&rt.plan, id, &fault)),
            }
        }
        Ok(executing)
    }

    /// The books balance (debug-build oracle, asserted after every
    /// drain): each flight record of `instance` belongs to a task of
    /// its current plan whose committed control block is `Executing`,
    /// and its queue entries are its parked records, each under its key.
    #[cfg(debug_assertions)]
    pub(super) fn assert_flights_consistent(&self, instance: &str) {
        let Some(rt) = self.instances.get(instance) else {
            return;
        };
        let mut parked = 0;
        for (&task, flight) in &rt.flights.0 {
            let known = rt.plan.tasks.get(task as usize);
            let cb = known.and_then(|_| self.read_cb_id(&rt.plan, rt.id, task).ok());
            assert!(
                matches!(&cb, Some(cb) if matches!(cb.state, CbState::Executing { .. })),
                "flight record {task} of `{instance}` has no `Executing` task in its \
                 {}-task plan: {cb:?}",
                rt.plan.tasks.len()
            );
            if let State::Parked(entry) = &flight.state {
                let queued = &self.dispatcher.queue[&entry.key];
                assert_eq!((queued.0.as_str(), queued.1), (instance, task), "queued");
                parked += 1;
            }
        }
        let queue = self.dispatcher.queue.values();
        assert_eq!(queue.filter(|(name, _)| name == instance).count(), parked);
    }

    /// This shard's current view of the executor fleet: per-executor
    /// location label and in-flight dispatch count (monitoring; the
    /// scheduling tests assert the counts drain to zero).
    pub fn executor_loads(&self) -> Vec<ExecutorSlot> {
        self.dispatcher.sched.snapshot()
    }

    /// Dispatches parked in this shard's ready queue behind saturated
    /// executors (monitoring).
    pub fn ready_queue_len(&self) -> usize {
        self.dispatcher.queue.len()
    }

    /// The cost model's smoothed duration estimate for `code`, in
    /// milliseconds.
    #[doc(hidden)]
    pub fn cost_estimate_ms(&self, code: &str) -> Option<u64> {
        self.dispatcher.costs.estimate_ms(code)
    }

    /// Drops the flight records of `tasks` of `instance`, none of which
    /// completed — a subtree cancelled or reset (`plan.subtree(scope)`),
    /// a task that failed, one whose outcome an operator forced — with
    /// their timers, load and queue entries.
    pub(super) fn discard_flights(&mut self, instance: &str, tasks: impl Iterator<Item = TaskId>) {
        let Some(rt) = self.instances.get_mut(instance) else {
            return;
        };
        let dropped = self.dispatcher.discard(&mut rt.flights, tasks);
        self.end_dropped(dropped);
    }

    /// A reconfiguration committed `instance`'s new plan: the resident
    /// runtime runs off it from here on, and dispatch's books move old
    /// id → path → new id — a removed task's entries are released with
    /// it.
    pub(super) fn replan(&mut self, instance: &str, plan: Arc<Plan>) {
        let Some(rt) = self.instances.get_mut(instance) else {
            return;
        };
        let old_plan = std::mem::replace(&mut rt.plan, plan.clone());
        let new_id = |old: TaskId| plan.task_by_path(old_plan.str(old_plan.task(old).path));
        let dropped = self.dispatcher.rekey(&mut rt.flights, new_id);
        self.end_dropped(dropped);
    }

    /// Cancels what dropped records left: their timers here, and each
    /// attempt on the wire where it runs.
    fn end_dropped(&mut self, dropped: Dropped) {
        self.cancel(dropped.timers);
        for (node, ticket) in dropped.attempts {
            self.cancel_attempt(node, ticket);
        }
    }

    /// Tells `node` to drop the attempt this shard shipped it under
    /// `ticket` (lost harmlessly if that executor is down).
    fn cancel_attempt(&mut self, node: NodeId, ticket: u64) {
        self.metrics.stats.cancels += 1;
        self.send(node, &EngineMsg::Cancel { ticket });
    }

    /// Keeps `instance`'s work moving: each task it has `Executing` whose
    /// record is missing or watched by no watchdog — not delayed, not
    /// parked — gets a watchdog at the incarnation and attempt its block
    /// committed, a fresh dispatch's time-out (observed-duration
    /// extension included). What a unit whose step rolled back owes
    /// ([`Coordinator::step`]), and a live landing's safety net for a
    /// relay that is truly lost.
    pub(super) fn keep_moving(&mut self, instance: &str) {
        // A block that does not decode arms no watchdog: the full
        // drain over the instance parks it on that block.
        let Ok(executing) = self.executing(instance) else {
            return;
        };
        for (task, cb) in executing {
            let rt = &self.instances[instance];
            let state = rt.flights.0.get(&task).map(|flight| &flight.state);
            if matches!(state, None | Some(State::Watched(None, _))) {
                let at = address(rt, instance, task, cb.incarnation, cb.attempt);
                let timeout = self.shipment(rt, task).timeout;
                self.arm_watchdog(instance, task, at, timeout);
            }
        }
    }

    /// The tasks of running `instance` that only a watchdog moves —
    /// watched, charged nothing: after a restart's census, the attempts
    /// no executor claimed.
    pub(super) fn unclaimed(&self, instance: &str) -> Vec<TaskId> {
        let Some(rt) = self.instances.get(instance).filter(|rt| !rt.terminal) else {
            return Vec::new();
        };
        let unclaimed = |(&task, flight): (&TaskId, &Flight)| {
            matches!(flight.state, State::Watched(Some(_), None)).then_some(task)
        };
        rt.flights.0.iter().filter_map(unclaimed).collect()
    }

    /// A census answer: `node` still runs the attempt `at` for this
    /// shard, shipped under `ticket`. An attempt its block awaits whose
    /// record is watched and charged nothing is charged on `node` under
    /// the ticket it already has, as sent now — its watchdog stands — so
    /// nothing re-runs it. Anything else listed is cancelled there: a
    /// second copy of a claimed attempt, or one the block no longer
    /// awaits, an earlier life's orphan. An instance this shard does not
    /// hold resident (moved away, frozen in an unlanded round) is not its
    /// to judge, nor is an attempt a settled instance still awaits: it
    /// reports as it would have.
    pub(super) fn claim_running(&mut self, node: NodeId, ticket: u64, at: Attempt) {
        let Some(rt) = self.instances.get(&at.instance) else {
            return;
        };
        let task = rt.plan.task_by_path(&at.path);
        let cb = task.and_then(|task| self.read_cb_id(&rt.plan, rt.id, task).ok());
        let awaited = cb.is_some_and(|cb| cb.awaits(at.incarnation, at.attempt));
        if awaited && rt.terminal {
            return;
        }
        let state = |task| rt.flights.0.get(&task).map(|flight| &flight.state);
        let uncharged = |task| matches!(state(task), Some(State::Watched(_, None)));
        let Some(task) = task.filter(|&task| awaited && uncharged(task)) else {
            return self.cancel_attempt(node, ticket);
        };
        let shipment = self.shipment(rt, task);
        self.dispatcher.sched.note_dispatch(node, shipment.cost);
        let claimed = Charge {
            node,
            ticket,
            cost: shipment.cost,
            sent_ns: self.now.as_nanos(),
            code: shipment.code,
        };
        let flight = self.flight_mut(&at.instance, task);
        if let Some(State::Watched(_, charge)) = flight.map(|flight| &mut flight.state) {
            *charge = Some(claimed);
        }
        self.metrics.stats.census_claimed += 1;
    }

    /// The first queue entry whose parked record an eligible executor
    /// has room for: a pinned entry whose location is still full does
    /// not block an unpinned one behind it.
    fn next_parked(&self) -> Option<QueueKey> {
        let fits = |(name, task): &(String, TaskId)| {
            let flight = self
                .instances
                .get(name)
                .and_then(|rt| rt.flights.0.get(task));
            let state = flight.map(|flight| &flight.state);
            let sched = &self.dispatcher.sched;
            matches!(state, Some(State::Parked(parked)) if !sched.all_saturated(&parked.hints))
        };
        let mut queue = self.dispatcher.queue.iter();
        queue.find(|(_, named)| fits(named)).map(|(key, _)| *key)
    }

    /// Re-dispatches parked work, highest `(priority, arrival)` first,
    /// as long as some entry's eligible executors have free capacity.
    pub(super) fn drain_parked(&mut self) {
        while let Some(key) = self.next_parked() {
            let (instance, task) = self.dispatcher.queue.remove(&key).expect("just found");
            let depth = self.dispatcher.queue.len();
            let rt = self
                .instances
                .get_mut(&instance)
                .expect("a queued instance");
            let flight = rt.flights.0.get_mut(&task).expect("a queued record");
            let State::Parked(parked) = std::mem::take(&mut flight.state) else {
                unreachable!("found parked");
            };
            let plan = Arc::clone(&rt.plan);
            let wait_ns = self.now.as_nanos().saturating_sub(parked.since_ns);
            if self.config.observe.metrics() {
                self.metrics.queue_wait_ns.record(wait_ns);
                self.metrics.ready_queue_depth = depth as i64;
            }
            let path = Some(plan.str(plan.task(task).path));
            let kind = ObsEventKind::Admitted { wait_ns };
            self.record_event(&instance, path, parked.launch.attempt, kind);
            self.dispatch(&instance, task, parked.launch);
        }
    }

    /// Ships an attempt staged by an earlier step (a retry's or a
    /// repeat's, its delay over; a parked one) if its block still
    /// awaits it; unplaceable, it fails.
    pub(super) fn dispatch(&mut self, instance: &str, task_id: TaskId, launch: Launch) {
        let Some(rt) = self.instances.get(instance) else {
            return;
        };
        let Ok(cb) = self.read_cb_id(&rt.plan, rt.id, task_id) else {
            // Nothing ships off a block that does not decode.
            self.metrics.stats.dropped_dispatches += 1;
            return;
        };
        if !cb.awaits(launch.incarnation, launch.attempt) {
            return; // stale (cancelled/terminated meanwhile): not a drop
        }
        if let Err(reason) = self.ship(instance, task_id, launch) {
            self.fail_unplaceable(instance, task_id, &reason);
        }
    }

    /// Delays `launch` by `after` — a retry's back-off, a repeat's
    /// requested delay; waiting it out is outstanding work: `task`'s
    /// record holds the launch and the timer that ships it.
    pub(super) fn delay(
        &mut self,
        instance: &str,
        task: TaskId,
        after: SimDuration,
        launch: Launch,
    ) {
        let Some(rt) = self.instances.get(instance) else {
            return;
        };
        let at = address(rt, instance, task, launch.incarnation, launch.attempt);
        let timer = self.arm(after, Timer::Flight(at));
        let stale = self.enter(instance, task, State::Delayed(timer, Box::new(launch)));
        self.cancel(stale);
    }

    /// No executor can take `task` — an unsatisfiable pin, no code to
    /// ship — and no retry can fix that: it fails, in a step of its own.
    pub(super) fn fail_unplaceable(&mut self, instance: &str, task: TaskId, why: &str) {
        let _ = self.reevaluate(&[instance], |coordinator, step, drain| {
            match coordinator.drain_cb(step, drain, task)? {
                Some(cb) if !cb.state.is_terminal() => {
                    coordinator.stage_failure(step, drain, task, cb, why, None)
                }
                // Cancelled by the step that activated it.
                _ => Ok(()),
            }
        });
    }

    /// Sends a `StartTask` to an executor and arms the watchdog. The
    /// executor is chosen by the load-aware scheduler: `location` pins
    /// are hard constraints, a retry avoids the node the previous
    /// attempt failed on whenever an alternative is eligible, and the
    /// remainder goes least-loaded. `Err`: the task can run nowhere (an
    /// unsatisfiable pin, no code to ship) — no retry can fix that, so
    /// the caller fails it with this diagnosable reason.
    pub(super) fn ship(
        &mut self,
        instance: &str,
        task_id: TaskId,
        launch: Launch,
    ) -> Result<(), String> {
        let now_ns = self.now.as_nanos();
        let Some(rt) = self.instances.get(instance) else {
            return Ok(());
        };
        let plan = rt.plan.clone();
        let task = plan.task(task_id);
        let path = plan.str(task.path);
        if plan.code(task).is_none_or(str::is_empty) {
            // A leaf with no implementation clause has no code to
            // ship — shipping an empty name would bounce off every
            // executor as an unbound implementation and burn the
            // retry budget on an error no retry can fix.
            return Err(format!("missing implementation code for `{path}`"));
        }
        let shipment = self.shipment(rt, task_id);
        let at = address(rt, instance, task_id, launch.incarnation, launch.attempt);
        let dispatcher = &mut self.dispatcher;
        // Capacity gate: when every eligible executor is at its
        // declared capacity, park instead of piling on. The committed
        // `Executing` control block makes the park crash-safe: recovery
        // re-dispatches, and re-parks if the fleet is still full. The
        // node to avoid stays on the record for the eventual real
        // dispatch; a timer the record held (a restart's watchdog) goes.
        if dispatcher.sched.all_saturated(&shipment.hints) {
            let key = (Reverse(shipment.hints.priority), dispatcher.park_seq);
            dispatcher.park_seq += 1;
            let named = (instance.to_string(), task_id);
            dispatcher.queue.insert(key, named);
            let depth = dispatcher.queue.len();
            let parked = Box::new(Parked {
                key,
                launch,
                hints: shipment.hints,
                since_ns: now_ns,
            });
            let stale = self.enter(instance, task_id, State::Parked(parked));
            self.cancel(stale);
            let kind = ObsEventKind::Parked {
                queue_depth: depth as u64,
            };
            self.record_event(instance, Some(path), at.attempt, kind);
            if self.config.observe.metrics() {
                self.metrics.ready_queue_depth = depth as i64;
            }
            return Ok(());
        }
        let avoid = self
            .flight_mut(instance, task_id)
            .and_then(|f| f.avoid.take());
        let picked = self
            .dispatcher
            .sched
            .pick(path, at.attempt, &shipment.hints, avoid);
        let placement = picked.map_err(|err| err.to_string())?;
        // Count the load now, releasing any stale charge a defensive
        // re-dispatch might have left behind.
        let (node, cost) = (placement.node, shipment.cost);
        let ticket = self.dispatcher.next_ticket;
        self.dispatcher.next_ticket += 1;
        let charge = Charge {
            node,
            ticket,
            cost,
            sent_ns: now_ns,
            code: shipment.code,
        };
        let stale = self.enter(instance, task_id, State::Watched(None, Some(charge)));
        self.dispatcher.sched.note_dispatch(node, cost);
        if placement.no_alternative {
            self.metrics.stats.no_alternative_retries += 1;
        }
        if self.config.observe.metrics() {
            self.metrics.sched_pick_load.record(placement.load);
        }
        self.metrics.stats.dispatches += 1;
        let kind = ObsEventKind::Dispatch {
            executor: node.index() as u32,
        };
        self.record_event(instance, Some(path), at.attempt, kind);
        let msg = EngineMsg::Start(StartTask {
            at: at.clone(),
            ticket,
            implementation: shipment.implementation,
            set: launch.set,
            inputs: launch.inputs,
            repeat_objects: launch.repeat_objects,
        });
        self.arm_watchdog(instance, task_id, at, shipment.timeout);
        self.cancel(stale);
        self.send(node, &msg);
        Ok(())
    }

    /// Watches `task`'s record under a watchdog of the attempt `at`,
    /// keeping the load it is charged and cancelling the timer it held.
    fn arm_watchdog(&mut self, instance: &str, task: TaskId, at: Attempt, timeout: SimDuration) {
        let watchdog = Some(self.arm(timeout, Timer::Flight(at)));
        let charge = match self.flight_mut(instance, task).map(|f| &mut f.state) {
            Some(State::Watched(_, charge)) => charge.take(),
            _ => None,
        };
        let stale = self.enter(instance, task, State::Watched(watchdog, charge));
        self.cancel(stale);
    }

    /// A flight's one timer went off ([`Timer::Flight`]). Where a timer
    /// enters, its task, named by path, is resolved against the
    /// instance's current plan; the record's state says which timer it
    /// was. A delayed launch ships. A watchdog presumes the executor
    /// lost, and the time-out is one step — the attempt's bounded retry
    /// or its failure, with the cascade — published once it commits.
    pub(super) fn on_flight_timer(&mut self, at: &Attempt) {
        let instance = at.instance.as_str();
        let Some((plan, instance_id)) = self.instance_ctx(instance) else {
            return;
        };
        let Some(task) = plan.task_by_path(&at.path) else {
            return;
        };
        let rt = self.instances.get_mut(instance);
        let Some(flight) = rt.and_then(|rt| rt.flights.0.get_mut(&task)) else {
            return;
        };
        match std::mem::take(&mut flight.state) {
            State::Delayed(_, launch) => return self.dispatch(instance, task, *launch),
            // The watchdog went off.
            State::Watched(_, charge) => flight.state = State::Watched(None, charge),
            parked => {
                flight.state = parked; // it holds no timer
                return;
            }
        }
        // The completion may already be sitting in the batch window:
        // its transition just hasn't committed yet, and the watchdog
        // must not turn a report-in-flight into a spurious retry.
        if self.window.holds_done(at) {
            return;
        }
        let cb = self.read_cb_id(&plan, instance_id, task).ok();
        let Some(cb) = cb.filter(|cb| cb.awaits(at.incarnation, at.attempt)) else {
            return;
        };
        let _ = self.reevaluate(&[instance], |coordinator, step, drain| {
            let cb = cb.clone();
            coordinator.stage_lost(step, drain, task, cb, "dispatch timed out", None)
        });
        // The timed-out dispatch released its executor load (and a
        // failed task may have terminated its instance): revisit the
        // ready and admission queues.
        self.pump();
    }

    /// The attempt of `task` on the wire ended with no outcome: its load
    /// is released — as a completion's when a copy under the ticket
    /// `reported` reported the error, the elapsed time a sample — and its
    /// timer cancelled; the record stays, idle, remembering the node so
    /// the retry relocates. A charged copy that did not report — its
    /// watchdog gave up on it, or another copy's report came first — may
    /// still run: it is cancelled there, so the retry never queues
    /// behind it.
    pub(super) fn lose_flight(&mut self, instance: &str, task: TaskId, reported: Option<u64>) {
        let Some(rt) = self.instances.get_mut(instance) else {
            return;
        };
        let flight = rt.flights.0.entry(task).or_default();
        let (timer, charge) = self.dispatcher.enter(flight, State::default());
        flight.avoid = charge.as_ref().map(|charge| charge.node).or(flight.avoid);
        self.cancel(timer);
        let Some(charge) = charge else {
            return;
        };
        if reported.is_some() {
            self.observe(&charge);
        }
        if Some(charge.ticket) != reported {
            self.cancel_attempt(charge.node, charge.ticket);
        }
    }

    /// The report of the copy of `task`'s attempt shipped under `ticket`
    /// was applied: its work is no longer outstanding. Drops the flight
    /// record, cancelling its timer and releasing the load as a genuine
    /// completion; a charged copy other than the one that reported — a
    /// restart's re-send beside a copy its census missed — is cancelled
    /// where it runs.
    pub(super) fn clear_watch(&mut self, instance: &str, task: TaskId, ticket: u64) {
        let rt = self.instances.get_mut(instance);
        let Some(mut flight) = rt.and_then(|rt| rt.flights.0.remove(&task)) else {
            return;
        };
        let (timer, charge) = self.dispatcher.enter(&mut flight, State::default());
        self.cancel(timer);
        let Some(charge) = charge else {
            return;
        };
        self.observe(&charge);
        if charge.ticket != ticket {
            self.cancel_attempt(charge.node, charge.ticket);
        }
    }
}

/// `instance`'s `task`, resident as `rt`, at `incarnation` and
/// `attempt`: how a wire message or a timer names it.
fn address(
    rt: &InstanceRt,
    instance: &str,
    task: TaskId,
    incarnation: u32,
    attempt: u32,
) -> Attempt {
    Attempt {
        instance: instance.to_string(),
        path: rt.plan.str(rt.plan.task(task).path).to_string(),
        incarnation,
        attempt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` unbounded executors, and a dispatch charged `task` units
    /// under code `ref{task}` for each of `tasks`, spread round-robin.
    fn booked(n: usize, tasks: &[TaskId]) -> (Dispatcher, Flights) {
        let nodes: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        let specs = nodes.iter().copied().map(ExecutorSpec::unbounded).collect();
        let (mut dispatcher, mut flights) = (Dispatcher::new(specs, 1), Flights::default());
        for &task in tasks {
            let (node, cost) = (nodes[task as usize % n], u64::from(task));
            dispatcher.sched.note_dispatch(node, cost);
            let charge = Some(Charge {
                node,
                ticket: task.into(),
                cost,
                sent_ns: 0,
                code: format!("ref{task}"),
            });
            flights.0.entry(task).or_default().state = State::Watched(None, charge);
        }
        (dispatcher, flights)
    }

    fn launch() -> Launch {
        Launch {
            incarnation: 0,
            attempt: 0,
            set: "main".to_string(),
            inputs: BTreeMap::new(),
            repeat_objects: BTreeMap::new(),
        }
    }

    /// Parks `task` of `instance` as `ship` does: its record holds the
    /// launch and the key of its queue entry.
    fn park(dispatcher: &mut Dispatcher, flights: &mut Flights, instance: &str, task: TaskId) {
        let key = (Reverse(0), dispatcher.park_seq);
        dispatcher.park_seq += 1;
        dispatcher.queue.insert(key, (instance.to_string(), task));
        let parked = Parked {
            key,
            launch: launch(),
            hints: ImplHints::default(),
            since_ns: 0,
        };
        flights.0.entry(task).or_default().state = State::Parked(Box::new(parked));
    }

    /// Delays `task` under `timer`, as a retry's back-off does.
    fn delay(flights: &mut Flights, task: TaskId, timer: u64) {
        let launch = Box::new(launch());
        let timer = TimerId(timer);
        flights.0.entry(task).or_default().state = State::Delayed(timer, launch);
    }

    fn loads(dispatcher: &Dispatcher) -> Vec<(u32, u64)> {
        let slots = dispatcher.sched.snapshot();
        slots.iter().map(|s| (s.in_flight, s.remaining)).collect()
    }

    /// `(task, code it is charged under)` of every record.
    fn codes(flights: &Flights) -> Vec<(TaskId, &str)> {
        fn code(flight: &Flight) -> &str {
            flight.state.charge().map_or("-", |c| c.code.as_str())
        }
        flights.0.iter().map(|(id, f)| (*id, code(f))).collect()
    }

    /// The queue in drain order. Each of `flights`' parked records
    /// finds its own entry under its key, named by `instance`.
    fn queued<'a>(
        dispatcher: &'a Dispatcher,
        flights: &Flights,
        instance: &str,
    ) -> Vec<(&'a str, TaskId)> {
        for (&task, flight) in &flights.0 {
            if let State::Parked(parked) = &flight.state {
                let entry = &dispatcher.queue[&parked.key];
                assert_eq!((entry.0.as_str(), entry.1), (instance, task));
            }
        }
        let entries = dispatcher.queue.values();
        entries.map(|(name, task)| (name.as_str(), *task)).collect()
    }

    #[test]
    fn release_is_idempotent() {
        let (mut dispatcher, mut flights) = booked(1, &[7]);
        let flight = flights.0.get_mut(&7).unwrap();
        assert_eq!(loads(&dispatcher), [(1, 7)]);
        let (timer, charge) = dispatcher.enter(flight, State::default());
        assert_eq!((timer, charge.map(|c| c.cost)), (None, Some(7)));
        assert_eq!(loads(&dispatcher), [(0, 0)]);
        // The record outlives its load (a fired watchdog waiting out
        // the retry backoff): releasing again finds nothing to release.
        assert!(dispatcher.enter(flight, State::default()).1.is_none());
        assert_eq!(loads(&dispatcher), [(0, 0)]);
    }

    #[test]
    fn rekey_keeps_moves_and_releases_the_removed() {
        // Old plan: root 0, a 1, b 2, c 3, d 4, e 5, f 6; b and c
        // executing on node 0/1, a executing, d and e parked (and task 2
        // of another instance), f waiting out a back-off. The operation
        // removes `b`, `d` and `f`.
        let (mut dispatcher, mut flights) = booked(2, &[1, 2, 3]);
        let mut other = Flights::default();
        park(&mut dispatcher, &mut flights, "i", 4);
        park(&mut dispatcher, &mut flights, "i", 5);
        park(&mut dispatcher, &mut other, "j", 2);
        delay(&mut flights, 6, 60);
        assert_eq!(loads(&dispatcher), [(1, 2), (2, 4)]);
        let new_id = |old: TaskId| match old {
            0 | 1 => Some(old),
            2 | 4 | 6 => None,
            3 => Some(2),
            _ => Some(3),
        };
        let dropped = dispatcher.rekey(&mut flights, new_id);
        assert_eq!(dropped.timers, [TimerId(60)], "f's one timer; d held none");
        let b = (NodeId::from_index(0), 2);
        assert_eq!(
            dropped.attempts,
            [b],
            "b's attempt, to cancel where it runs"
        );
        // Kept (a), moved (c under c's own code, e), removed (b, d, f):
        // d's queue entry left with its record, e's follows it to 3.
        assert_eq!(codes(&flights), [(1, "ref1"), (2, "ref3"), (3, "-")]);
        assert_eq!(queued(&dispatcher, &flights, "i"), [("i", 3), ("j", 2)]);
        assert_eq!(loads(&dispatcher), [(0, 0), (2, 4)], "exactly b's load");
    }

    #[test]
    fn discarding_a_subtree_releases_exactly_its_range() {
        // Tasks 2..5 are the swept scope's descendants; 1, 5 and 6 are
        // not. 4 and 6 are parked, and so is another instance's 4.
        let (mut dispatcher, mut flights) = booked(1, &[1, 2, 3, 5]);
        park(&mut dispatcher, &mut flights, "i", 4);
        park(&mut dispatcher, &mut flights, "i", 6);
        park(&mut dispatcher, &mut Flights::default(), "j", 4);
        delay(&mut flights, 7, 70);
        let dropped = dispatcher.discard(&mut flights, 2..5);
        let on_the_wire = [2, 3].map(|ticket| (NodeId::from_index(0), ticket));
        assert_eq!(dropped.attempts, on_the_wire, "4 was parked: never shipped");
        assert!(dropped.timers.is_empty(), "a parked record holds no timer");
        assert_eq!(
            codes(&flights),
            [(1, "ref1"), (5, "ref5"), (6, "-"), (7, "-")]
        );
        // 4's queue entry left with its record; `j`'s 4 stays.
        assert_eq!(queued(&dispatcher, &flights, "i"), [("i", 6), ("j", 4)]);
        assert_eq!(loads(&dispatcher), [(2, 6)]);
        // Again is a no-op; the rest goes when the instance leaves.
        let again = dispatcher.discard(&mut flights, 2..5);
        assert!(again.timers.is_empty() && again.attempts.is_empty());
        assert!(!flights.0.is_empty());
        // An instance leaving cancels nothing where it runs: only the
        // timers come back, and its queue entries go with its records.
        assert_eq!(dispatcher.release_all(flights), [TimerId(70)]);
        let entries: Vec<_> = dispatcher.queue.values().cloned().collect();
        assert_eq!(entries, [("j".to_string(), 4)]);
        assert_eq!(loads(&dispatcher), [(0, 0)]);
    }
}
