//! Dispatch: placement on the executor fleet, the capacity-parked ready
//! queue, watchdogs, and what an attempt that ends with no outcome
//! stages — a bounded retry under a bumped attempt, or `Failed`.
//!
//! All of its volatile state lives in two places, both private to this
//! module: the shard's [`Dispatcher`] (executor loads, observed costs,
//! the parked ready queue) and, per instance, one [`Flights`] container
//! holding a record for every task with outstanding work. Inside the
//! coordinator a task is its dense [`TaskId`]; a path is resolved
//! against the instance's *current* plan exactly where a wire message
//! or a timer enters (timers capture the path — it is the name that
//! survives a re-lowering), and a reconfiguration re-keys the records
//! ([`Coordinator::replan`]).
//!
//! An attempt on the wire carries a **ticket**, the shard's name for
//! it: when the shard drops the attempt unfinished — its scope cancelled
//! or reset, its outcome forced, its task reconfigured away, its
//! watchdog fired — one [`EngineMsg::Cancel`] with that ticket, sent
//! once the step commits, stops the work at its executor. An instance
//! leaving the shard cancels nothing: its next owner is owed that work.
//! Tickets are volatile, and never reused by a shard, restarts
//! included: a life whose log opened at sequence number `s` counts from
//! `s << 32`. Every attempt a life ships follows a commit of its own: a
//! step's publish, or a timer or a park that step left behind — and the
//! re-send that follows a restart's census, which writes no block,
//! follows the shard-life key its step stages
//! ([`Coordinator::stage_life`]), so a refused append ships none of it.
//! So a life that shipped anything moved the log past `s`, and the next
//! life counts from a higher base (one life ships fewer than 2^32): two
//! restarts with nothing else committed between them still count from
//! two bases, and an executor's `(shard, ticket)` index never holds two
//! attempts under one name. The census itself ships nothing: an attempt
//! it claims where it runs ([`Coordinator::claim_running`]) keeps the
//! ticket an earlier life shipped it under, below this life's base like
//! every earlier life's, so the life's own tickets never meet it, and
//! the census's cancels, like every other, go out from here.

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

/// One task's outstanding work. A present record *is* "outstanding":
/// an attempt on the wire, a dispatch parked behind saturated
/// executors, a retry waiting out its backoff or a repeat its delay —
/// stuck detection and the drain oracle read presence, nothing else.
/// Every field is optional, so a watchdog that fired (its load released,
/// the retry pending) and a watchdog armed over a load charged on
/// another shard's books (an adopted instance) are states of the one
/// record.
#[derive(Debug, Default)]
struct Flight {
    /// The armed watchdog of the attempt on the wire.
    watchdog: Option<TimerId>,
    /// The armed timer of an attempt waiting out a delay — a retry's
    /// back-off, a repeat's requested delay — before it ships.
    delayed: Option<TimerId>,
    /// The load that attempt is charged at; taken exactly when the
    /// scheduler load is released.
    charge: Option<Charge>,
    /// The node the most recent *failed* attempt ran on; consumed by
    /// the next dispatch so the retry relocates whenever an eligible
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

/// One dispatch parked in the per-shard ready queue because every
/// eligible executor sat at its declared capacity. Its task keeps a
/// flight record while parked; the queue itself is volatile — the
/// control block committed `Executing` *before* the park, so recovery
/// re-dispatches (and possibly re-parks) it.
#[derive(Debug)]
struct ParkedDispatch {
    instance: String,
    task: TaskId,
    launch: Launch,
    /// Scheduling hints captured at park time (eligibility re-checked
    /// against these when the queue drains).
    hints: ImplHints,
    /// Virtual park time (`sched.queue_wait_ns` sample base).
    parked_ns: u64,
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
    /// Dispatches parked because every eligible executor sat at its
    /// declared capacity, ordered by `(priority desc, arrival)`.
    /// Drained whenever a release frees a slot.
    parked: BTreeMap<(Reverse<i64>, u64), ParkedDispatch>,
    /// Arrival tie-break for `parked` keys.
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
            parked: BTreeMap::new(),
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
        self.parked.clear();
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

    /// Releases the load `flight` is charged at, if any. Idempotent:
    /// the charge is taken, so a second release finds none.
    fn release(&mut self, flight: &mut Flight) -> Option<Charge> {
        let charge = flight.charge.take()?;
        self.sched.note_release(charge.node, charge.cost);
        Some(charge)
    }

    /// Ends a record that did not complete: releases its load and notes
    /// in `dropped` its timers to cancel — the watchdog, a delayed
    /// attempt's — and the attempt it had on the wire.
    fn discard(&mut self, mut flight: Flight, dropped: &mut Dropped) {
        if let Some(charge) = self.release(&mut flight) {
            dropped.attempts.push((charge.node, charge.ticket));
        }
        let timers = [flight.watchdog, flight.delayed];
        dropped.timers.extend(timers.into_iter().flatten());
    }

    /// Drops the records of `tasks` — none of them completed — with
    /// their load, and any dispatch of theirs still parked (a cancelled
    /// task's parked dispatch must never run).
    fn discard_tasks(
        &mut self,
        instance: &str,
        flights: &mut Flights,
        tasks: impl Iterator<Item = TaskId>,
    ) -> Dropped {
        let dropped: BTreeMap<TaskId, Flight> = tasks
            .filter_map(|task| Some((task, flights.0.remove(&task)?)))
            .collect();
        if !dropped.is_empty() {
            // A parked dispatch always has its record.
            self.parked.retain(|_, entry| {
                entry.instance != instance || !dropped.contains_key(&entry.task)
            });
        }
        let mut ended = Dropped::default();
        for flight in dropped.into_values() {
            self.discard(flight, &mut ended);
        }
        ended
    }

    /// Moves every record and parked dispatch of `instance` from its
    /// task id under the old plan to `new_id(old)`; what belonged to a
    /// task the new plan no longer has is dropped — load freed, parked
    /// entry dropped, its timers and attempt returned for cancelling.
    fn rekey(
        &mut self,
        instance: &str,
        flights: &mut Flights,
        new_id: impl Fn(TaskId) -> Option<TaskId>,
    ) -> Dropped {
        let mut dropped = Dropped::default();
        for (old, flight) in std::mem::take(&mut flights.0) {
            match new_id(old) {
                Some(new) => {
                    flights.0.insert(new, flight);
                }
                None => self.discard(flight, &mut dropped),
            }
        }
        self.parked.retain(|_, entry| {
            if entry.instance != instance {
                return true;
            }
            let new = new_id(entry.task);
            entry.task = new.unwrap_or(entry.task);
            new.is_some()
        });
        dropped
    }

    /// Releases every record of an instance leaving this shard
    /// (hand-off, purge) and forgets its parked dispatches — whoever
    /// owns it next re-arms from its committed control blocks, and is
    /// owed the work on the wire, so none is cancelled. Returns the
    /// timers to cancel.
    pub(super) fn release_all(&mut self, instance: &str, flights: Flights) -> Vec<TimerId> {
        self.parked.retain(|_, entry| entry.instance != instance);
        let mut dropped = Dropped::default();
        for flight in flights.0.into_values() {
            self.discard(flight, &mut dropped);
        }
        dropped.timers
    }
}

/// What one dispatch of a task ships and how long it may take.
struct Shipment {
    /// The implementation code its script names.
    code: String,
    implementation: BTreeMap<String, String>,
    hints: ImplHints,
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
        let timeout =
            self.dispatcher
                .costs
                .watchdog_timeout(&code, &hints, self.config.dispatch_timeout);
        Shipment {
            code,
            implementation,
            hints,
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

    /// Ends the load accounting of `task`'s attempt on the wire and
    /// returns the executor it ran on and its ticket, if one was counted
    /// (idempotent — the charge gates the release). `completed_at_ns` is
    /// `Some` only for a genuine executor report: its elapsed time feeds
    /// the `coord.dispatch_latency_ns` histogram and the cost model.
    /// Timeouts, failures and sweeps pass `None` and teach neither.
    fn release_dispatch(
        &mut self,
        instance: &str,
        task: TaskId,
        completed_at_ns: Option<u64>,
    ) -> Option<(NodeId, u64)> {
        let flight = self.instances.get_mut(instance)?.flights.0.get_mut(&task)?;
        let charge = self.dispatcher.release(flight)?;
        if let Some(elapsed) = completed_at_ns.and_then(|now| now.checked_sub(charge.sent_ns)) {
            self.dispatcher.costs.observe(&charge.code, elapsed);
            if self.config.observe.metrics() {
                self.metrics.dispatch_latency_ns.record(elapsed);
            }
        }
        Some((charge.node, charge.ticket))
    }

    /// How long ago this shard shipped the attempt of `instance`'s task
    /// at `path` that it has charged; zero when it charged none (a
    /// relayed report's, a landed instance's).
    pub(super) fn attempt_age(&self, instance: &str, path: &str) -> SimDuration {
        let rt = self.instances.get(instance);
        let flight = rt.and_then(|rt| rt.flights.0.get(&rt.plan.task_by_path(path)?));
        let sent_ns = flight.and_then(|flight| Some(flight.charge.as_ref()?.sent_ns));
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
    /// and each of its parked dispatches has its record.
    #[cfg(debug_assertions)]
    pub(super) fn assert_flights_consistent(&self, instance: &str) {
        let Some(rt) = self.instances.get(instance) else {
            return;
        };
        for &task in rt.flights.0.keys() {
            let known = rt.plan.tasks.get(task as usize);
            let cb = known.and_then(|_| self.read_cb_id(&rt.plan, rt.id, task).ok());
            assert!(
                matches!(&cb, Some(cb) if matches!(cb.state, CbState::Executing { .. })),
                "flight record {task} of `{instance}` has no `Executing` task in its \
                 {}-task plan: {cb:?}",
                rt.plan.tasks.len()
            );
        }
        for entry in self.dispatcher.parked.values() {
            assert!(
                entry.instance != instance || rt.flights.0.contains_key(&entry.task),
                "parked dispatch {} of `{instance}` has no flight record",
                entry.task
            );
        }
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
        self.dispatcher.parked.len()
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
    /// their watchdogs, load and parked dispatches.
    pub(super) fn discard_flights(&mut self, instance: &str, tasks: impl Iterator<Item = TaskId>) {
        let Some(rt) = self.instances.get_mut(instance) else {
            return;
        };
        let dropped = self
            .dispatcher
            .discard_tasks(instance, &mut rt.flights, tasks);
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
        let dropped = self.dispatcher.rekey(instance, &mut rt.flights, new_id);
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

    /// Keeps `instance`'s work moving: each task it has `Executing` with
    /// no armed watchdog, no delayed attempt and no parked dispatch gets
    /// a watchdog at the incarnation and attempt its block committed, a
    /// fresh dispatch's time-out (observed-duration extension included).
    /// What a unit whose step rolled back owes ([`Coordinator::step`]),
    /// and a live landing's safety net for a relay that is truly lost.
    pub(super) fn keep_moving(&mut self, instance: &str) {
        // A block that does not decode arms no watchdog: the full
        // drain over the instance parks it on that block.
        let Ok(executing) = self.executing(instance) else {
            return;
        };
        for (task, cb) in executing {
            let rt = &self.instances[instance];
            let flight = rt.flights.0.get(&task);
            let moving = flight.is_some_and(|f| f.watchdog.is_some() || f.delayed.is_some())
                || self.parked(instance, task);
            if !moving {
                let timeout = self.shipment(rt, task).timeout;
                self.arm_watchdog(instance, task, cb.incarnation, cb.attempt, timeout);
            }
        }
    }

    /// Whether a dispatch of `instance`'s `task` waits in the ready queue.
    fn parked(&self, instance: &str, task: TaskId) -> bool {
        let mut parked = self.dispatcher.parked.values();
        parked.any(|entry| entry.instance == instance && entry.task == task)
    }

    /// The tasks of running `instance` that only a watchdog moves: no
    /// attempt charged, delayed or parked — after a restart's census,
    /// the attempts no executor claimed.
    pub(super) fn unclaimed(&self, instance: &str) -> Vec<TaskId> {
        let Some(rt) = self.instances.get(instance).filter(|rt| !rt.terminal) else {
            return Vec::new();
        };
        let flights = rt.flights.0.iter().filter(|(&task, flight)| {
            let idle = flight.charge.is_none() && flight.delayed.is_none();
            flight.watchdog.is_some() && idle && !self.parked(instance, task)
        });
        flights.map(|(&task, _)| task).collect()
    }

    /// A census answer: `node` still runs the attempt `at` for this
    /// shard, shipped under `ticket`. An
    /// attempt its block awaits with nothing charged is charged on
    /// `node` under the ticket it already has, as sent now — its
    /// watchdog stands — so nothing re-runs it. Anything else listed
    /// is cancelled there: a second copy of a claimed attempt, or one
    /// the block no longer awaits, an earlier life's orphan. An
    /// instance this shard does not hold resident (moved away, frozen
    /// in an unlanded round) is not its to judge, nor is an attempt a
    /// settled instance still awaits: it reports as it would have.
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
        let idle = |task| rt.flights.0.get(&task).is_some_and(|f| f.charge.is_none());
        let Some(task) = task.filter(|&task| awaited && idle(task)) else {
            return self.cancel_attempt(node, ticket);
        };
        let shipment = self.shipment(rt, task);
        let cost = self
            .dispatcher
            .costs
            .load_cost(&shipment.code, &shipment.hints);
        self.dispatcher.sched.note_dispatch(node, cost);
        let charge = Charge {
            node,
            ticket,
            cost,
            sent_ns: self.now.as_nanos(),
            code: shipment.code,
        };
        if let Some(flight) = self.flight_mut(&at.instance, task) {
            flight.charge = Some(charge);
        }
        self.metrics.stats.census_claimed += 1;
    }

    /// Re-dispatches parked work, highest `(priority, arrival)` first,
    /// as long as some entry's eligible executors have free capacity.
    /// Per-entry eligibility keeps a pinned entry whose location is
    /// still full from blocking an unpinned one behind it.
    pub(super) fn drain_parked(&mut self) {
        loop {
            let dispatcher = &mut self.dispatcher;
            let key = dispatcher
                .parked
                .iter()
                .find(|(_, entry)| !dispatcher.sched.all_saturated(&entry.hints))
                .map(|(key, _)| *key);
            let Some(key) = key else {
                return;
            };
            let entry = dispatcher.parked.remove(&key).expect("key just found");
            let depth = dispatcher.parked.len();
            let Some(rt) = self.instances.get(&entry.instance) else {
                continue; // unreachable: a departing instance unparks
            };
            let plan = Arc::clone(&rt.plan);
            let wait_ns = self.now.as_nanos().saturating_sub(entry.parked_ns);
            if self.config.observe.metrics() {
                self.metrics.queue_wait_ns.record(wait_ns);
                self.metrics.ready_queue_depth = depth as i64;
            }
            self.record_event(
                &entry.instance,
                Some(plan.str(plan.task(entry.task).path)),
                entry.launch.attempt,
                ObsEventKind::Admitted { wait_ns },
            );
            self.dispatch(&entry.instance, entry.task, entry.launch);
        }
    }

    /// Ships an attempt staged by an earlier step (a retry's or a
    /// repeat's, its delay over; a parked dispatch) if its block still
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

    /// Ships `launch` once `delay` is over — a retry's back-off, a
    /// repeat's requested delay; waiting it out is outstanding work. The
    /// timer names the task by path, and goes with its flight record.
    pub(super) fn dispatch_after(
        &mut self,
        instance: &str,
        task: TaskId,
        delay: SimDuration,
        launch: Launch,
    ) {
        if self.flight_mut(instance, task).is_none() {
            return;
        }
        let plan = &self.instances[instance].plan;
        let timer = Timer::Dispatch {
            instance: instance.to_string(),
            path: plan.str(plan.task(task).path).to_string(),
            launch: Box::new(launch),
        };
        let timer = self.arm(delay, timer);
        let stale = self
            .flight_mut(instance, task)
            .and_then(|flight| flight.delayed.replace(timer));
        self.cancel(stale);
    }

    /// A delayed attempt's wait is over ([`Timer::Dispatch`]): where the
    /// timer enters, its task, named by path, is resolved against the
    /// instance's current plan.
    pub(super) fn on_dispatch_timer(&mut self, instance: &str, path: &str, launch: Launch) {
        let Some((plan, _)) = self.instance_ctx(instance) else {
            return;
        };
        match plan.task_by_path(path) {
            Some(task) => {
                let rt = self.instances.get_mut(instance);
                if let Some(flight) = rt.and_then(|rt| rt.flights.0.get_mut(&task)) {
                    flight.delayed = None; // it went off
                }
                self.dispatch(instance, task, launch);
            }
            // Only a mid-flight reconfiguration takes the task away
            // from a scheduled dispatch.
            None => self.metrics.stats.dropped_dispatches += 1,
        }
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
        let (incarnation, attempt) = (launch.incarnation, launch.attempt);
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
        let hints = shipment.hints;
        let dispatcher = &mut self.dispatcher;
        let rt = self.instances.get_mut(instance).expect("resident");
        // The task has outstanding work from here on.
        let flight = rt.flights.0.entry(task_id).or_default();
        // Capacity gate: when every eligible executor is at its
        // declared capacity, park instead of piling on. The committed
        // `Executing` control block makes the park crash-safe: recovery
        // re-dispatches, and re-parks if the fleet is still full. The
        // node to avoid stays on the record for the eventual real
        // dispatch.
        if dispatcher.sched.all_saturated(&hints) {
            let seq = dispatcher.park_seq;
            dispatcher.park_seq += 1;
            let parked = ParkedDispatch {
                instance: instance.to_string(),
                task: task_id,
                launch,
                hints,
                parked_ns: now_ns,
            };
            dispatcher
                .parked
                .insert((Reverse(parked.hints.priority), seq), parked);
            let depth = dispatcher.parked.len();
            let kind = ObsEventKind::Parked {
                queue_depth: depth as u64,
            };
            self.record_event(instance, Some(path), attempt, kind);
            if self.config.observe.metrics() {
                self.metrics.ready_queue_depth = depth as i64;
            }
            return Ok(());
        }
        let avoid = flight.avoid.take();
        let placement = dispatcher
            .sched
            .pick(path, attempt, &hints, avoid)
            .map_err(|err| err.to_string())?;
        // Count the load now — at the observed estimate when the cost
        // model has one, else the declared remaining-work cost —
        // releasing any stale charge a defensive re-dispatch might have
        // left behind.
        let cost = dispatcher.costs.load_cost(&shipment.code, &hints);
        dispatcher.release(flight);
        dispatcher.sched.note_dispatch(placement.node, cost);
        let ticket = dispatcher.next_ticket;
        dispatcher.next_ticket += 1;
        flight.charge = Some(Charge {
            node: placement.node,
            ticket,
            cost,
            sent_ns: now_ns,
            code: shipment.code.clone(),
        });
        if placement.no_alternative {
            self.metrics.stats.no_alternative_retries += 1;
        }
        if self.config.observe.metrics() {
            self.metrics.sched_pick_load.record(placement.load);
        }
        self.metrics.stats.dispatches += 1;
        let kind = ObsEventKind::Dispatch {
            executor: placement.node.index() as u32,
        };
        self.record_event(instance, Some(path), attempt, kind);
        let at = Attempt {
            instance: instance.to_string(),
            path: path.to_string(),
            incarnation,
            attempt,
        };
        let msg = EngineMsg::Start(StartTask {
            at,
            ticket,
            implementation: shipment.implementation,
            set: launch.set,
            inputs: launch.inputs,
            repeat_objects: launch.repeat_objects,
        });
        self.arm_watchdog(instance, task_id, incarnation, attempt, shipment.timeout);
        self.send(placement.node, &msg);
        Ok(())
    }

    /// Arms the watchdog of one attempt on `task`'s flight record,
    /// cancelling any watchdog it replaces.
    fn arm_watchdog(
        &mut self,
        instance: &str,
        task: TaskId,
        incarnation: u32,
        attempt: u32,
        timeout: SimDuration,
    ) {
        let Some(rt) = self.instances.get(instance) else {
            return;
        };
        let timer = Timer::Watchdog(Attempt {
            instance: instance.to_string(),
            path: rt.plan.str(rt.plan.task(task).path).to_string(),
            incarnation,
            attempt,
        });
        let watchdog = self.arm(timeout, timer);
        let flight = self.flight_mut(instance, task);
        let stale = flight.and_then(|flight| flight.watchdog.replace(watchdog));
        self.cancel(stale);
    }

    /// The watchdog of one attempt fired: the executor is presumed lost,
    /// and the time-out is one step — the attempt's bounded retry or its
    /// failure, with the cascade — published once it commits.
    pub(super) fn on_watchdog(&mut self, at: &Attempt) {
        // Where a timer enters: its task, named by path, resolved
        // against the instance's current plan.
        let instance = at.instance.as_str();
        let Some((plan, instance_id)) = self.instance_ctx(instance) else {
            return;
        };
        let Some(task) = plan.task_by_path(&at.path) else {
            return;
        };
        let rt = self.instances.get_mut(instance);
        if let Some(flight) = rt.and_then(|rt| rt.flights.0.get_mut(&task)) {
            flight.watchdog = None; // it went off
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
    /// watchdog disarmed; the record stays, remembering the node so the
    /// retry relocates. A charged copy that did not report — its
    /// watchdog gave up on it, or another copy's report came first — may
    /// still run: it is cancelled there, so the retry never queues
    /// behind it.
    pub(super) fn lose_flight(&mut self, instance: &str, task: TaskId, reported: Option<u64>) {
        let completed_at_ns = reported.map(|_| self.now.as_nanos());
        let charged = self.release_dispatch(instance, task, completed_at_ns);
        let watchdog = self.flight_mut(instance, task).and_then(|flight| {
            flight.avoid = charged.map(|(node, _)| node).or(flight.avoid);
            flight.watchdog.take()
        });
        self.cancel(watchdog);
        if let Some((node, ticket)) = charged.filter(|&(_, ticket)| Some(ticket) != reported) {
            self.cancel_attempt(node, ticket);
        }
    }

    /// The report of the copy of `task`'s attempt shipped under `ticket`
    /// was applied: its work is no longer outstanding. Drops the flight
    /// record, disarming its timers and releasing the load as a genuine
    /// completion; a charged copy other than the one that reported — a
    /// restart's re-send beside a copy its census missed — is cancelled
    /// where it runs.
    pub(super) fn clear_watch(&mut self, instance: &str, task: TaskId, ticket: u64) {
        let charged = self.release_dispatch(instance, task, Some(self.now.as_nanos()));
        let flight = self
            .instances
            .get_mut(instance)
            .and_then(|rt| rt.flights.0.remove(&task));
        let timers = flight.map(|flight| [flight.watchdog, flight.delayed]);
        self.cancel(timers.into_iter().flatten().flatten());
        if let Some((node, charged)) = charged.filter(|&(_, charged)| charged != ticket) {
            self.cancel_attempt(node, charged);
        }
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
            let flight = flights.0.entry(task).or_default();
            flight.charge = Some(Charge {
                node,
                ticket: task.into(),
                cost,
                sent_ns: 0,
                code: format!("ref{task}"),
            });
        }
        (dispatcher, flights)
    }

    fn park(dispatcher: &mut Dispatcher, flights: &mut Flights, instance: &str, task: TaskId) {
        flights.0.entry(task).or_default();
        let launch = Launch {
            incarnation: 0,
            attempt: 0,
            set: "main".to_string(),
            inputs: BTreeMap::new(),
            repeat_objects: BTreeMap::new(),
        };
        let parked = ParkedDispatch {
            instance: instance.to_string(),
            task,
            launch,
            hints: ImplHints::default(),
            parked_ns: 0,
        };
        dispatcher.parked.insert((Reverse(0), task.into()), parked);
    }

    fn loads(dispatcher: &Dispatcher) -> Vec<(u32, u64)> {
        let slots = dispatcher.sched.snapshot();
        slots.iter().map(|s| (s.in_flight, s.remaining)).collect()
    }

    /// `(task, code it is charged under)` of every record.
    fn codes(flights: &Flights) -> Vec<(TaskId, &str)> {
        fn code(flight: &Flight) -> &str {
            flight.charge.as_ref().map_or("-", |c| c.code.as_str())
        }
        flights.0.iter().map(|(id, f)| (*id, code(f))).collect()
    }

    fn parked(dispatcher: &Dispatcher) -> Vec<(&str, TaskId)> {
        let entries = dispatcher.parked.values();
        entries.map(|e| (e.instance.as_str(), e.task)).collect()
    }

    #[test]
    fn release_is_idempotent() {
        let (mut dispatcher, mut flights) = booked(1, &[7]);
        let flight = flights.0.get_mut(&7).unwrap();
        assert_eq!(loads(&dispatcher), [(1, 7)]);
        assert_eq!(dispatcher.release(flight).map(|c| c.cost), Some(7));
        assert_eq!(loads(&dispatcher), [(0, 0)]);
        // The record outlives its load (a fired watchdog waiting out
        // the retry backoff): releasing again finds nothing to release.
        assert!(dispatcher.release(flight).is_none());
        assert_eq!(loads(&dispatcher), [(0, 0)]);
    }

    #[test]
    fn rekey_keeps_moves_and_releases_the_removed() {
        // Old plan: root 0, a 1, b 2, c 3, d 4, e 5; b and c executing
        // on node 0/1, a executing, d and e parked (e for another
        // instance too). The operation removes `b` and `d`.
        let (mut dispatcher, mut flights) = booked(2, &[1, 2, 3]);
        let mut other = Flights::default();
        park(&mut dispatcher, &mut flights, "i", 4);
        park(&mut dispatcher, &mut flights, "i", 5);
        park(&mut dispatcher, &mut other, "j", 2);
        assert_eq!(loads(&dispatcher), [(1, 2), (2, 4)]);
        let new_id = |old: TaskId| match old {
            0 | 1 => Some(old),
            2 | 4 => None,
            3 => Some(2),
            _ => Some(3),
        };
        let dropped = dispatcher.rekey("i", &mut flights, new_id);
        assert!(dropped.timers.is_empty());
        let b = (NodeId::from_index(0), 2);
        assert_eq!(
            dropped.attempts,
            [b],
            "b's attempt, to cancel where it runs"
        );
        // Kept (a), moved (c under c's own code, e), removed (b, d).
        assert_eq!(codes(&flights), [(1, "ref1"), (2, "ref3"), (3, "-")]);
        assert_eq!(parked(&dispatcher), [("j", 2), ("i", 3)]);
        assert_eq!(loads(&dispatcher), [(0, 0), (2, 4)], "exactly b's load");
    }

    #[test]
    fn discarding_a_subtree_releases_exactly_its_range() {
        // Tasks 2..5 are the swept scope's descendants; 1 and 5 are not.
        let (mut dispatcher, mut flights) = booked(1, &[1, 2, 3, 5]);
        park(&mut dispatcher, &mut flights, "i", 4);
        park(&mut dispatcher, &mut flights, "i", 6);
        park(&mut dispatcher, &mut Flights::default(), "j", 4);
        let dropped = dispatcher.discard_tasks("i", &mut flights, 2..5);
        let on_the_wire = [2, 3].map(|ticket| (NodeId::from_index(0), ticket));
        assert_eq!(dropped.attempts, on_the_wire, "4 was parked: never shipped");
        assert_eq!(codes(&flights), [(1, "ref1"), (5, "ref5"), (6, "-")]);
        assert_eq!(parked(&dispatcher), [("j", 4), ("i", 6)]);
        assert_eq!(loads(&dispatcher), [(2, 6)]);
        // Again is a no-op; the rest goes when the instance leaves.
        let again = dispatcher.discard_tasks("i", &mut flights, 2..5);
        assert!(again.timers.is_empty() && again.attempts.is_empty());
        assert!(!flights.0.is_empty());
        // An instance leaving cancels nothing where it runs: only the
        // timers come back.
        assert!(dispatcher.release_all("i", flights).is_empty());
        assert_eq!(parked(&dispatcher), [("j", 4)]);
        assert_eq!(loads(&dispatcher), [(0, 0)]);
    }
}
