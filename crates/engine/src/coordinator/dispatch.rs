//! Dispatch and executor replies: placement on the executor fleet, the
//! capacity-parked ready queue, watchdogs, bounded retries, and the
//! slow-path handler for reports the commit window cannot absorb.
//!
//! All of its volatile state lives in two places, both private to this
//! module: the shard's [`Dispatcher`] (executor loads, observed costs,
//! the parked ready queue) and, per instance, one [`Flights`] container
//! holding a record for every task with outstanding work. Inside the
//! coordinator a task is its dense [`TaskId`]; a path is resolved
//! against the instance's *current* plan exactly where a wire message
//! or a timer enters (timers capture the path — it is the name that
//! survives a re-lowering), and a reconfiguration re-keys the records
//! ([`CoordHandle::rekey_flights`]).

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::rc::Rc;

use flowscript_core::ast::OutputKind;
use flowscript_obs::ObsEventKind;
use flowscript_plan::{Plan, TaskId};
use flowscript_sim::{EventId, NodeId, SimDuration, World};
use flowscript_tx::{FactKey, TxError};

use super::step::Launch;
use super::{write_cb, CoordHandle, Coordinator, InstanceRt};
use crate::facts;
use crate::keys::InstanceKeys;
use crate::msg::{EngineMsg, StartTask, TaskDone, TaskResult};
use crate::sched::{CostModel, ExecutorSlot, ExecutorSpec, ImplHints, SchedPolicy, Scheduler};
use crate::state::{CbState, TaskCb};
use crate::value::ObjectVal;

/// Scheduler accounting for the attempt on the wire: where it went,
/// the load cost it was charged at (the unit of remaining-work
/// accounting), the virtual send time (dispatch-latency metric and
/// cost-model sample base) and the implementation code that ran (the
/// [`CostModel`] EWMA key).
#[derive(Debug)]
struct Charge {
    node: NodeId,
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
    watchdog: Option<EventId>,
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
    /// The tasks with outstanding work, bar `ended`.
    pub(super) fn outstanding(&self, ended: &[TaskId]) -> Vec<TaskId> {
        let tasks = self.0.keys().copied();
        tasks.filter(|task| !ended.contains(task)).collect()
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
    attempt: u32,
    inputs: BTreeMap<String, ObjectVal>,
    repeat_objects: BTreeMap<String, ObjectVal>,
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
    /// times, sampled at every genuine `TaskDone` release. An estimate,
    /// not state: where it is empty the declared hints carry placement.
    costs: CostModel,
    /// Dispatches parked because every eligible executor sat at its
    /// declared capacity, ordered by `(priority desc, arrival)`.
    /// Drained whenever a release frees a slot.
    parked: BTreeMap<(Reverse<i64>, u64), ParkedDispatch>,
    /// Arrival tie-break for `parked` keys.
    park_seq: u64,
}

impl Dispatcher {
    pub(super) fn new(executors: Vec<ExecutorSpec>) -> Self {
        Self {
            sched: Scheduler::new(executors, SchedPolicy::default()),
            costs: CostModel::new(),
            parked: BTreeMap::new(),
            park_seq: 0,
        }
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

    /// Releases the load `flight` is charged at, if any. Idempotent:
    /// the charge is taken, so a second release finds none.
    fn release(&mut self, flight: &mut Flight) -> Option<Charge> {
        let charge = flight.charge.take()?;
        self.sched.note_release(charge.node, charge.cost);
        Some(charge)
    }

    /// Ends a record that did not complete: releases its load and
    /// returns the watchdog to cancel.
    fn discard(&mut self, mut flight: Flight) -> Option<EventId> {
        self.release(&mut flight);
        flight.watchdog
    }

    /// Drops the records of `tasks` — none of them completed — with
    /// their load, and any dispatch of theirs still parked (a cancelled
    /// task's parked dispatch must never run). Returns the watchdogs to
    /// cancel.
    fn discard_tasks(
        &mut self,
        instance: &str,
        flights: &mut Flights,
        tasks: impl Iterator<Item = TaskId>,
    ) -> Vec<EventId> {
        let dropped: BTreeMap<TaskId, Flight> = tasks
            .filter_map(|task| Some((task, flights.0.remove(&task)?)))
            .collect();
        if !dropped.is_empty() {
            // A parked dispatch always has its record.
            self.parked.retain(|_, entry| {
                entry.instance != instance || !dropped.contains_key(&entry.task)
            });
        }
        let dropped = dropped.into_values();
        dropped.filter_map(|flight| self.discard(flight)).collect()
    }

    /// Moves every record and parked dispatch of `instance` from its
    /// task id under the old plan to `new_id(old)`; what belonged to a
    /// task the new plan no longer has is released — load freed, parked
    /// entry dropped, the watchdog returned for cancelling.
    fn rekey(
        &mut self,
        instance: &str,
        flights: &mut Flights,
        new_id: impl Fn(TaskId) -> Option<TaskId>,
    ) -> Vec<EventId> {
        let mut watchdogs = Vec::new();
        for (old, flight) in std::mem::take(&mut flights.0) {
            match new_id(old) {
                Some(new) => {
                    flights.0.insert(new, flight);
                }
                None => watchdogs.extend(self.discard(flight)),
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
        watchdogs
    }

    /// Releases every record of an instance leaving this shard
    /// (hand-off, purge) and forgets its parked dispatches — whoever
    /// owns it next re-arms from its committed control blocks. Returns
    /// the watchdogs to cancel.
    pub(super) fn release_all(&mut self, instance: &str, flights: Flights) -> Vec<EventId> {
        self.parked.retain(|_, entry| entry.instance != instance);
        let records = flights.0.into_values();
        records.filter_map(|flight| self.discard(flight)).collect()
    }
}

/// What one dispatch of a task ships and how long it may take.
struct Shipment {
    /// The implementation code after run-time rebinding.
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
    /// The code binding → hints → watchdog timeout derivation, shared
    /// by a fresh dispatch and the re-arming of an adopted instance.
    /// Run-time binding: a per-instance rebinding overrides the
    /// script's name.
    fn shipment(&self, rt: &InstanceRt, task: TaskId) -> Shipment {
        let task = rt.plan.task(task);
        let script_code = rt.plan.code(task).unwrap_or("");
        let code = rt
            .bindings
            .get(script_code)
            .map_or(script_code, String::as_str)
            .to_string();
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
        keys: &InstanceKeys,
        task_id: TaskId,
        set: &str,
    ) -> Result<[BTreeMap<String, ObjectVal>; 2], TxError> {
        let inputs = self.read_fact(plan, keys.in_key(plan, task_id, set))?;
        let mut repeat_objects = BTreeMap::new();
        let class = plan.class_of(plan.task(task_id));
        for (ordinal, output) in plan.class_outputs[class.outputs.as_range()]
            .iter()
            .enumerate()
        {
            if output.kind == OutputKind::RepeatOutcome {
                let key = FactKey::output(keys.instance_id, task_id, ordinal as u32);
                repeat_objects.extend(self.read_fact(plan, Some(key))?);
            }
        }
        Ok([inputs, repeat_objects])
    }

    /// The record of `task`, created if it has none: the task has
    /// outstanding work from here on.
    fn flight_mut(&mut self, instance: &str, task: TaskId) -> Option<&mut Flight> {
        let rt = self.instances.get_mut(instance)?;
        Some(rt.flights.0.entry(task).or_default())
    }

    /// Ends the load accounting of `task`'s attempt on the wire and
    /// returns the executor it ran on, if one was counted (idempotent —
    /// the charge gates the release). `completed_at_ns` is `Some` only
    /// for a genuine executor report: its elapsed time feeds the
    /// `coord.dispatch_latency_ns` histogram and the cost model.
    /// Timeouts, failures and sweeps pass `None` and teach neither.
    fn release_dispatch(
        &mut self,
        instance: &str,
        task: TaskId,
        completed_at_ns: Option<u64>,
    ) -> Option<NodeId> {
        let flight = self.instances.get_mut(instance)?.flights.0.get_mut(&task)?;
        let charge = self.dispatcher.release(flight)?;
        if let Some(elapsed) = completed_at_ns.and_then(|now| now.checked_sub(charge.sent_ns)) {
            self.dispatcher.costs.observe(&charge.code, elapsed);
            if self.config.observe.metrics() {
                self.metrics.dispatch_latency_ns.record(elapsed);
            }
        }
        Some(charge.node)
    }

    /// The committed control blocks of `instance` sitting in
    /// `Executing`, by task id: what a restart re-dispatches and an
    /// adoption re-arms watchdogs for.
    pub(super) fn executing(&self, instance: &str) -> Vec<(TaskId, TaskCb)> {
        let Some(rt) = self.instances.get(instance) else {
            return Vec::new();
        };
        (0..rt.plan.tasks.len() as TaskId)
            .filter_map(|id| Some((id, self.read_cb_id(&rt.keys, id)?)))
            .filter(|(_, cb)| matches!(cb.state, CbState::Executing { .. }))
            .collect()
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
            let cb = known.and_then(|_| self.read_cb_id(&rt.keys, task));
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
}

impl CoordHandle {
    /// This shard's current view of the executor fleet: per-executor
    /// location label and in-flight dispatch count (monitoring; the
    /// scheduling tests assert the counts drain to zero).
    pub fn executor_loads(&self) -> Vec<ExecutorSlot> {
        self.inner.borrow().dispatcher.sched.snapshot()
    }

    /// Dispatches parked in this shard's ready queue behind saturated
    /// executors (monitoring).
    pub fn ready_queue_len(&self) -> usize {
        self.inner.borrow().dispatcher.parked.len()
    }

    /// The cost model's smoothed duration estimate for `code`, in
    /// milliseconds.
    #[doc(hidden)]
    pub fn cost_estimate_ms(&self, code: &str) -> Option<u64> {
        self.inner.borrow().dispatcher.costs.estimate_ms(code)
    }

    /// Runs `edit` over the shard's dispatcher and `instance`'s flight
    /// records, then cancels the watchdogs it hands back (outside the
    /// borrow: cancelling needs the world).
    fn edit_books(
        &self,
        world: &mut World,
        instance: &str,
        edit: impl FnOnce(&mut Dispatcher, &mut InstanceRt) -> Vec<EventId>,
    ) {
        let watchdogs = {
            let coordinator = &mut *self.inner.borrow_mut();
            let Some(rt) = coordinator.instances.get_mut(instance) else {
                return;
            };
            edit(&mut coordinator.dispatcher, rt)
        };
        for id in watchdogs {
            world.cancel(id);
        }
    }

    /// Drops the flight records of `tasks` of `instance`, none of which
    /// completed — a subtree cancelled or reset (`plan.subtree(scope)`),
    /// a task that failed, one whose outcome an operator forced — with
    /// their watchdogs, load and parked dispatches.
    pub(super) fn discard_flights(
        &self,
        world: &mut World,
        instance: &str,
        tasks: impl Iterator<Item = TaskId>,
    ) {
        self.edit_books(world, instance, |dispatcher, rt| {
            dispatcher.discard_tasks(instance, &mut rt.flights, tasks)
        });
    }

    /// A reconfiguration re-lowered `instance`'s plan and shifted its
    /// dense task ids: dispatch's books move old id → path → new id,
    /// and a removed task's entries are released with it.
    pub(super) fn rekey_flights(&self, world: &mut World, instance: &str, old_plan: &Plan) {
        self.edit_books(world, instance, |dispatcher, rt| {
            let new_plan = rt.plan.clone();
            let new_id = |old: TaskId| new_plan.task_by_path(old_plan.str(old_plan.task(old).path));
            dispatcher.rekey(instance, &mut rt.flights, new_id)
        });
    }

    /// Arms fresh watchdogs for every task an adopted instance has in
    /// the `Executing` state, giving each its flight record. The normal
    /// case is the watchdog being disarmed by the old owner's relayed
    /// `TaskDone`; it fires only if the reply (or its relay) is truly
    /// lost, turning the move into an ordinary bounded retry. The
    /// timeout is a fresh dispatch's — observed-duration extension for
    /// the rebound code included — so a relay delayed past a lying
    /// short hint still lands before the adopted watchdog fires.
    pub(super) fn rearm_adopted(&self, world: &mut World, instance: &str) {
        let executing: Vec<(TaskId, TaskCb, SimDuration)> = {
            let coordinator = self.inner.borrow();
            let Some(rt) = coordinator.instances.get(instance) else {
                return;
            };
            let executing = coordinator.executing(instance);
            executing
                .into_iter()
                .map(|(id, cb)| (id, cb, coordinator.shipment(rt, id).timeout))
                .collect()
        };
        for (task, cb, timeout) in executing {
            self.arm_watchdog(world, instance, task, cb.incarnation, cb.attempt, timeout);
        }
    }

    /// Where a wire message or a timer enters: its task, named by path,
    /// resolved against the instance's current plan — with the plan,
    /// the key table and the committed control block.
    fn enter(
        &self,
        instance: &str,
        path: &str,
    ) -> Option<(Rc<Plan>, Rc<InstanceKeys>, TaskId, TaskCb)> {
        let (plan, keys) = self.instance_ctx(instance)?;
        let task = plan.task_by_path(path)?;
        let cb = self.inner.borrow().read_cb_id(&keys, task)?;
        Some((plan, keys, task, cb))
    }

    /// Re-dispatches parked work, highest `(priority, arrival)` first,
    /// as long as some entry's eligible executors have free capacity.
    /// Per-entry eligibility keeps a pinned entry whose location is
    /// still full from blocking an unpinned one behind it.
    pub(super) fn drain_parked(&self, world: &mut World) {
        loop {
            let entry = {
                let mut coordinator = self.inner.borrow_mut();
                let dispatcher = &mut coordinator.dispatcher;
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
                let Some(rt) = coordinator.instances.get(&entry.instance) else {
                    continue; // unreachable: a departing instance unparks
                };
                let wait_ns = world.now().as_nanos().saturating_sub(entry.parked_ns);
                if coordinator.config.observe.metrics() {
                    coordinator.metrics.queue_wait_ns.record(wait_ns);
                    coordinator.metrics.ready_queue_depth.set(depth as i64);
                }
                coordinator.record_event(
                    world.now().as_nanos(),
                    &entry.instance,
                    Some(rt.plan.str(rt.plan.task(entry.task).path)),
                    entry.attempt,
                    ObsEventKind::Admitted { wait_ns },
                );
                entry
            };
            self.dispatch(
                world,
                &entry.instance,
                entry.task,
                entry.attempt,
                entry.inputs,
                entry.repeat_objects,
            );
        }
    }

    /// Ships an attempt under its task's committed binding (a retry, a
    /// repeat, a recovery, a parked dispatch); unplaceable, it fails.
    pub(super) fn dispatch(
        &self,
        world: &mut World,
        instance: &str,
        task_id: TaskId,
        attempt: u32,
        inputs: BTreeMap<String, ObjectVal>,
        repeat_objects: BTreeMap<String, ObjectVal>,
    ) {
        let launch = {
            let coordinator = self.inner.borrow();
            let Some(rt) = coordinator.instances.get(instance) else {
                return;
            };
            let Some(cb) = coordinator.read_cb_id(&rt.keys, task_id) else {
                // Only a mid-flight reconfiguration can drop the
                // control block of a scheduled dispatch.
                coordinator.metrics.dropped_dispatches.inc();
                debug_assert!(
                    coordinator.metrics.reconfigs.get() > 0,
                    "dispatch dropped task {task_id} of `{instance}`: control block \
                     missing without any reconfiguration"
                );
                return;
            };
            let CbState::Executing { set } = cb.state else {
                return; // stale (cancelled/terminated meanwhile): not a drop
            };
            (cb.incarnation, set, inputs)
        };
        if let Err(reason) = self.ship(world, instance, task_id, launch, attempt, repeat_objects) {
            self.fail_task(world, instance, task_id, &reason);
        }
    }

    /// Sends a `StartTask` to an executor and arms the watchdog. The
    /// executor is chosen by the load-aware scheduler: `location` pins
    /// are hard constraints, a retry avoids the node the previous
    /// attempt failed on whenever an alternative is eligible, and the
    /// remainder goes least-loaded. `Err`: the task can run nowhere (an
    /// unsatisfiable pin, no code to ship) — no retry can fix that, so
    /// the caller fails it with this diagnosable reason.
    pub(super) fn ship(
        &self,
        world: &mut World,
        instance: &str,
        task_id: TaskId,
        launch: Launch,
        attempt: u32,
        repeat_objects: BTreeMap<String, ObjectVal>,
    ) -> Result<(), String> {
        // Fenced = zombie: nothing dispatches off claimed storage.
        if self.inner.borrow_mut().mgr.probe_fence().is_some() {
            return Ok(());
        }
        // Gather everything under one borrow, then interact with the
        // world outside it.
        let now_ns = world.now().as_nanos();
        let (incarnation, set, inputs) = launch;
        let (node, executor, bytes, timeout) = {
            let coordinator = &mut *self.inner.borrow_mut();
            let Some(rt) = coordinator.instances.get(instance) else {
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
            let shipment = coordinator.shipment(rt, task_id);
            let hints = shipment.hints;
            let dispatcher = &mut coordinator.dispatcher;
            let rt = coordinator.instances.get_mut(instance).expect("resident");
            // The task has outstanding work from here on.
            let flight = rt.flights.0.entry(task_id).or_default();
            // Capacity gate: when every eligible executor is at its
            // declared capacity, park instead of piling on. The
            // committed `Executing` control block makes the park
            // crash-safe: recovery re-dispatches, and re-parks if the
            // fleet is still full. The node to avoid stays on the record
            // for the eventual real dispatch.
            if dispatcher.sched.all_saturated(&hints) {
                let seq = dispatcher.park_seq;
                dispatcher.park_seq += 1;
                let parked = ParkedDispatch {
                    instance: instance.to_string(),
                    task: task_id,
                    attempt,
                    inputs,
                    repeat_objects,
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
                coordinator.record_event(now_ns, instance, Some(path), attempt, kind);
                if coordinator.config.observe.metrics() {
                    coordinator.metrics.ready_queue_depth.set(depth as i64);
                }
                return Ok(());
            }
            let avoid = flight.avoid.take();
            let placement = dispatcher
                .sched
                .pick(path, attempt, &hints, avoid)
                .map_err(|err| err.to_string())?;
            // Count the load now — at the observed estimate when the
            // cost model has one, else the declared remaining-work cost
            // — releasing any stale charge a defensive re-dispatch
            // might have left behind.
            let cost = dispatcher.costs.load_cost(&shipment.code, &hints);
            dispatcher.release(flight);
            dispatcher.sched.note_dispatch(placement.node, cost);
            flight.charge = Some(Charge {
                node: placement.node,
                cost,
                sent_ns: now_ns,
                code: shipment.code.clone(),
            });
            if placement.no_alternative {
                coordinator.metrics.no_alternative_retries.inc();
            }
            if coordinator.config.observe.metrics() {
                coordinator.metrics.sched_pick_load.record(placement.load);
            }
            coordinator.metrics.dispatches.inc();
            let kind = ObsEventKind::Dispatch {
                executor: placement.node.index() as u32,
            };
            coordinator.record_event(now_ns, instance, Some(path), attempt, kind);
            let msg = EngineMsg::Start(StartTask {
                instance: instance.to_string(),
                path: path.to_string(),
                incarnation,
                attempt,
                code: shipment.code,
                implementation: shipment.implementation,
                set,
                inputs,
                repeat_objects,
                epoch: coordinator.membership.epoch(),
            });
            let bytes = flowscript_codec::to_bytes(&msg);
            (coordinator.node, placement.node, bytes, shipment.timeout)
        };
        self.arm_watchdog(world, instance, task_id, incarnation, attempt, timeout);
        world.send(node, executor, bytes);
        Ok(())
    }

    /// Arms the watchdog of one attempt on `task`'s flight record,
    /// cancelling any watchdog it replaces.
    fn arm_watchdog(
        &self,
        world: &mut World,
        instance: &str,
        task: TaskId,
        incarnation: u32,
        attempt: u32,
        timeout: SimDuration,
    ) {
        let (node, path) = {
            let coordinator = self.inner.borrow();
            let Some(rt) = coordinator.instances.get(instance) else {
                return;
            };
            let path = rt.plan.str(rt.plan.task(task).path).to_string();
            (coordinator.node, path)
        };
        let handle = self.clone();
        let instance_owned = instance.to_string();
        let watchdog = world.schedule_node_after(node, timeout, move |world| {
            handle.on_watchdog(world, &instance_owned, &path, incarnation, attempt);
        });
        let stale = self
            .inner
            .borrow_mut()
            .flight_mut(instance, task)
            .and_then(|flight| flight.watchdog.replace(watchdog));
        if let Some(stale) = stale {
            world.cancel(stale);
        }
    }

    /// The slow path of the commit window: a report `stage_event` judged
    /// valid but not a plain transition — an execution error (bounded
    /// retry), an undeclared output or a mark posing as a completion
    /// (the task fails), a repeat outcome (the leaf re-executes). Runs
    /// after the window's action committed, so the block is re-validated:
    /// an earlier slow report of the same window may have moved it.
    pub(super) fn on_task_done(&self, world: &mut World, msg: TaskDone) {
        let Some((plan, _, task_id, cb)) = self.enter(&msg.instance, &msg.path) else {
            return;
        };
        if !cb.awaits(msg.incarnation, msg.attempt) {
            return; // stale attempt or previous scope incarnation
        }
        let released = self.clear_watch(world, &msg.instance, task_id);
        match &msg.result {
            TaskResult::ExecError { reason } => {
                self.retry_or_fail(world, &msg.instance, task_id, released, reason);
            }
            TaskResult::Output {
                name, redo_after, ..
            } => {
                let class = plan.class_of(plan.task(task_id));
                let reason = match plan.class_output(class, name).map(|o| o.kind) {
                    Some(OutputKind::RepeatOutcome) => {
                        self.leaf_repeat(world, &msg, task_id, name, *redo_after);
                        return;
                    }
                    Some(OutputKind::Mark) => format!("mark `{name}` cannot be a completion"),
                    None => format!("implementation produced undeclared output `{name}`"),
                    Some(OutputKind::Outcome | OutputKind::AbortOutcome) => {
                        debug_assert!(false, "`stage_event` applies declared outcomes itself");
                        return;
                    }
                };
                self.fail_task(world, &msg.instance, task_id, &reason);
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
        let (over_limit, inputs) = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(mut cb) = coordinator.read_cb_id(&keys, task_id) else {
                return;
            };
            let CbState::Executing { set } = &cb.state else {
                return;
            };
            // What the re-execution ships, beside the repeat objects.
            let inputs = coordinator.read_fact(&plan, keys.in_key(&plan, task_id, set));
            cb.repeats += 1;
            let over = cb.repeats > coordinator.config.max_repeats;
            if over {
                cb.transition(CbState::Failed {
                    reason: format!("repeat limit exceeded via `{name}`"),
                });
            } else {
                cb.attempt += 1;
            }
            let staged = coordinator.atomically(|mgr, action| {
                write_cb(mgr, action, &keys, task_id, &cb)?;
                facts::write_fact_map(mgr, action, &plan, out_key, objects)?;
                Ok(())
            });
            // Counters move only on commit success: an aborted action
            // must not register as a repeat.
            if staged.is_ok() {
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
            (over, inputs)
        };
        if over_limit {
            self.evaluate_from(world, &msg.instance, &[task_id]);
            return;
        }
        // Re-dispatch with the repeat objects after the requested delay.
        let inputs = match inputs {
            Ok(inputs) => inputs,
            Err(fault) => return self.park_fact_fault(world, &msg.instance, &keys, fault),
        };
        // The pending re-execution is outstanding work.
        self.inner.borrow_mut().flight_mut(&msg.instance, task_id);
        let handle = self.clone();
        let node = self.inner.borrow().node;
        let instance = msg.instance.clone();
        let path = msg.path.clone();
        let attempt = msg.attempt + 1;
        let repeat_objects = objects.clone();
        world.schedule_node_after(node, redo_after, move |world| {
            let Some((plan, _)) = handle.instance_ctx(&instance) else {
                return;
            };
            match plan.task_by_path(&path) {
                Some(task) => {
                    handle.dispatch(world, &instance, task, attempt, inputs, repeat_objects);
                }
                // Only a mid-flight reconfiguration takes the task away
                // from a scheduled dispatch.
                None => handle.inner.borrow().metrics.dropped_dispatches.inc(),
            }
        });
        // The repeat fact is committed now — consumers drawing on it
        // (e.g. `AnyOf` alternatives) re-check immediately.
        self.evaluate_from(world, &msg.instance, &[task_id]);
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
        if self
            .inner
            .borrow()
            .window
            .holds_done(instance, path, incarnation, attempt)
        {
            return;
        }
        let Some((_, _, task_id, cb)) = self.enter(instance, path) else {
            return;
        };
        if !cb.awaits(incarnation, attempt) {
            return;
        }
        // The executor is presumed lost: stop counting the dispatch
        // against it.
        let lost = self
            .inner
            .borrow_mut()
            .release_dispatch(instance, task_id, None);
        self.retry_or_fail(world, instance, task_id, lost, "dispatch timed out");
        // The timed-out dispatch released its executor load (and a
        // failed task may have terminated its instance): revisit the
        // ready and admission queues.
        self.pump(world);
    }

    /// Bounded automatic retry of a system-level failure. `died_on` is
    /// the node the failed attempt ran on, remembered so the retry
    /// relocates whenever an alternative is eligible.
    fn retry_or_fail(
        &self,
        world: &mut World,
        instance: &str,
        task_id: TaskId,
        died_on: Option<NodeId>,
        reason: &str,
    ) {
        let Some((plan, keys)) = self.instance_ctx(instance) else {
            return;
        };
        let path = plan.str(plan.task(task_id).path);
        let retry = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(mut cb) = coordinator.read_cb_id(&keys, task_id) else {
                return;
            };
            let retry = cb.attempt < coordinator.config.max_retries && {
                cb.attempt += 1;
                coordinator.commit_cb(keys.cb(task_id), &cb)
            };
            if retry {
                // The retry counts only once its bumped attempt
                // committed; waiting out the backoff is outstanding
                // work.
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
                if let Some(flight) = coordinator.flight_mut(instance, task_id) {
                    flight.avoid = died_on.or(flight.avoid);
                }
            }
            retry.then(|| {
                let backoff = coordinator
                    .config
                    .retry_backoff
                    .saturating_mul(1 << (cb.attempt.min(16) - 1));
                (cb.attempt, backoff, coordinator.node)
            })
        };
        match retry {
            Some((attempt, backoff, node)) => {
                let handle = self.clone();
                let (instance, path) = (instance.to_string(), path.to_string());
                world.schedule_node_after(node, backoff, move |world| {
                    handle.redispatch(world, &instance, &path, attempt);
                });
            }
            None => self.fail_task(world, instance, task_id, reason),
        }
    }

    /// Re-dispatches from persisted facts (the retry timer and the
    /// recovery path — both name the task by path).
    pub(super) fn redispatch(&self, world: &mut World, instance: &str, path: &str, attempt: u32) {
        let Some((plan, keys, task_id, cb)) = self.enter(instance, path) else {
            return;
        };
        let CbState::Executing { set } = &cb.state else {
            return;
        };
        if cb.attempt != attempt {
            return;
        }
        let gathered = self
            .inner
            .borrow()
            .redispatch_objects(&plan, &keys, task_id, set);
        match gathered {
            Ok([inputs, repeat_objects]) => {
                self.dispatch(world, instance, task_id, attempt, inputs, repeat_objects);
            }
            Err(fault) => self.park_fact_fault(world, instance, &keys, fault),
        }
    }

    /// A fact a re-dispatch must ship does not decode: running the task
    /// on empty inputs would be a silent misread, so the instance parks
    /// with the same diagnosable reason a faulted readiness probe gives.
    fn park_fact_fault(
        &self,
        world: &mut World,
        instance: &str,
        keys: &InstanceKeys,
        err: TxError,
    ) {
        let reason = format!("fact storage fault: {err}");
        let parked = self.inner.borrow_mut().run_step(|coordinator, step| {
            coordinator.park_stuck(step, &instance.into(), keys, reason)
        });
        // Nothing to do about a park that cannot be written.
        if let Ok(((), effects)) = parked {
            self.publish(world, effects);
        }
    }

    /// Marks a task permanently failed (retries exhausted, or nothing a
    /// retry could fix) and ends whatever was outstanding for it.
    pub(super) fn fail_task(&self, world: &mut World, instance: &str, task_id: TaskId, why: &str) {
        self.discard_flights(world, instance, std::iter::once(task_id));
        let Some((plan, keys)) = self.instance_ctx(instance) else {
            return;
        };
        {
            let mut coordinator = self.inner.borrow_mut();
            let Some(mut cb) = coordinator.read_cb_id(&keys, task_id) else {
                return;
            };
            if cb.state.is_terminal() {
                return;
            }
            cb.transition(CbState::Failed {
                reason: why.to_string(),
            });
            // The failure counts only once its transition committed.
            if coordinator.commit_cb(keys.cb(task_id), &cb) {
                coordinator.metrics.failures.inc();
                coordinator.record_event(
                    world.now().as_nanos(),
                    instance,
                    Some(plan.str(plan.task(task_id).path)),
                    cb.attempt,
                    coordinator.commit_event(format!("failed: {why}")),
                );
                coordinator.note_terminals(instance, 1);
            }
        }
        // A failure publishes no facts: nothing new can become
        // satisfied, but the instance may now be stuck (the drain's
        // debug oracle re-verifies quiescence).
        self.evaluate_from(world, instance, &[]);
    }

    /// An executor report for `task` was applied: its work is no longer
    /// outstanding. Drops the flight record, disarming the watchdog and
    /// releasing the load as a genuine completion; returns the executor
    /// the dispatch ran on, if one was counted.
    pub(super) fn clear_watch(
        &self,
        world: &mut World,
        instance: &str,
        task: TaskId,
    ) -> Option<NodeId> {
        let (watchdog, released) = {
            let mut coordinator = self.inner.borrow_mut();
            let now_ns = world.now().as_nanos();
            let released = coordinator.release_dispatch(instance, task, Some(now_ns));
            let rt = coordinator.instances.get_mut(instance)?;
            let flight = rt.flights.0.remove(&task);
            (flight.and_then(|flight| flight.watchdog), released)
        };
        if let Some(id) = watchdog {
            world.cancel(id);
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` unbounded executors, and a dispatch charged `task` units
    /// under code `ref{task}` for each of `tasks`, spread round-robin.
    fn booked(n: usize, tasks: &[TaskId]) -> (Dispatcher, Flights) {
        let mut world = World::new(0);
        let nodes: Vec<NodeId> = (0..n).map(|i| world.add_node(format!("e{i}"))).collect();
        let specs = nodes.iter().copied().map(ExecutorSpec::unbounded).collect();
        let (mut dispatcher, mut flights) = (Dispatcher::new(specs), Flights::default());
        for &task in tasks {
            let (node, cost) = (nodes[task as usize % n], u64::from(task));
            dispatcher.sched.note_dispatch(node, cost);
            let flight = flights.0.entry(task).or_default();
            flight.charge = Some(Charge {
                node,
                cost,
                sent_ns: 0,
                code: format!("ref{task}"),
            });
        }
        (dispatcher, flights)
    }

    fn park(dispatcher: &mut Dispatcher, flights: &mut Flights, instance: &str, task: TaskId) {
        flights.0.entry(task).or_default();
        let parked = ParkedDispatch {
            instance: instance.to_string(),
            task,
            attempt: 0,
            inputs: BTreeMap::new(),
            repeat_objects: BTreeMap::new(),
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
        assert!(dispatcher.rekey("i", &mut flights, new_id).is_empty());
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
        dispatcher.discard_tasks("i", &mut flights, 2..5);
        assert_eq!(codes(&flights), [(1, "ref1"), (5, "ref5"), (6, "-")]);
        assert_eq!(parked(&dispatcher), [("j", 4), ("i", 6)]);
        assert_eq!(loads(&dispatcher), [(2, 6)]);
        // Again is a no-op; the rest goes when the instance leaves.
        assert!(dispatcher.discard_tasks("i", &mut flights, 2..5).is_empty());
        assert!(!flights.0.is_empty());
        dispatcher.release_all("i", flights);
        assert_eq!(parked(&dispatcher), [("j", 4)]);
        assert_eq!(loads(&dispatcher), [(0, 0)]);
    }
}
