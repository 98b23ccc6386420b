//! Dispatch and executor replies: placement on the executor fleet, the
//! capacity-parked ready queue, watchdogs, bounded retries, and the
//! slow-path handler for reports the commit window cannot absorb.

use std::collections::BTreeMap;

use flowscript_core::ast::OutputKind;
use flowscript_obs::ObsEventKind;
use flowscript_plan::{Plan, TaskId};
use flowscript_sim::{EventId, NodeId, SimDuration, World};
use flowscript_tx::{FactKey, TxError};

use super::{CoordHandle, Coordinator};
use crate::facts;
use crate::keys::{cb_uid, InstanceKeys};
use crate::msg::{EngineMsg, StartTask, TaskDone, TaskResult};
use crate::sched::ImplHints;
use crate::state::{CbState, TaskCb};
use crate::value::ObjectVal;

/// Scheduler accounting for one outstanding dispatch: where it went,
/// the load cost it was charged at (the unit of remaining-work
/// accounting), the virtual send time (dispatch-latency metric and
/// cost-model sample base) and the implementation code that ran (the
/// [`CostModel`] EWMA key).
#[derive(Debug, Clone)]
pub(super) struct DispatchedTask {
    pub(super) node: NodeId,
    pub(super) cost: u64,
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
pub(super) struct ParkedDispatch {
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

impl Coordinator {
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
    pub(super) fn sweep_subtree(
        &mut self,
        instance: &str,
        scope_path: &str,
    ) -> Vec<(String, EventId)> {
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

    /// Drops every parked dispatch of `instance` (instance hand-off or
    /// purge — the new owner re-dispatches from its own committed
    /// control blocks).
    pub(super) fn unpark_instance(&mut self, instance: &str) {
        self.parked.retain(|_, entry| entry.instance != instance);
    }
}

impl CoordHandle {
    /// Re-dispatches parked work, highest `(priority, arrival)` first,
    /// as long as some entry's eligible executors have free capacity.
    /// Per-entry eligibility keeps a pinned entry whose location is
    /// still full from blocking an unpinned one behind it.
    pub(super) fn drain_parked(&self, world: &mut World) {
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

    /// Sends a `StartTask` to an executor and arms the watchdog. The
    /// executor is chosen by the load-aware scheduler: `location` pins
    /// are hard constraints (an unsatisfiable pin fails the task with
    /// the diagnosable reason), a retry avoids the node the previous
    /// attempt failed on whenever an alternative is eligible, and the
    /// remainder goes least-loaded.
    pub(super) fn dispatch(
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
            let found = plan
                .task_by_path(path)
                .and_then(|id| Some((id, coordinator.read_cb_id(&keys, id)?)));
            let Some((task_id, cb)) = found else {
                // Only a mid-flight reconfiguration can drop the task or
                // the control block of a scheduled dispatch.
                coordinator.metrics.dropped_dispatches.inc();
                debug_assert!(
                    coordinator.metrics.reconfigs.get() > 0,
                    "dispatch dropped `{path}` of `{instance}`: task or control block \
                     missing without any reconfiguration"
                );
                return;
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
                        epoch: coordinator.membership.epoch(),
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
                self.arm_watchdog(world, instance, path, incarnation, attempt, timeout);
                world.send(node, executor, bytes);
            }
        }
    }

    /// Arms the watchdog of one outstanding dispatch and marks the path
    /// in flight, cancelling any watchdog it replaces.
    pub(super) fn arm_watchdog(
        &self,
        world: &mut World,
        instance: &str,
        path: &str,
        incarnation: u32,
        attempt: u32,
        timeout: SimDuration,
    ) {
        let node = self.inner.borrow().node;
        let handle = self.clone();
        let (instance_owned, path_owned) = (instance.to_string(), path.to_string());
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
    }

    /// The slow path of the commit window: a report `stage_event` judged
    /// valid but not a plain transition — an execution error (bounded
    /// retry), an undeclared output or a mark posing as a completion
    /// (the task fails), a repeat outcome (the leaf re-executes). Runs
    /// after the window's action committed, so the block is re-validated:
    /// an earlier slow report of the same window may have moved it.
    pub(super) fn on_task_done(&self, world: &mut World, msg: TaskDone) {
        let Some((plan, keys)) = self.instance_ctx(&msg.instance) else {
            return;
        };
        let Some(task_id) = plan.task_by_path(&msg.path) else {
            return;
        };
        let Some(cb) = self.inner.borrow().read_cb_id(&keys, task_id) else {
            return;
        };
        if !matches!(cb.state, CbState::Executing { .. })
            || cb.incarnation != msg.incarnation
            || cb.attempt != msg.attempt
        {
            return; // stale attempt or previous scope incarnation
        }
        let released = self.clear_watch(world, &msg.instance, &msg.path);
        match &msg.result {
            TaskResult::ExecError { reason } => {
                // Remember the node the attempt died on so the retry
                // relocates whenever an alternative is eligible.
                if let Some(node) = released {
                    let mut coordinator = self.inner.borrow_mut();
                    if let Some(rt) = coordinator.instances.get_mut(&msg.instance) {
                        rt.retry_from.insert(msg.path.clone(), node);
                    }
                }
                self.retry_or_fail(world, &msg.instance, &msg.path, reason);
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
                self.fail_task(world, &msg.instance, &msg.path, &reason);
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
                    facts::write_fact_map(&mut coordinator.mgr, &action, &plan, out_key, objects)
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
            coordinator.read_fact(&plan, keys.in_key(&plan, task_id, set))
        };
        let inputs = match inputs {
            Ok(inputs) => inputs,
            Err(fault) => return self.park_fact_fault(world, &msg.instance, &keys, fault),
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
                if coordinator.commit_cb(&cb_uid(instance, path), &cb) {
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
    pub(super) fn redispatch(&self, world: &mut World, instance: &str, path: &str, attempt: u32) {
        let Some((plan, keys)) = self.instance_ctx(instance) else {
            return;
        };
        let gathered = {
            let coordinator = self.inner.borrow();
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
            coordinator.redispatch_objects(&plan, &keys, task_id, set)
        };
        match gathered {
            Ok([inputs, repeat_objects]) => {
                self.dispatch(world, instance, path, attempt, inputs, repeat_objects);
            }
            Err(fault) => self.park_fact_fault(world, instance, &keys, fault),
        }
    }

    /// A fact a re-dispatch must ship does not decode: running the task
    /// on empty inputs would be a silent misread, so the instance parks
    /// with the same diagnosable reason a faulted readiness probe gives.
    fn park_fact_fault(&self, world: &World, instance: &str, keys: &InstanceKeys, fault: TxError) {
        self.inner.borrow_mut().park_stuck(
            world.now().as_nanos(),
            instance,
            keys,
            format!("fact storage fault: {fault}"),
        );
    }

    /// Marks a task permanently failed (retries exhausted).
    pub(super) fn fail_task(&self, world: &mut World, instance: &str, path: &str, reason: &str) {
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
            // The failure counts only once its transition committed.
            if coordinator.commit_cb(&cb_uid(instance, path), &cb) {
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
        }
        self.remove_in_flight(instance, path);
        // A failure publishes no facts: nothing new can become
        // satisfied, but the instance may now be stuck (the drain's
        // debug oracle re-verifies quiescence).
        self.evaluate_from(world, instance, &[]);
    }

    /// Disarms a dispatch's watchdog and releases its load accounting;
    /// returns the executor the dispatch ran on, if one was counted.
    pub(super) fn clear_watch(
        &self,
        world: &mut World,
        instance: &str,
        path: &str,
    ) -> Option<NodeId> {
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
}
