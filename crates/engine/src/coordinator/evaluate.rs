//! Evaluation — the back half of the commit pipeline: each committed
//! fact seeds a worklist from the plan's reverse edges, and the drain
//! re-tests input-set satisfaction, activates what became startable and
//! re-checks compound scopes' outputs (a mark, a terminal outcome
//! cancelling whatever is still live below, or the scope-level repeat
//! of fig. 8) until the instance is quiescent — then checks it is not
//! stuck (and, in debug builds, that a full scan agrees nothing was
//! missed).

use std::collections::BTreeMap;
use std::rc::Rc;

use flowscript_core::ast::OutputKind;
use flowscript_obs::ObsEventKind;
use flowscript_plan::{eval as plan_eval, Plan, StrId, TaskId, Worklist};
use flowscript_sim::World;
use flowscript_tx::{AtomicAction, FactKind, StableStore, StoreKey, TxManager};

use super::{write_cb, CoordHandle, Coordinator, InstanceStatus, Outcome};
use crate::error::EngineError;
use crate::facts::{self, StoreFacts};
use crate::keys::InstanceKeys;
use crate::state::{CbState, TaskCb};
use crate::value::ObjectVal;

impl CoordHandle {
    /// The instance's plan and interned key table.
    pub(super) fn instance_ctx(&self, instance: &str) -> Option<(Rc<Plan>, Rc<InstanceKeys>)> {
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
    /// notification edges) and drains.
    pub fn evaluate_from(&self, world: &mut World, instance: &str, changed: &[TaskId]) {
        let Some((plan, keys)) = self.instance_ctx(instance) else {
            return;
        };
        let mut worklist = Worklist::new();
        for &task in changed {
            worklist.seed_commit(&plan, task);
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
        // The whole drain commits as one WAL group: every action the
        // cascade below commits buffers into a single frame flushed at
        // the outermost `end_group` (nested drains — e.g. a fail_task
        // inside a scope cascade — fold into the enclosing group via
        // the depth counter).
        self.inner.borrow_mut().mgr.begin_group();
        self.drain_inner(world, instance, plan, keys, worklist);
        // Flush failures surface on the next commit's storage ops; the
        // drain itself has no error channel.
        let _ = self.inner.borrow_mut().mgr.end_group();
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
                // Checked only where the record decodes: a missing or
                // corrupt one is a storage fault, not a mirror drift.
                #[cfg(debug_assertions)]
                if let Ok(record) = coordinator.read_status(instance) {
                    assert_eq!(
                        rt.terminal,
                        record.status.is_terminal(),
                        "status mirror of `{instance}` drifted from its committed record"
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
        {
            self.assert_quiescent(instance, plan, keys);
            self.inner.borrow().assert_flights_consistent(instance);
        }
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
                    let facts = StoreFacts::new(&coordinator.mgr, keys);
                    let satisfied = plan_eval::eval_task_inputs(plan, task_id, &facts);
                    match facts.take_fault() {
                        Some(fault) => Err(format!("fact storage fault: {fault}")),
                        None => Ok(satisfied),
                    }
                }
                _ => Ok(None),
            }
        };
        let activation = match activation {
            Err(fault) => {
                self.inner
                    .borrow_mut()
                    .park_stuck(world.now().as_nanos(), instance, keys, fault);
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
        set_id: StrId,
        bound: Vec<(StrId, ObjectVal)>,
    ) -> bool {
        let task = plan.task(task_id);
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
            let staged = coordinator.atomically(|mgr, action| {
                write_cb(mgr, action, keys, task_id, &cb)?;
                facts::write_fact_bound(mgr, action, plan, in_key, slots, &bound)?;
                Ok(())
            });
            if staged.is_err() {
                return false;
            }
        }
        if !task.is_scope {
            let stamped = facts::bound_map(plan, &bound);
            self.dispatch(world, instance, task_id, 0, stamped, BTreeMap::new());
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
            let facts = StoreFacts::new(&coordinator.mgr, keys);
            let satisfied = plan_eval::eval_scope_outputs(plan, scope_id, &facts);
            match facts.take_fault() {
                Some(fault) => Err(format!("fact storage fault: {fault}")),
                None => Ok(satisfied),
            }
        };
        let satisfied = match satisfied {
            Err(fault) => {
                self.inner
                    .borrow_mut()
                    .park_stuck(world.now().as_nanos(), instance, keys, fault);
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

    #[allow(clippy::too_many_arguments)]
    fn emit_scope_mark(
        &self,
        now_ns: u64,
        instance: &str,
        plan: &Plan,
        keys: &InstanceKeys,
        scope_id: TaskId,
        out_idx: usize,
        mapped: &[(StrId, ObjectVal)],
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
        coordinator.atomically(|mgr, action| {
            write_cb(mgr, action, keys, scope_id, &cb)?;
            facts::write_fact_bound(mgr, action, plan, out_key, output.slots, mapped)?;
            Ok(())
        })?;
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
        mapped: Vec<(StrId, ObjectVal)>,
    ) {
        let output = &plan.outputs[out_idx];
        let outcome_name = plan.str(output.name);
        let scope_path = plan.str(plan.task(scope_id).path);
        let is_root = plan.task(scope_id).parent.is_none();
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
            // The root's outcome is the instance's.
            let root_record = is_root
                .then(|| coordinator.read_status(instance).ok())
                .flatten()
                .map(|mut record| {
                    record.status = InstanceStatus::Completed(Outcome {
                        name: outcome_name.to_string(),
                        kind,
                        objects: facts::bound_map(plan, &mapped),
                    });
                    record
                });
            let staged = coordinator.atomically(|mgr, action| {
                write_cb(mgr, action, keys, scope_id, &cb)?;
                facts::write_fact_bound(mgr, action, plan, out_key, output.slots, &mapped)?;
                // Cancel every non-terminal descendant (one flat subtree
                // scan — DFS pre-order keeps descendants contiguous).
                let cancelled = cancel_descendants(mgr, action, keys, plan, scope_id)?;
                if let Some(record) = &root_record {
                    mgr.write_key(action, keys.status(), record)?;
                }
                Ok(cancelled)
            });
            if let Ok(cancelled) = staged {
                coordinator.note_terminals(instance, 1 + cancelled); // and the scope itself
                if let Some(record) = &root_record {
                    coordinator.note_status(instance, &record.status);
                }
                if is_root {
                    // The instance just completed: its admission slot
                    // frees for a queued start.
                    coordinator.admission.instance_settled();
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
        }
        // Drop volatile tracking for the whole subtree.
        self.discard_flights(world, instance, plan.subtree(scope_id));
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
        mapped: Vec<(StrId, ObjectVal)>,
        worklist: &mut Worklist,
    ) {
        let output = &plan.outputs[out_idx];
        let outcome_name = plan.str(output.name);
        let scope_path = plan.str(plan.task(scope_id).path);
        let is_root = plan.task(scope_id).parent.is_none();
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
                // The repeat counts only on commit success.
                if coordinator.commit_cb(keys.cb(scope_id), &cb) {
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
                true
            } else {
                // Reset: bump this scope's incarnation, clear own input
                // facts and all descendant state, publish the repeat fact.
                cb.scope_inc += 1;
                let new_inc = cb.scope_inc;
                // The root, which has no bindings, reactivates with the
                // input set and inputs it was started with.
                let started_as = is_root
                    .then(|| coordinator.read_header(instance).ok())
                    .flatten();
                let staged = coordinator.atomically(|mgr, action| {
                    facts::write_fact_bound(mgr, action, plan, out_key, output.slots, &mapped)?;
                    if is_root {
                        if let Some(header) = &started_as {
                            cb.state = CbState::Active {
                                set: header.set.clone(),
                            };
                            let in_key = keys
                                .in_key(plan, scope_id, &header.set)
                                .ok_or_else(|| EngineError::UnknownTask(scope_path.to_string()))?;
                            facts::write_fact_map(mgr, action, plan, in_key, &header.inputs)?;
                        }
                    } else {
                        // The compound goes back to Waiting to rebind:
                        // clear its own input-binding facts — one range
                        // scan over the dense keys.
                        cb.state = CbState::Waiting;
                        let (lo, hi) = keys.input_fact_range(scope_id);
                        for fact in mgr.fact_keys_in_range(lo, hi) {
                            mgr.delete_key(action, &StoreKey::Fact(fact))?;
                        }
                    }
                    write_cb(mgr, action, keys, scope_id, &cb)?;
                    // All descendant facts die with the incarnation: the
                    // whole DFS-contiguous subtree is one key range. The
                    // blocks in it stay — `reset_descendants` rewrites
                    // each for the new incarnation.
                    if let Some((lo, hi)) = keys.subtree_fact_range(plan, scope_id) {
                        for fact in mgr.fact_keys_in_range(lo, hi) {
                            if fact.kind != FactKind::Control {
                                mgr.delete_key(action, &StoreKey::Fact(fact))?;
                            }
                        }
                    }
                    reset_descendants(mgr, action, keys, plan, scope_id, new_inc)
                });
                if let Ok(revived) = staged {
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
                false
            }
        };
        // Cancel volatile subtree tracking either way.
        self.discard_flights(world, instance, plan.subtree(scope_id));
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
                coordinator.count_nonterminal(plan, keys),
                "incremental non-terminal count of `{instance}` drifted"
            );
        }
        let facts = StoreFacts::new(&coordinator.mgr, keys);
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
    /// blocks (dense-key point reads) to compose the diagnostic reason.
    fn stuck_check(&self, world: &mut World, instance: &str) {
        let mut coordinator = self.inner.borrow_mut();
        let Some(rt) = coordinator.instances.get(instance) else {
            return;
        };
        if rt.terminal || !rt.flights.is_idle() {
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
            let path = plan.str(plan.task(id).path);
            match &cb.state {
                CbState::Failed { reason } => {
                    failed.push(format!("{path} ({reason})"));
                }
                CbState::Waiting => {
                    let facts = StoreFacts::new(&coordinator.mgr, &keys);
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
                        waiting.push(path.to_string());
                    } else {
                        waiting.push(format!("{path} (deps met: {pending})"));
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
        coordinator.park_stuck(world.now().as_nanos(), instance, &keys, reason);
    }
}

impl Coordinator {
    /// Parks a running instance `Stuck` with the diagnosable `reason`
    /// (a reconfiguration or administrative repair can revive it). The
    /// drain ends here when nothing can run and the root cannot
    /// terminate — and when a fact probe hit a storage/decode fault: a
    /// corrupt record must not read as "fact absent" and silently
    /// mis-evaluate readiness.
    pub(super) fn park_stuck(
        &mut self,
        now_ns: u64,
        instance: &str,
        keys: &InstanceKeys,
        reason: String,
    ) {
        let Ok(mut record) = self.read_status(instance) else {
            return;
        };
        if record.status.is_terminal() {
            return;
        }
        record.status = InstanceStatus::Stuck {
            reason: reason.clone(),
        };
        if self.commit_object(keys.status(), &record).is_ok() {
            self.note_status(instance, &record.status);
            // A stuck instance stops counting against the admission
            // cap (a revival re-counts it).
            self.admission.instance_settled();
            self.record_event(now_ns, instance, None, 0, ObsEventKind::Stuck { reason });
        }
    }
}

/// Cancels every non-terminal descendant of a scope: one linear scan of
/// the plan's contiguous subtree range. Returns how many blocks it
/// cancelled.
fn cancel_descendants(
    mgr: &mut TxManager<StableStore>,
    action: &AtomicAction,
    keys: &InstanceKeys,
    plan: &Plan,
    scope_id: TaskId,
) -> Result<usize, EngineError> {
    let mut cancelled = 0;
    for task_id in plan.subtree(scope_id) {
        let key = StoreKey::Fact(keys.cb(task_id));
        if let Some(mut cb) = mgr.read_key::<TaskCb>(action, &key)? {
            if !cb.state.is_terminal() {
                cb.transition(CbState::Cancelled);
                mgr.write_key(action, &key, &cb)?;
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
    action: &AtomicAction,
    keys: &InstanceKeys,
    plan: &Plan,
    scope_id: TaskId,
    incarnation: u32,
) -> Result<usize, EngineError> {
    let mut revived = 0;
    for &child in plan.children(scope_id) {
        let task = plan.task(child);
        let key = StoreKey::Fact(keys.cb(child));
        let mut inner_inc = 0;
        if let Some(mut cb) = mgr.read_key::<TaskCb>(action, &key)? {
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
            mgr.write_key(action, &key, &cb)?;
        }
        if task.is_scope {
            revived += reset_descendants(mgr, action, keys, plan, child, inner_inc)?;
        }
    }
    Ok(revived)
}
