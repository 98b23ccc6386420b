//! Evaluation — the back half of the commit pipeline: each committed
//! fact seeds a worklist from the plan's reverse edges, and the drain
//! re-tests input-set satisfaction, activates what became startable and
//! re-checks scope outputs until the instance is quiescent.

use std::collections::BTreeMap;
use std::rc::Rc;

use flowscript_core::ast::OutputKind;
use flowscript_plan::{eval as plan_eval, Plan, StrId, TaskId, Worklist};
use flowscript_sim::World;

use super::CoordHandle;
use crate::facts::{self, StoreFacts};
use crate::keys::InstanceKeys;
use crate::state::CbState;
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
    /// notification edges) and drains. With
    /// [`EngineConfig::full_rescan`](super::EngineConfig::full_rescan) set, falls back to the full-scan
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
}
