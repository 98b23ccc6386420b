//! Operator actions on a running instance: dynamic reconfiguration
//! (paper §2/§3: transactional structure changes), the wait-state
//! abort, and fact repair (with its fault-injection twin).

use std::collections::BTreeMap;
use std::rc::Rc;

use flowscript_core::ast::OutputKind;
use flowscript_obs::ObsEventKind;
use flowscript_plan::{Plan, TaskId};
use flowscript_sim::World;
use flowscript_tx::StoreKey;

use super::step::Effect;
use super::{write_cb, CoordHandle, Coordinator, InstanceStatus, StatusRecord};
use crate::error::EngineError;
use crate::facts;
use crate::keys::{bind_uid, plan_uid, reconfig_uid, source_uid, status_uid, InstanceKeys};
use crate::reconfig::{self, Reconfig};
use crate::state::{CbState, TaskCb};
use crate::value::ObjectVal;

impl Coordinator {
    /// Overwrites `keys` with undecodable bytes, in one commit.
    fn poison(&mut self, keys: impl IntoIterator<Item = StoreKey>) -> bool {
        let staged = self.atomically(|mgr, action| {
            for key in keys {
                mgr.write_key_raw(action, &key, vec![0xFF, 0xFF, 0xFF])?;
            }
            Ok(())
        });
        staged.is_ok()
    }
}

impl CoordHandle {
    /// Overwrites every stored sub-key of one fact of `path` — the
    /// output called `name`, else the input set called `name` — with
    /// undecodable bytes: fault injection for the corrupt-record tests
    /// (a read must surface the fault, not "absent").
    #[doc(hidden)]
    pub fn poison_fact(&self, instance: &str, path: &str, name: &str) -> bool {
        let mut coordinator = self.inner.borrow_mut();
        let Some(rt) = coordinator.instances.get(instance) else {
            return false;
        };
        let (plan, keys) = (rt.plan.clone(), rt.keys.clone());
        let Some(task) = plan.task_by_path(path) else {
            return false;
        };
        let base = keys
            .out_key(&plan, task, name)
            .or_else(|| keys.in_key(&plan, task, name));
        let Some(base) = base else {
            return false;
        };
        let mut targets = coordinator.mgr.fact_keys_in_range(base, base.fact_last());
        if targets.is_empty() {
            targets.push(base);
        }
        coordinator.poison(targets.into_iter().map(StoreKey::Fact))
    }

    /// [`CoordHandle::poison_fact`] for one of the three records an
    /// instance keeps besides its facts: `which` names its `status`
    /// record, or the `plan` or `source` blob it pins. Works on a
    /// crashed coordinator too (the bytes land in its log, as a fault
    /// that struck while it was down would).
    #[doc(hidden)]
    pub fn poison_record(&self, instance: &str, which: &str) -> bool {
        let mut coordinator = self.inner.borrow_mut();
        let key = match which {
            "status" => Some(status_uid(instance)),
            "plan" => coordinator
                .read_status(instance)
                .map(|record| plan_uid(record.plan_fingerprint))
                .ok(),
            "source" => coordinator
                .read_header(instance)
                .map(|header| source_uid(header.source_hash))
                .ok(),
            _ => None,
        };
        match key.filter(|key| coordinator.mgr.exists_key(key)) {
            Some(key) => coordinator.poison([key]),
            None => false,
        }
    }

    /// Administrative fact repair: atomically replaces whatever is
    /// stored for `output` of `path` (including undecodable bytes a
    /// storage fault left behind) with `objects`, revives the instance
    /// if it was parked `Stuck`, and re-evaluates it through the full
    /// scan, all in one step.
    ///
    /// When `output` is a terminal outcome (`completion`/`abort`) and
    /// the task has not yet terminated, the task is **force-completed**
    /// with it, exactly as if the executor had replied — the escape
    /// hatch for a task whose real reply was lost to the fault.
    ///
    /// # Errors
    ///
    /// Unknown instance/task, an undeclared output name, an outcome the
    /// task's state cannot take (fig. 3 has no `Waiting → Done`), or a
    /// failed commit: each leaves the instance untouched.
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
        let (plan, keys) = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(rt) = coordinator.instances.get_mut(instance) else {
                return Err(EngineError::UnknownInstance(instance.to_string()));
            };
            rt.planted = true; // this may publish below a scope yet to activate
            (rt.plan.clone(), rt.keys.clone())
        };
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
        let stamped: BTreeMap<String, ObjectVal> = objects
            .into_iter()
            .map(|(k, v)| (k, v.produced_by(path.to_string())))
            .collect();
        // One step: the fact, the forced block, the revival and the
        // full drain behind them — the repaired fact has no commit to
        // seed from.
        self.reevaluate(world, instance, |coordinator, step, drain| {
            let Some(mut cb) = coordinator.staged_cb(step, &keys, task_id) else {
                return Err(EngineError::UnknownTask(path.to_string()));
            };
            let forced = match kind {
                _ if cb.state.is_terminal() => None,
                OutputKind::Outcome => Some(CbState::Done {
                    outcome: output.to_string(),
                }),
                OutputKind::AbortOutcome => Some(CbState::Aborted {
                    outcome: output.to_string(),
                }),
                OutputKind::RepeatOutcome | OutputKind::Mark => None,
            };
            if let Some(state) = forced.clone() {
                // Not every state can take every outcome (fig. 3): a task
                // still `Waiting` has bound no inputs to complete on.
                if !TaskCb::transition_allowed(&cb.state, &state) {
                    return Err(EngineError::ReconfigRejected(format!(
                        "task `{path}` cannot be forced to `{output}` from state {:?}",
                        cb.state
                    )));
                }
                cb.transition(state);
            }
            let revival = coordinator
                .staged::<StatusRecord>(step, keys.status())?
                .filter(|record| matches!(record.status, InstanceStatus::Stuck { .. }))
                .map(|mut record| {
                    record.status = InstanceStatus::Running;
                    record
                });
            let action = step.action(&mut coordinator.mgr);
            let mgr = &mut coordinator.mgr;
            // Drop the stored sub-keys first: a corrupt record may use
            // a different layout than the rewrite below.
            for fact in mgr.fact_keys_in_range(out_key, out_key.fact_last()) {
                mgr.delete_key(action, &StoreKey::Fact(fact))?;
            }
            facts::write_fact_map(mgr, action, &plan, out_key, &stamped)?;
            if forced.is_some() {
                write_cb(mgr, action, &keys, task_id, &cb)?;
            }
            if let Some(record) = revival {
                // Back from Stuck: the instance is evaluated, and counts
                // against the admission cap, again.
                mgr.write_key(action, keys.status(), &record)?;
                step.push(&drain.name, Effect::Status(record.status));
                drain.terminal = false;
            }
            let what = match forced {
                Some(_) => {
                    // Whatever the task had on the wire will never be
                    // applied.
                    step.push(&drain.name, Effect::Terminals(1));
                    step.push(&drain.name, Effect::Discard(task_id..task_id + 1));
                    drain.lands(task_id);
                    format!("forced `{output}` of `{path}`")
                }
                None => format!("republished `{output}` of `{path}`"),
            };
            coordinator.trace(step, &drain.name, Some(path), cb.attempt, || {
                ObsEventKind::Repair { what }
            });
            drain.worklist.seed_all(&plan);
            Ok(())
        })?;
        self.pump(world);
        Ok(())
    }

    /// Applies a reconfiguration to a running instance atomically.
    ///
    /// The plan is re-lowered from the mutated schema, the instance's
    /// persisted facts and control blocks are **remapped** onto the new
    /// plan's dense ids (task ids shift when tasks are added or removed;
    /// what belonged to a vanished task or declaration is deleted), and
    /// the interned key table is rebuilt — all in the same atomic action
    /// as the op itself.
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
        let old_plan = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(rt) = coordinator.instances.get(instance) else {
                return Err(EngineError::UnknownInstance(instance.to_string()));
            };
            let (old_plan, old_keys) = (rt.plan.clone(), rt.keys.clone());
            let resident_schema = rt.schema.clone();
            let mut record = coordinator.read_status(instance)?;
            // A reconfiguration can rescue a stuck instance (e.g. by adding
            // an alternative source), so revive it for re-evaluation.
            let revived = matches!(record.status, InstanceStatus::Stuck { .. });
            if revived {
                record.status = InstanceStatus::Running;
            }
            // Materialize the schema on demand: an instance started
            // from a served plan never compiled one. Replay any
            // previously persisted reconfigurations so it is current.
            let mut schema = match resident_schema {
                Some(schema) => (*schema).clone(),
                None => {
                    let header = coordinator.read_header(instance)?;
                    coordinator.rebuild_schema(instance, &header)?
                }
            };
            let effects = reconfig::apply(&mut schema, &op)?;
            // Compile-once per structural change: the mutated schema is
            // re-lowered and swapped in atomically with the fact remap.
            let new_plan = Plan::lower(&schema);
            let new_keys = InstanceKeys::build(&new_plan, instance, old_keys.instance_id);

            let n = record.reconfig_count;
            record.reconfig_count += 1;
            record.plan_fingerprint = new_plan.fingerprint;
            // New tasks join the current incarnation of their scope.
            let new_blocks: Vec<(TaskId, TaskCb)> = effects
                .new_tasks
                .iter()
                .filter_map(|path| {
                    let scope_path = path.rsplit_once('/').map(|(s, _)| s).unwrap_or("");
                    let scope_inc = old_plan
                        .task_by_path(scope_path)
                        .and_then(|scope| coordinator.read_cb_id(&old_keys, scope))
                        .map_or(0, |cb| cb.scope_inc);
                    let mut cb = TaskCb::waiting();
                    cb.incarnation = scope_inc;
                    Some((new_plan.task_by_path(path)?, cb))
                })
                .collect();
            // Persist the op and its engine-side effects in one action.
            coordinator.atomically(|mgr, action| {
                mgr.write_key(action, &reconfig_uid(instance, n), &op)?;
                mgr.write_key(action, new_keys.status(), &record)?;
                let plan_key = plan_uid(new_plan.fingerprint);
                if !mgr.exists_key(&plan_key) {
                    mgr.write_key(action, &plan_key, &new_plan)?;
                }
                // Move every persisted fact and control block onto the
                // new plan's id space; a removed task's die here.
                facts::remap_instance_facts(
                    mgr,
                    action,
                    &old_plan,
                    &old_keys,
                    &new_plan,
                    old_keys.instance_id,
                )?;
                // After the remap: a new task may take an id it vacated.
                for (task, cb) in &new_blocks {
                    write_cb(mgr, action, &new_keys, *task, cb)?;
                }
                if let Reconfig::Rebind { code, to } = &op {
                    mgr.write_key(action, &bind_uid(instance, code), to)?;
                }
                Ok(())
            })?;
            coordinator.note_status(instance, &record.status);
            if revived {
                // Back from Stuck: the instance counts against the
                // admission cap again.
                coordinator.admission.instance_live();
            }
            coordinator.metrics.reconfigs.inc();
            // The plan (and possibly the task set) changed: recount the
            // non-terminal blocks instead of patching deltas.
            let nonterminal = coordinator.count_nonterminal(&new_plan, &new_keys);
            let rt = coordinator
                .instances
                .get_mut(instance)
                .expect("checked above");
            rt.plan = Rc::new(new_plan);
            rt.keys = Rc::new(new_keys);
            rt.schema = Some(Rc::new(schema));
            rt.nonterminal = nonterminal;
            if let Reconfig::Rebind { code, to } = &op {
                rt.bindings.insert(code.clone(), to.clone());
            }
            old_plan
        };
        // Task ids shifted under dispatch's books.
        self.rekey_flights(world, instance, &old_plan);
        // The old fingerprint may now be orphaned — reclaim it right
        // away rather than waiting for the next checkpoint (an idle
        // instance would strand it forever).
        self.inner.borrow_mut().gc_plans()?;
        // The plan changed under the instance: reconfiguration re-enters
        // through the full scan (new tasks and new edges have no commit
        // to seed from) — a second step, not folded into the commit
        // above: the resident plan and dispatch's books are swapped in
        // between.
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
        let (plan, keys) = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(rt) = coordinator.instances.get_mut(instance) else {
                return Err(EngineError::UnknownInstance(instance.to_string()));
            };
            rt.planted = true; // this may publish below a scope yet to activate
            (rt.plan.clone(), rt.keys.clone())
        };
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
        // One step: the abort, its (empty) fact and what they cascade
        // into.
        self.reevaluate(world, instance, |coordinator, step, drain| {
            let Some(mut cb) = coordinator.staged_cb(step, &keys, task_id) else {
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
            let action = step.action(&mut coordinator.mgr);
            write_cb(&mut coordinator.mgr, action, &keys, task_id, &cb)?;
            facts::write_fact_map(
                &mut coordinator.mgr,
                action,
                &plan,
                out_key,
                &BTreeMap::new(),
            )?;
            step.push(&drain.name, Effect::Terminals(1));
            drain.worklist.seed_commit(&plan, task_id);
            Ok(())
        })?;
        self.pump(world);
        Ok(())
    }
}
