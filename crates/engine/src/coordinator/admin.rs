//! Operator actions on a running instance, each one step: dynamic
//! reconfiguration (paper §2/§3: transactional structure changes — a
//! new version of the instance's script), the wait-state abort, and
//! fact repair (with its fault-injection twin).

use std::collections::BTreeMap;
use std::sync::Arc;

use flowscript_core::ast::OutputKind;
use flowscript_obs::ObsEventKind;
use flowscript_plan::{Plan, TaskId};
use flowscript_tx::{FactKey, StoreKey};

use super::evaluate::cancel_descendants;
use super::lifecycle::{pin_source, pinned_source};
use super::meta::source_hash;
use super::step::Effect;
use super::Coordinator;
use crate::error::EngineError;
use crate::facts;
use crate::keys::{in_key, meta_uid, out_key, source_uid, status_uid};
use crate::reconfig::{self, Reconfig};
use crate::state::{CbState, TaskCb};
use crate::value::{entries, ObjectVal};

impl Coordinator {
    /// Overwrites `keys` with undecodable bytes, in one commit.
    pub(super) fn poison(&mut self, keys: impl IntoIterator<Item = StoreKey>) -> bool {
        let staged = self.atomically(|mgr, action| {
            for key in keys {
                mgr.write_key_raw(action, &key, vec![0xFF, 0xFF, 0xFF])?;
            }
            Ok(())
        });
        staged.is_ok()
    }

    /// Overwrites every stored sub-key of one fact of `path` — the
    /// output called `name`, else the input set called `name` — with
    /// undecodable bytes: fault injection for the corrupt-record tests
    /// (a read must surface the fault, not "absent").
    #[doc(hidden)]
    pub fn poison_fact(&mut self, instance: &str, path: &str, name: &str) -> bool {
        let Some(rt) = self.instances.named(instance) else {
            return false;
        };
        let (plan, instance_id) = (rt.plan.clone(), rt.id);
        let Some(task) = plan.task_by_path(path) else {
            return false;
        };
        let base = out_key(&plan, instance_id, task, name)
            .or_else(|| in_key(&plan, instance_id, task, name));
        let Some(base) = base else {
            return false;
        };
        let mut targets = self.mgr.fact_keys_in_range(base, base.fact_last());
        if targets.is_empty() {
            targets.push(base);
        }
        self.poison(targets.into_iter().map(StoreKey::Fact))
    }

    /// [`Coordinator::poison_fact`] for a record an instance keeps
    /// besides its facts: `which` names its `status` (stuck) record, its
    /// `root` control block, or the `source` blob it pins. Works on a
    /// crashed coordinator too (the bytes land in its log, as a fault
    /// that struck while it was down would).
    #[doc(hidden)]
    pub fn poison_record(&mut self, instance: &str, which: &str) -> bool {
        let header = self.read_header(instance).ok();
        let key = match (which, header) {
            ("status", _) => Some(status_uid(instance)),
            ("root", Some(header)) => Some(StoreKey::Fact(FactKey::control(header.instance_id, 0))),
            ("source", Some(header)) => Some(source_uid(header.source_hash)),
            _ => None,
        };
        match key.filter(|key| self.mgr.exists_key(key)) {
            Some(key) => self.poison([key]),
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
    pub(super) fn repair_fact(
        &mut self,
        instance: &str,
        path: &str,
        output: &str,
        objects: BTreeMap<String, ObjectVal>,
    ) -> Result<(), EngineError> {
        // Repair reads current state: absorb the batch window first.
        self.flush_pending();
        let (plan, instance_id) = self.plant(instance)?;
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
        let Some(out_key) = out_key(&plan, instance_id, task_id, output) else {
            return Err(EngineError::UnknownTask(path.to_string()));
        };
        // One step: the fact, the forced block, the revival and the
        // full drain behind them — the repaired fact has no commit to
        // seed from.
        self.reevaluate(&[instance_id], |coordinator, step, drain| {
            let mut cb = coordinator.staged_cb(step, &plan, instance_id, task_id)?;
            let forced = match kind {
                _ if cb.state.is_terminal() => None,
                OutputKind::Outcome => Some(CbState::Done {
                    outcome: output.into(),
                }),
                OutputKind::AbortOutcome => Some(CbState::Aborted {
                    outcome: output.into(),
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
            let stuck = status_uid(instance);
            let revived = coordinator
                .mgr
                .read_through(step.staged(), &stuck)
                .is_some();
            // The root's outcome is the instance's.
            let settles = forced.is_some() && plan.task(task_id).parent.is_none();
            let action = step.action(&mut coordinator.mgr);
            let mgr = &mut coordinator.mgr;
            // Drop the stored sub-keys first: a corrupt record may use
            // a different layout than the rewrite below.
            for fact in mgr.fact_keys_in_range(out_key, out_key.fact_last()) {
                mgr.delete_key(action, &StoreKey::Fact(fact))?;
            }
            facts::write_fact_map(mgr, action, &plan, out_key, entries(&objects), Some(path))?;
            if forced.is_some() {
                facts::write_block(mgr, action, &plan, instance_id, task_id, &cb)?;
            }
            if revived {
                mgr.delete_key(action, &stuck)?;
            }
            if settles {
                cancel_descendants(mgr, action, instance_id, &plan, task_id)?;
            }
            if revived {
                // Back from Stuck: the instance is evaluated, and counts
                // against the admission cap, again.
                step.push(drain.id, Effect::Status(false));
                drain.terminal = false;
            }
            let what = match forced {
                Some(_) => {
                    // Whatever the task had on the wire will never be
                    // applied.
                    step.push(drain.id, Effect::Discard(task_id..task_id + 1));
                    drain.lands(task_id);
                    format!("forced `{output}` of `{path}`")
                }
                None => format!("republished `{output}` of `{path}`"),
            };
            if settles {
                // What still ran below the root is cancelled with its
                // flights, and the instance completes.
                drain.discard_below(step, task_id);
                drain.terminal = true;
                step.push(drain.id, Effect::Status(true));
            }
            coordinator.trace(step, drain.id, Some(path), cb.attempt, || {
                ObsEventKind::Repair { what }
            });
            drain.worklist.seed_all(&plan);
            Ok(())
        })?;
        self.pump();
        Ok(())
    }

    /// Applies a reconfiguration to a running instance: a new version
    /// of its script, in one step.
    ///
    /// The op edits the script the instance runs — its pinned source
    /// ([`reconfig::apply`]) — and the front end compiles the edited
    /// text through the shard's plan cache, as it compiles a start's.
    /// One atomic action then pins that text, points the header at it,
    /// **remaps** the instance's
    /// persisted facts and control blocks onto the new plan's dense ids
    /// (task ids shift when tasks are added or removed; what belonged to
    /// a vanished task or declaration is deleted), gives each new task
    /// its block, revives a `Stuck` instance and stages the full drain
    /// over the new plan: new tasks and new edges have no commit to seed
    /// from. Its first effect swaps the resident plan.
    ///
    /// # Errors
    ///
    /// Validation failures, and a commit that fails, leave the instance
    /// untouched.
    pub(super) fn reconfigure(&mut self, instance: &str, op: Reconfig) -> Result<(), EngineError> {
        // Reconfiguration edits committed truth: absorb the batch window
        // first.
        self.flush_pending();
        let unknown = || EngineError::UnknownInstance(instance.to_string());
        let instance_id = self.instances.resolve(instance).ok_or_else(unknown)?;
        let (old_plan, name) = self.instance_ctx(instance_id).ok_or_else(unknown)?;
        self.step(&[instance_id], |coordinator, step, _| {
            let mut header = coordinator.read_header(instance)?;
            let source = pinned_source(&coordinator.mgr, instance, &header)?;
            let text = reconfig::apply(source, &header.root, &op)?;
            let hash = source_hash(&text);
            let plan = coordinator.plan_cache.plan(hash, &text, &header.root);
            let plan = plan.map_err(reconfig::rejected)?;
            fn path(plan: &Plan, id: TaskId) -> &str {
                plan.str(plan.task(id).path)
            }
            let old_id = |id: TaskId| old_plan.task_by_path(path(&plan, id));
            // The new tasks are the paths the old plan lacks; each joins
            // the current incarnation of its scope — a block to store
            // unless that is the first, which a missing block reads as.
            let mut new_blocks: Vec<(TaskId, TaskCb)> = Vec::new();
            for id in (0..plan.tasks.len() as TaskId).filter(|&id| old_id(id).is_none()) {
                let mut cb = TaskCb::waiting();
                if let Some(scope) = plan.task(id).parent.and_then(old_id) {
                    cb.incarnation = coordinator
                        .read_cb_id(&old_plan, instance_id, scope)?
                        .scope_inc;
                }
                if cb != TaskCb::waiting() {
                    new_blocks.push((id, cb));
                }
            }
            // A reconfiguration can rescue a stuck instance (e.g. by
            // adding an alternative source): it is evaluated again.
            let stuck = status_uid(instance);
            let revived = coordinator.mgr.exists_key(&stuck);
            header.source_hash = hash;
            let action = step.action(&mut coordinator.mgr);
            let mgr = &mut coordinator.mgr;
            // The remap reads committed state: it stages first.
            facts::remap_instance_facts(mgr, action, &old_plan, &plan, instance_id)?;
            pin_source(mgr, action, hash, &text)?;
            mgr.write_key(action, &meta_uid(instance), &header)?;
            if revived {
                mgr.delete_key(action, &stuck)?;
            }
            // After the remap: a new task may take an id it vacated.
            for (task, cb) in &new_blocks {
                facts::write_block(mgr, action, &plan, instance_id, *task, cb)?;
            }
            step.push(instance_id, Effect::Replan(plan.clone()));
            if revived {
                step.push(instance_id, Effect::Status(false));
            }
            step.push(instance_id, Effect::Count(|stats| &mut stats.reconfigs));
            // The drain runs over the new plan, its flights re-keyed
            // onto it the way the books will be.
            let mut drain = coordinator.drain_of(name.clone(), &plan, instance_id);
            drain.terminal &= !revived;
            let flying = drain.flying.iter();
            let moved = flying.filter_map(|&task| plan.task_by_path(path(&old_plan, task)));
            drain.flying = moved.collect();
            drain.worklist.seed_all(&plan);
            coordinator.stage_drain(step, &mut drain)
        })?;
        self.pump();
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
    pub(super) fn abort_waiting_task(
        &mut self,
        instance: &str,
        path: &str,
        outcome: &str,
    ) -> Result<(), EngineError> {
        // The operator decision is against current state: absorb the
        // batch window first.
        self.flush_pending();
        let (plan, instance_id) = self.plant(instance)?;
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
        let out_key = out_key(&plan, instance_id, task_id, outcome)
            .ok_or_else(|| EngineError::UnknownTask(path.to_string()))?;
        // One step: the abort, its (empty) fact and what they cascade
        // into.
        self.reevaluate(&[instance_id], |coordinator, step, drain| {
            let mut cb = coordinator.staged_cb(step, &plan, instance_id, task_id)?;
            if cb.state != CbState::Waiting {
                return Err(EngineError::ReconfigRejected(format!(
                    "task `{path}` is not waiting (state {:?})",
                    cb.state
                )));
            }
            cb.transition(CbState::Aborted {
                outcome: outcome.into(),
            });
            let action = step.action(&mut coordinator.mgr);
            facts::write_block(
                &mut coordinator.mgr,
                action,
                &plan,
                instance_id,
                task_id,
                &cb,
            )?;
            facts::write_fact_map(
                &mut coordinator.mgr,
                action,
                &plan,
                out_key,
                std::iter::empty(),
                None,
            )?;
            drain.worklist.seed_commit(&plan, task_id);
            Ok(())
        })?;
        self.pump();
        Ok(())
    }

    /// `instance`'s plan and id, its runtime marked as one an operator
    /// may publish into below a scope yet to activate.
    fn plant(&mut self, instance: &str) -> Result<(Arc<Plan>, u32), EngineError> {
        let Some(rt) = self.instances.named_mut(instance) else {
            return Err(EngineError::UnknownInstance(instance.to_string()));
        };
        rt.planted = true;
        Ok((rt.plan.clone(), rt.id))
    }
}
