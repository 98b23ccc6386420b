//! Evaluation — the cascade of a step: each fact the step stages seeds
//! a worklist from the plan's reverse edges, and the drain re-tests
//! input-set satisfaction, activates what became startable and
//! re-checks compound scopes' outputs (a mark, a terminal outcome
//! cancelling whatever is still live below, or the scope-level repeat
//! of fig. 8) until the instance is quiescent — then checks it is not
//! stuck. All of it *stages*: writes go into the step's action, reads
//! back through it, and what must happen outside the store is left as
//! the step's effects (a debug-build full scan checks the outcome).
//! [`Coordinator::reevaluate`] is the step over resident instances that
//! every event outside the commit window runs as: for each instance in
//! turn the caller stages its transition and the drain stages behind
//! it, then one commit and the effects. An event names one instance; a
//! stored instance coming back — a restart, a landing — names all of
//! them at once (`recovery`).

use std::collections::BTreeMap;
use std::sync::Arc;

use flowscript_core::ast::OutputKind;
use flowscript_obs::ObsEventKind;
use flowscript_plan::{eval as plan_eval, Plan, StrId, TaskId, Worklist};
use flowscript_tx::{AtomicAction, FactKey, StableStore, TxManager};

use super::step::{Effect, Launch, Step};
use super::{block_fault, settled, Coordinator, StuckRecord};
use crate::error::EngineError;
use crate::facts::{self, Found, StoreFacts};
use crate::keys::{in_key, out_key, status_uid};
use crate::state::{CbState, TaskCb};

/// One instance inside a step: what the step's events staged for it
/// ahead of its drain, then the drain's own agenda.
pub(super) struct Drain<'a> {
    pub(super) name: Arc<str>,
    pub(super) plan: &'a Plan,
    /// The instance's id: the namespace of its fact and block keys.
    pub(super) id: u32,
    /// What the step's transitions seeded so far.
    pub(super) worklist: Worklist,
    /// The instance is settled — its root terminated, or it is parked
    /// `Stuck` — as committed or as this step left it: nothing more is
    /// evaluated.
    pub(super) terminal: bool,
    /// The tasks with outstanding work once the step so far publishes:
    /// flight records, less the flights it ends, plus the attempts it
    /// ships.
    pub(super) flying: Vec<TaskId>,
    /// `InstanceRt::planted`.
    planted: bool,
}

impl Drain<'_> {
    /// `task` has no outstanding work once the step publishes.
    pub(super) fn lands(&mut self, task: TaskId) {
        self.flying.retain(|flying| *flying != task);
    }

    /// Stages the end of every flight below `scope`, cancelled or reset.
    pub(super) fn discard_below(&mut self, step: &mut Step, scope: TaskId) {
        let below = self.plan.subtree(scope);
        self.flying.retain(|task| !below.contains(task));
        step.push(self.id, Effect::Discard(below));
    }
}

impl Coordinator {
    /// Resident instance `id`'s plan and name.
    pub(super) fn instance_ctx(&self, id: u32) -> Option<(Arc<Plan>, Arc<str>)> {
        let rt = self.instances.get(id)?;
        Some((rt.plan.clone(), rt.name.clone()))
    }

    /// The step over resident `instances`, by id ([`Coordinator::step`]): for
    /// each in turn, `stage` stages what happened to it — seeding its
    /// drain's worklist, landing and launching its flights — and the
    /// cascade stages behind.
    ///
    /// # Errors
    ///
    /// An instance that is not resident, `stage`'s, or the commit's: the
    /// step rolled back, nothing of it was published.
    pub(super) fn reevaluate(
        &mut self,
        instances: &[u32],
        mut stage: impl FnMut(&mut Coordinator, &mut Step, &mut Drain<'_>) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        self.step(instances, |coordinator, step, instances| {
            for &id in instances {
                let unknown = || EngineError::UnknownInstance(format!("#{id}"));
                let (plan, name) = coordinator.instance_ctx(id).ok_or_else(unknown)?;
                let mut drain = coordinator.drain_of(name, &plan, id);
                stage(coordinator, step, &mut drain)?;
                coordinator.stage_drain(step, &mut drain)?;
            }
            Ok(())
        })
    }

    /// The debug-build oracles over what a step published for instance
    /// `id`: the status mirror matches the store, and while it runs a full
    /// scan finds nothing missed and dispatch's books balance.
    #[cfg(debug_assertions)]
    pub(super) fn assert_settled(&self, id: u32) {
        let Some(rt) = self.instances.get(id) else {
            return;
        };
        let stored = settled(&self.mgr, None, &rt.name, rt.id);
        assert_eq!(rt.terminal, stored, "status mirror of `{}`", rt.name);
        if !rt.terminal {
            self.assert_quiescent(id);
            self.assert_flights_consistent(id);
        }
    }

    /// Instance `id`'s part, called `name`, in a step about to stage,
    /// nothing seeded yet. A start's instance is not resident: running,
    /// nothing flying.
    pub(super) fn drain_of<'a>(&mut self, name: Arc<str>, plan: &'a Plan, id: u32) -> Drain<'a> {
        let resident = self.instances.get(id);
        let mut flying = self.spare_flying.pop().unwrap_or_default();
        flying.clear();
        flying.extend(resident.into_iter().flat_map(|rt| rt.flights.outstanding()));
        Drain {
            plan,
            id,
            worklist: Worklist::new(),
            terminal: resident.is_some_and(|rt| rt.terminal),
            flying,
            planted: resident.is_some_and(|rt| rt.planted),
            name,
        }
    }

    /// Stages the drain of one instance into `step`: pops the worklist
    /// to quiescence — all startability re-checks first (highest
    /// declared priority, ties by ascending id: declaration order), then
    /// scope outputs deepest-first — each progress seeding the consumers
    /// of what it staged, then the stuck check. `Err`: the action refused
    /// a write, the step must abort.
    pub(super) fn stage_drain(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
    ) -> Result<(), EngineError> {
        let mut evaluations: u64 = 0;
        while !drain.terminal {
            if let Some(task) = drain.worklist.pop_start() {
                self.try_start(step, drain, task)?;
            } else if let Some(scope) = drain.worklist.pop_output(drain.plan) {
                self.check_scope_outputs(step, drain, scope)?;
            } else {
                break;
            }
            evaluations += 1;
        }
        step.push(drain.id, Effect::Drained(evaluations, !drain.terminal));
        let stuck = self.stuck_check(step, drain);
        self.spare_flying.push(std::mem::take(&mut drain.flying));
        stuck
    }

    /// Runs `eval` over the facts `step` reads; `None` when a probe hit
    /// a storage fault — the instance is then parked with it.
    fn probe<T>(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        eval: impl FnOnce(&StoreFacts<'_, StableStore>) -> T,
    ) -> Result<Option<T>, EngineError> {
        let facts = StoreFacts::new(&self.mgr, step.staged(), drain.plan, drain.id);
        let value = eval(&facts);
        match facts.take_fault() {
            None => Ok(Some(value)),
            Some(fault) => {
                self.park_stuck(step, drain, format!("fact storage fault: {fault}"))?;
                Ok(None)
            }
        }
    }

    /// `task`'s control block as `step` reads it; `None` when it does not
    /// decode — the instance is then parked with the fault: a corrupt
    /// block must not read as a state.
    pub(super) fn drain_cb(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        task: TaskId,
    ) -> Result<Option<TaskCb>, EngineError> {
        match self.staged_cb(step, drain.plan, drain.id, task) {
            Ok(cb) => Ok(Some(cb)),
            Err(fault) => {
                self.park_stuck(step, drain, block_fault(drain.plan, task, &fault))?;
                Ok(None)
            }
        }
    }

    /// Re-tests one task's input sets and binds the first satisfied one:
    /// a leaf goes `Executing`, dispatched once the step committed; a
    /// compound goes `Active` and enables its constituents. The binding
    /// arrives slot-aligned from the evaluator, so the fact write needs
    /// no name-keyed map — only a leaf dispatch materializes one (the
    /// executor wire format).
    fn try_start(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        task_id: TaskId,
    ) -> Result<(), EngineError> {
        let (plan, instance_id) = (drain.plan, drain.id);
        let task = plan.task(task_id);
        let Some(parent) = task.parent else {
            return Ok(()); // the root never rebinds through the start agenda
        };
        let Some(parent_cb) = self.drain_cb(step, drain, parent)? else {
            return Ok(());
        };
        let Some(mut cb) = self.drain_cb(step, drain, task_id)? else {
            return Ok(());
        };
        if !matches!(parent_cb.state, CbState::Active { .. })
            || cb.state != CbState::Waiting
            || cb.incarnation != parent_cb.scope_inc
        {
            return Ok(());
        }
        let satisfied = self.probe(step, drain, |facts| {
            plan_eval::eval_task_inputs(plan, task_id, facts)
        })?;
        let Some((set_id, bound)) = satisfied.flatten() else {
            return Ok(());
        };
        let set = plan.name(set_id);
        let slots = plan.sets[task.sets.as_range()]
            .iter()
            .find(|s| s.name == set_id)
            .map(|s| s.slots);
        let (Some(in_key), Some(slots)) = (in_key(plan, instance_id, task_id, &set), slots) else {
            return Ok(());
        };
        cb.transition(match task.is_scope {
            true => CbState::Active { set: set.clone() },
            false => CbState::Executing { set: set.clone() },
        });
        let action = step.action(&mut self.mgr);
        facts::write_block(&mut self.mgr, action, plan, instance_id, task_id, &cb)?;
        facts::write_fact_bound(&mut self.mgr, action, plan, in_key, slots, &bound)?;
        // The binding itself is a fact: consumers of this task's input
        // sets re-check, and a fresh compound enables its constituents.
        drain.worklist.seed_commit(plan, task_id);
        if task.is_scope && drain.planted {
            // The subtree may not be empty: every constituent is looked at.
            let enabled = plan.children(task_id).iter().chain([&task_id]);
            enabled.for_each(|&task| drain.worklist.push_task(plan, task));
        } else if task.is_scope {
            drain.worklist.seed_children(plan, task_id);
        } else {
            let launch = Launch {
                incarnation: cb.incarnation,
                attempt: cb.attempt,
                set,
                inputs: facts::bound_objects(plan, &bound),
                repeat_objects: BTreeMap::new(),
            };
            drain.flying.push(task_id);
            step.push(drain.id, Effect::Dispatch(task_id, launch));
        }
        Ok(())
    }

    /// Re-tests one Active scope's output mappings: at most one
    /// progress step (a mark, a repeat, or a terminal outcome), then
    /// the scope re-queues itself if more may fire — starts seeded by
    /// the step run first, preserving the fixpoint precedence.
    fn check_scope_outputs(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        scope_id: TaskId,
    ) -> Result<(), EngineError> {
        let plan = drain.plan;
        let Some(scope_cb) = self.drain_cb(step, drain, scope_id)? else {
            return Ok(());
        };
        if !matches!(scope_cb.state, CbState::Active { .. }) {
            return Ok(());
        }
        // Marks first (non-terminal), then the first satisfied terminal
        // output (or repeat) — both in declaration order.
        let satisfied = self.probe(step, drain, |facts| {
            plan_eval::eval_scope_outputs(plan, scope_id, facts)
        })?;
        let satisfied = satisfied.unwrap_or_default();
        let fresh_mark = satisfied.iter().position(|(out_idx, _)| {
            let output = &plan.outputs[*out_idx];
            output.kind == OutputKind::Mark && !scope_cb.mark_emitted(plan.str(output.name))
        });
        if let Some(at) = fresh_mark {
            let (out_idx, mapped) = &satisfied[at];
            self.emit_scope_mark(step, drain, scope_id, scope_cb, *out_idx, mapped)?;
            drain.worklist.seed_commit(plan, scope_id);
            drain.worklist.push_task(plan, scope_id); // more outputs may fire
            return Ok(());
        }
        let terminal = satisfied
            .into_iter()
            .find(|(out_idx, _)| plan.outputs[*out_idx].kind != OutputKind::Mark);
        match terminal {
            None => Ok(()),
            Some((out_idx, mapped)) if plan.outputs[out_idx].kind == OutputKind::RepeatOutcome => {
                self.repeat_scope(step, drain, scope_id, scope_cb, out_idx, mapped)
            }
            Some((out_idx, mapped)) => {
                self.terminate_scope(step, drain, scope_id, scope_cb, out_idx, mapped)?;
                drain.worklist.seed_commit(plan, scope_id);
                Ok(())
            }
        }
    }

    fn emit_scope_mark(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        scope_id: TaskId,
        mut cb: TaskCb,
        out_idx: usize,
        mapped: &[(StrId, Found)],
    ) -> Result<(), EngineError> {
        let (plan, instance_id) = (drain.plan, drain.id);
        let output = &plan.outputs[out_idx];
        let mark = plan.str(output.name);
        let scope_path = plan.str(plan.task(scope_id).path);
        let out_key = out_key(plan, instance_id, scope_id, mark)
            .ok_or_else(|| EngineError::UnknownTask(scope_path.to_string()))?;
        cb.marks_emitted.push(mark.to_string());
        let action = step.action(&mut self.mgr);
        facts::write_block(&mut self.mgr, action, plan, instance_id, scope_id, &cb)?;
        facts::write_fact_bound(&mut self.mgr, action, plan, out_key, output.slots, mapped)?;
        step.push(drain.id, Effect::Count(|stats| &mut stats.marks));
        let event = || self.commit_event(format!("mark `{mark}`"));
        self.trace(step, drain.id, Some(scope_path), cb.attempt, event);
        Ok(())
    }

    fn terminate_scope(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        scope_id: TaskId,
        mut cb: TaskCb,
        out_idx: usize,
        mapped: Vec<(StrId, Found)>,
    ) -> Result<(), EngineError> {
        let (plan, instance_id) = (drain.plan, drain.id);
        let output = &plan.outputs[out_idx];
        let outcome = plan.name(output.name);
        let scope_path = plan.str(plan.task(scope_id).path);
        let Some(out_key) = out_key(plan, instance_id, scope_id, &outcome) else {
            return Ok(());
        };
        let done = output.kind == OutputKind::Outcome;
        let verb = if done { "done" } else { "aborted" };
        cb.transition(match (done, outcome.clone()) {
            (true, outcome) => CbState::Done { outcome },
            (false, outcome) => CbState::Aborted { outcome },
        });
        let action = step.action(&mut self.mgr);
        facts::write_block(&mut self.mgr, action, plan, instance_id, scope_id, &cb)?;
        facts::write_fact_bound(&mut self.mgr, action, plan, out_key, output.slots, &mapped)?;
        // Cancel every non-terminal descendant (one flat subtree scan —
        // DFS pre-order keeps descendants contiguous).
        cancel_descendants(&mut self.mgr, action, instance_id, plan, scope_id)?;

        // The root's outcome is the instance's — its block and output
        // fact say so: the drain ends here.
        let is_root = plan.task(scope_id).parent.is_none();
        if is_root {
            drain.terminal = true;
            step.push(drain.id, Effect::Status(true));
        }
        self.trace(step, drain.id, Some(scope_path), 0, || {
            let what = format!("{verb} `{outcome}`");
            match is_root {
                true => ObsEventKind::Terminal { outcome: what },
                false => self.commit_event(what),
            }
        });
        drain.discard_below(step, scope_id);
        Ok(())
    }

    /// Scope-level repeat (Fig. 8): publish the repeat fact, reset the
    /// subtree and let the compound rebind its inputs.
    fn repeat_scope(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        scope_id: TaskId,
        mut cb: TaskCb,
        out_idx: usize,
        mapped: Vec<(StrId, Found)>,
    ) -> Result<(), EngineError> {
        let (plan, instance_id) = (drain.plan, drain.id);
        let output = &plan.outputs[out_idx];
        let outcome = plan.str(output.name);
        let scope_path = plan.str(plan.task(scope_id).path);
        let is_root = plan.task(scope_id).parent.is_none();
        let Some(out_key) = out_key(plan, instance_id, scope_id, outcome) else {
            return Ok(());
        };
        cb.repeats += 1;
        let over_limit = cb.repeats > self.config.max_repeats;
        if over_limit {
            cb.transition(CbState::Failed {
                reason: format!("compound repeat limit exceeded via `{outcome}`"),
            });
            let action = step.action(&mut self.mgr);
            facts::write_block(&mut self.mgr, action, plan, instance_id, scope_id, &cb)?;
        } else {
            // Reset: bump this scope's incarnation, clear own input
            // facts and all descendant state, publish the repeat fact.
            cb.scope_inc += 1;
            // The root, which has no bindings, reactivates on the input
            // set it was started on: the one whose fact holds what it was
            // started with, which a repeat leaves in place (a scope's
            // subtree does not hold the scope).
            let started_on = match is_root {
                true => Some(
                    self.bound_set(step, plan, instance_id, scope_id)
                        .ok_or_else(|| EngineError::UnknownTask(scope_path.to_string()))?,
                ),
                false => None,
            };
            let action = step.action(&mut self.mgr);
            let mgr = &mut self.mgr;
            facts::write_fact_bound(mgr, action, plan, out_key, output.slots, &mapped)?;
            if let Some(set) = started_on {
                cb.state = CbState::Active { set };
            } else if !is_root {
                // The compound goes back to Waiting to rebind: clear
                // its own input-binding facts.
                cb.state = CbState::Waiting;
                let own = std::iter::once(scope_id);
                facts::delete_facts(mgr, action, plan, instance_id, own, true)?;
            }
            facts::write_block(mgr, action, plan, instance_id, scope_id, &cb)?;
            // All descendant facts die with the incarnation — those
            // this step staged included. The blocks stay:
            // `reset_descendants` rewrites each for the new incarnation.
            let below = plan.subtree(scope_id);
            facts::delete_facts(mgr, action, plan, instance_id, below, false)?;
            reset_descendants(mgr, action, instance_id, plan, scope_id, cb.scope_inc)?;
        }
        step.push(drain.id, Effect::Count(|stats| &mut stats.repeats));
        let event = || self.commit_event(format!("repeat `{outcome}`"));
        self.trace(step, drain.id, Some(scope_path), cb.attempt, event);
        drain.discard_below(step, scope_id);
        // Re-entry: the repeat fact is fresh; a reset compound rebinds
        // through the start agenda, a reset root enables its children.
        drain.worklist.seed_commit(plan, scope_id);
        match (over_limit, is_root) {
            (true, _) => {}
            (false, true) => drain.worklist.seed_children(plan, scope_id),
            (false, false) => drain.worklist.push_task(plan, scope_id),
        }
        Ok(())
    }

    /// The input set of `task` whose fact fired, as `step` reads it:
    /// the set it is bound on.
    fn bound_set(
        &self,
        step: &Step,
        plan: &Plan,
        instance_id: u32,
        task: TaskId,
    ) -> Option<Arc<str>> {
        let class = plan.class_of(plan.task(task));
        let sets = plan.class_sets[class.sets.as_range()].iter().zip(0..);
        sets.map(|(set, item)| (set, FactKey::input(instance_id, task, item)))
            .find(|(_, base)| facts::fired(&self.mgr, step.staged(), plan, *base))
            .map(|(set, _)| plan.name(set.name))
    }

    /// Stuck detection, at the end of every drain: an instance the step
    /// settled, or with work in flight once it is published, is not
    /// stuck. Only the one-time transition *to* Stuck reads control
    /// blocks (dense-key point reads) to compose the diagnostic reason.
    fn stuck_check(&mut self, step: &mut Step, drain: &mut Drain<'_>) -> Result<(), EngineError> {
        let (plan, instance_id) = (drain.plan, drain.id);
        if drain.terminal || !drain.flying.is_empty() {
            return Ok(());
        }
        // Quiescent but not terminated: stuck. Summarise why — one walk
        // over the plan's dense task ids (once per stuck instance),
        // saying how close each waiting task got.
        let (mut nonterminal, mut failed, mut waiting) = (0, Vec::new(), Vec::new());
        for id in 0..plan.tasks.len() as TaskId {
            let Some(cb) = self.drain_cb(step, drain, id)? else {
                return Ok(()); // parked with the fault
            };
            nonterminal += usize::from(!cb.state.is_terminal());
            let path = plan.str(plan.task(id).path);
            match &cb.state {
                CbState::Failed { reason } => {
                    failed.push(format!("{path} ({reason})"));
                }
                CbState::Waiting => {
                    let facts = StoreFacts::new(&self.mgr, step.staged(), plan, instance_id);
                    let task = plan.task(id);
                    let pending = plan.sets[task.sets.as_range()]
                        .iter()
                        .map(|set| {
                            let met = plan_eval::met_requirements(plan, set, &facts);
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
        self.park_stuck(step, drain, reason)
    }

    /// Stages parking a running instance `Stuck` with the diagnosable
    /// `reason` (a reconfiguration or administrative repair can revive
    /// it): nothing can run and the root cannot terminate, or a fact
    /// probe hit a storage/decode fault — a corrupt record must not
    /// read as "fact absent" and silently mis-evaluate readiness. Its
    /// drain ends here. An instance already parked, or whose root
    /// terminated, stays as it is.
    pub(super) fn park_stuck(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        reason: String,
    ) -> Result<(), EngineError> {
        drain.terminal = true;
        if settled(&self.mgr, step.staged(), &drain.name, drain.id) {
            return Ok(());
        }
        let record = StuckRecord {
            reason: reason.clone(),
        };
        let action = step.action(&mut self.mgr);
        self.mgr
            .write_key(action, &status_uid(&drain.name), &record)?;
        step.push(drain.id, Effect::Status(true));
        self.trace(step, drain.id, None, 0, || ObsEventKind::Stuck { reason });
        Ok(())
    }

    /// The full-scan oracle (debug builds) over running instance `id`'s
    /// committed state: no startable task and no satisfied unprocessed
    /// scope output may remain — if one does, the seeding missed it.
    #[cfg(debug_assertions)]
    fn assert_quiescent(&self, id: u32) {
        let Some(rt) = self.instances.get(id) else {
            return;
        };
        let (plan, instance_id, instance) = (&*rt.plan, rt.id, &rt.name);
        let facts = StoreFacts::new(&self.mgr, None, plan, instance_id);
        for id in 1..plan.tasks.len() as TaskId {
            let task = plan.task(id);
            let Some(parent) = task.parent else {
                continue;
            };
            let (Ok(parent_cb), Ok(cb)) = (
                self.read_cb_id(plan, instance_id, parent),
                self.read_cb_id(plan, instance_id, id),
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
            let Ok(cb) = self.read_cb_id(plan, instance_id, id) else {
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
}

/// Cancels every non-terminal descendant of a scope: one linear scan of
/// the plan's contiguous subtree range.
pub(super) fn cancel_descendants(
    mgr: &mut TxManager<StableStore>,
    action: &AtomicAction,
    instance_id: u32,
    plan: &Plan,
    scope_id: TaskId,
) -> Result<(), EngineError> {
    for task_id in plan.subtree(scope_id) {
        let mut cb = facts::read_block(mgr, Some(action), plan, instance_id, task_id)?;
        if !cb.state.is_terminal() {
            cb.transition(CbState::Cancelled);
            facts::write_block(mgr, action, plan, instance_id, task_id, &cb)?;
        }
    }
    Ok(())
}

/// Resets a scope's subtree for a new incarnation, bumping each nested
/// compound's own scope incarnation so its children rebind
/// consistently. (The subtree's facts were already range-deleted by the
/// caller.)
fn reset_descendants(
    mgr: &mut TxManager<StableStore>,
    action: &AtomicAction,
    instance_id: u32,
    plan: &Plan,
    scope_id: TaskId,
    incarnation: u32,
) -> Result<(), EngineError> {
    for &child in plan.children(scope_id) {
        let task = plan.task(child);
        let mut cb = facts::read_block(mgr, Some(action), plan, instance_id, child)?;
        cb.reset_for_incarnation(incarnation);
        if task.is_scope {
            // A nested compound's own scope advances too, so its
            // children rebind consistently.
            cb.scope_inc += 1;
        }
        facts::write_block(mgr, action, plan, instance_id, child, &cb)?;
        if task.is_scope {
            reset_descendants(mgr, action, instance_id, plan, child, cb.scope_inc)?;
        }
    }
    Ok(())
}
