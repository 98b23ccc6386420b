//! The step — the engine's unit of commit, and the only way a task
//! attempt moves. A start, a commit window, a time-out, a failed
//! placement, an operator's repair or reconfiguration and a restart's
//! re-arm each run as one, through [`Coordinator::step`]: **stage** the
//! event's transitions and everything they cascade into in one atomic
//! action (which reads its own earlier transitions back through
//! [`TxManager::read_through`]), **commit** it once — one frame straight
//! to the log: a refused append aborts it — then **publish**, in staging
//! order, what the commit made true outside the store. Nothing is sent,
//! armed, counted or traced for a transition that did not commit, and a
//! step that rolls back takes its cascade with it.
//!
//! A step that rolls back owes one rule, kept here: units whose shared
//! step rolled back retry one by one, and a unit whose own step rolled
//! back keeps its instance's work moving ([`Coordinator::keep_moving`]):
//! each task it has `Executing` whose flight is not watched by a
//! watchdog, delayed or parked gets a watchdog, so no task is stranded.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use flowscript_obs::ObsEventKind;
use flowscript_plan::{Plan, TaskId};
use flowscript_sim::SimDuration;
use flowscript_tx::{AtomicAction, StableStore, TxError, TxManager};

use super::{CoordStats, Coordinator, InstanceRt};
use crate::error::EngineError;
use crate::facts;
use crate::msg::Objects;
use crate::state::TaskCb;
use crate::value::ObjectVal;

/// One thing a committed step owes the world outside the store.
pub(super) enum Effect {
    /// A start's instance becomes resident, in its admission slot; its id is taken.
    Resident(Box<InstanceRt>),
    /// A reconfiguration's new plan replaces the resident one;
    /// dispatch's books follow the tasks onto its ids. Published before
    /// any effect that names a task by one.
    Replan(Arc<Plan>),
    /// The instance settled (`true`: its root terminated, or it parked
    /// `Stuck`) or an operator revived it (`false`): the mirror follows,
    /// and the admission slot frees — or is taken again.
    Status(bool),
    /// A transition counter moves (`coord.marks`, `coord.repeats`,
    /// `coord.retries`, `coord.failures`, `coord.reconfigs`): the field
    /// named.
    Count(fn(&mut CoordStats) -> &mut u64),
    /// A trace event of `task`'s `attempt`, stamped when published.
    Trace(Option<String>, u32, ObsEventKind),
    /// A report from the copy shipped under this ticket was applied: its
    /// task's flight ends, a completion.
    Completed(TaskId, u64),
    /// An attempt ended with no outcome — the copy under this ticket
    /// reported an error, or (`None`) its watchdog fired: the load it
    /// held is released and the next attempt avoids its node.
    Lost(TaskId, Option<u64>),
    /// An attempt ships as staged: a leaf's first, or a restart's
    /// re-dispatch (where the step went on to cancel the task, the
    /// `Discard` behind ends it).
    Dispatch(TaskId, Launch),
    /// An attempt ships once the delay is over — a retry's back-off, a
    /// repeat's requested delay: its flight waits it out, delayed.
    Later(TaskId, SimDuration, Launch),
    /// A drain popped this many worklist entries; `true`: to quiescence.
    Drained(u64, bool),
    /// A window of this many reports committed: its batch id is spent.
    Batch(u64),
    /// A subtree was cancelled or reset: its flights end unfinished.
    Discard(Range<TaskId>),
}

/// What an attempt ships under, as staged, whatever the block reads by
/// then: its task's incarnation and attempt, the bound input set with
/// its objects (in their wire form), and the objects of the repeat
/// outcomes the task took.
#[derive(Debug)]
pub(super) struct Launch {
    pub(super) incarnation: u32,
    pub(super) attempt: u32,
    pub(super) set: Arc<str>,
    pub(super) inputs: Objects,
    pub(super) repeat_objects: BTreeMap<String, ObjectVal>,
}

/// A step's effects in staging order, each with its instance's id.
pub(super) type Effects = Vec<(u32, Effect)>;

/// One unit of a step — an instance, by id, or a window's report —
/// and the resident instance it moves, if it names one.
pub(super) trait Unit {
    fn resident(&self) -> Option<u32>;
}

impl Unit for u32 {
    fn resident(&self) -> Option<u32> {
        Some(*self)
    }
}

/// What a step has staged so far. Its action begins at the first write:
/// a step that stages nothing commits nothing.
#[derive(Default)]
pub(super) struct Step {
    action: Option<AtomicAction>,
    pub(super) effects: Effects,
}

impl Step {
    /// The step's action.
    pub(super) fn action(&mut self, mgr: &mut TxManager<StableStore>) -> &AtomicAction {
        self.action.get_or_insert_with(|| mgr.begin())
    }

    /// The action, if anything was staged: what the step reads through.
    pub(super) fn staged(&self) -> Option<&AtomicAction> {
        self.action.as_ref()
    }

    pub(super) fn push(&mut self, instance: u32, effect: Effect) {
        self.effects.push((instance, effect));
    }
}

impl Coordinator {
    /// The step over `units` — a window's reports, a restart's or a
    /// landing's instances, one instance — each naming the instance it
    /// moves by id: `stage` stages them all into one action, committed once;
    /// the effects are published in staging order, the checkpoint
    /// threshold is checked, and the oracles run over each instance the
    /// step drained. A rollback owes the module's rule.
    ///
    /// # Errors
    ///
    /// The (shared) step rolled back: it published nothing.
    pub(super) fn step<U: Unit>(
        &mut self,
        units: &[U],
        mut stage: impl FnMut(&mut Self, &mut Step, &[U]) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        if units.is_empty() {
            return Ok(());
        }
        let stepped = self.commit_and_publish(units, &mut stage);
        if stepped.is_err() {
            for unit in units {
                let alone = std::slice::from_ref(unit);
                let retried = units.len() > 1 && self.commit_and_publish(alone, &mut stage).is_ok();
                if let Some(id) = unit.resident().filter(|_| !retried) {
                    self.keep_moving(id);
                }
            }
        }
        stepped
    }

    /// One try of [`Coordinator::step`]: stage, commit, and on a commit
    /// the tail — publish, the checkpoint threshold, the oracles.
    fn commit_and_publish<U>(
        &mut self,
        units: &[U],
        stage: &mut impl FnMut(&mut Self, &mut Step, &[U]) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let ((), effects) = self.run_step(|coordinator, step| stage(coordinator, step, units))?;
        #[cfg(debug_assertions)]
        let drained: Vec<u32> = effects
            .iter()
            .filter(|(_, effect)| matches!(effect, Effect::Drained(..)))
            .map(|(instance, _)| *instance)
            .collect();
        self.publish(effects);
        let _ = self.maybe_checkpoint();
        #[cfg(debug_assertions)]
        for &instance in &drained {
            self.assert_settled(instance);
        }
        Ok(())
    }

    /// Runs `stage` inside an action: what it staged commits when it
    /// returns `Ok` — the effects come back for publishing — and aborts
    /// on `Err`. An action has no `Drop`: one abandoned by an early
    /// return stays open until the next `begin` aborts it. So this is
    /// the one way the engine runs an action (`gc_plans` alone drives
    /// the manager itself: it must not tick the checkpoint counter).
    fn run_step<T>(
        &mut self,
        stage: impl FnOnce(&mut Self, &mut Step) -> Result<T, EngineError>,
    ) -> Result<(T, Effects), EngineError> {
        let mut step = Step {
            action: None,
            effects: std::mem::take(&mut self.spare_effects),
        };
        match (stage(self, &mut step), step.action) {
            (Ok(value), action) => {
                if let Some(action) = action {
                    self.mgr.commit(action)?;
                    self.commits += 1;
                }
                Ok((value, step.effects))
            }
            (Err(err), action) => {
                action.into_iter().for_each(|action| self.mgr.abort(action));
                Err(err)
            }
        }
    }

    /// The step with nothing to publish: `stage` runs inside an atomic
    /// action of its own, committed on `Ok`, aborted on `Err`.
    pub(super) fn atomically<T>(
        &mut self,
        stage: impl FnOnce(&mut TxManager<StableStore>, &AtomicAction) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let staged = self.run_step(|this, step| {
            let action = step.action(&mut this.mgr);
            stage(&mut this.mgr, action)
        });
        staged.map(|(value, _)| value)
    }

    /// The control block of `task` as `step` reads it.
    pub(super) fn staged_cb(
        &self,
        step: &Step,
        plan: &Plan,
        instance_id: u32,
        task: TaskId,
    ) -> Result<TaskCb, TxError> {
        facts::read_block(&self.mgr, step.staged(), plan, instance_id, task)
    }

    /// Stages a trace event (below [`flowscript_obs::ObserveLevel::Trace`]
    /// nothing, its payload then never built).
    pub(super) fn trace(
        &self,
        step: &mut Step,
        instance: u32,
        task: Option<&str>,
        attempt: u32,
        kind: impl FnOnce() -> ObsEventKind,
    ) {
        if self.config.observe.trace() {
            step.push(
                instance,
                Effect::Trace(task.map(str::to_string), attempt, kind()),
            );
        }
    }

    /// Publishes a committed step's effects, in staging order. A
    /// dispatch no executor can take fails its task, in a step of its
    /// own, last: the step behind that must find what this one shipped.
    fn publish(&mut self, mut effects: Effects) {
        let mut unplaceable = Vec::new();
        for (instance, effect) in effects.drain(..) {
            match effect {
                Effect::Completed(task, ticket) => self.clear_watch(instance, task, ticket),
                Effect::Lost(task, reported) => self.lose_flight(instance, task, reported),
                Effect::Dispatch(task, launch) => {
                    let shipped = self.ship(instance, task, launch);
                    unplaceable.extend(shipped.err().map(|reason| (instance, task, reason)));
                }
                Effect::Later(task, after, launch) => self.delay(instance, task, after, launch),
                Effect::Drained(evaluations, quiescent) => {
                    self.metrics.stats.evaluations += evaluations;
                    if quiescent && self.config.observe.metrics() {
                        self.metrics.commit_drain_len.record(evaluations);
                    }
                }
                Effect::Batch(reports) => self.window_committed(reports),
                Effect::Discard(tasks) => self.discard_flights(instance, tasks),
                Effect::Replan(plan) => self.replan(instance, plan),
                Effect::Resident(rt) => {
                    self.next_id = rt.id + 1;
                    self.instances.insert(*rt);
                    self.admission.instance_live();
                }
                Effect::Status(terminal) => {
                    self.note_status(instance, terminal);
                    match terminal {
                        true => self.admission.instance_settled(),
                        false => self.admission.instance_live(),
                    }
                }
                Effect::Count(field) => *field(&mut self.metrics.stats) += 1,
                Effect::Trace(task, attempt, kind) => {
                    // A start's instance is resident by its first trace.
                    if let Some(name) = self.instances.get(instance).map(|rt| rt.name.clone()) {
                        self.record_event(&name, task.as_deref(), attempt, kind);
                    }
                }
            }
        }
        // Emptied, the vector is the next step's to stage into.
        if self.spare_effects.capacity() == 0 {
            self.spare_effects = effects;
        }
        for (instance, task, reason) in unplaceable {
            self.fail_unplaceable(instance, task, &reason);
        }
    }
}
