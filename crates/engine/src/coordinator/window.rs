//! The commit window — the one place an executor report is applied.
//!
//! `Done`/`Mark` reports buffer in [`BatchWindow`] until the count or
//! the timer trigger fires, then `commit_window` applies the whole
//! window in one atomic action (`stage_event` validates each report
//! against its control block and stages transition + fact), publishes
//! the effects and re-evaluates the dependents inside one WAL group.
//! [`CommitBatch::disabled`](super::CommitBatch::disabled) is this same
//! path with a window of one.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use flowscript_core::ast::OutputKind;
use flowscript_obs::ObsEventKind;
use flowscript_plan::{Plan, TaskId};
use flowscript_sim::{SimDuration, World};
use flowscript_tx::{AtomicAction, StoreKey};

use super::{CommitBatch, CoordHandle, Coordinator};
use crate::facts;
use crate::keys::InstanceKeys;
use crate::msg::{EngineMsg, MarkMsg, TaskDone, TaskResult};
use crate::state::{CbState, TaskCb};
use crate::value::ObjectVal;

/// An executor report buffered in the commit window.
#[derive(Debug)]
pub(super) enum PendingEvent {
    /// A `TaskDone` report (completion, error or repeat).
    Done(TaskDone),
    /// A mid-task mark emission.
    Mark(MarkMsg),
}

impl PendingEvent {
    /// `(instance, path, incarnation, attempt)` of the reporting task.
    pub(super) fn address(&self) -> (&str, &str, u32, u32) {
        match self {
            PendingEvent::Done(msg) => (&msg.instance, &msg.path, msg.incarnation, msg.attempt),
            PendingEvent::Mark(msg) => (&msg.instance, &msg.path, msg.incarnation, msg.attempt),
        }
    }
}

/// Back onto the wire: a report this shard relays instead of applying.
impl From<PendingEvent> for EngineMsg {
    fn from(event: PendingEvent) -> Self {
        match event {
            PendingEvent::Done(msg) => EngineMsg::Done(msg),
            PendingEvent::Mark(msg) => EngineMsg::Mark(msg),
        }
    }
}

/// The post-commit bookkeeping owed for one report staged into a
/// flush: trace event, terminal accounting, watchdog clearance and the
/// readiness seed.
struct StagedEffect {
    instance: String,
    path: String,
    attempt: u32,
    task_id: TaskId,
    /// Trace-event payload (``done `x```, ``aborted `x```, ``mark `x```).
    what: String,
    is_mark: bool,
}

/// What staging one buffered report into the window's shared action
/// concluded.
enum Staging {
    /// The transition and its facts are staged in the action.
    Staged(StagedEffect),
    /// The report is stale or a duplicate: dropped on the floor.
    Consumed,
    /// Valid but not a plain transition (error retries, repeats,
    /// undeclared outputs): `on_task_done` handles it after the window
    /// commits.
    Slow,
    /// A storage fault: abort the shared action; each report of the
    /// window then retries alone.
    Error,
}

/// What the window asks of its owner after buffering a report.
#[derive(Debug, PartialEq, Eq)]
enum Next {
    /// The count trigger fired: flush now.
    Flush,
    /// First report of a window: arm the one-shot flush timer.
    Arm(SimDuration),
    /// A timer is already outstanding.
    Wait,
}

/// The open commit window of one shard. Volatile by design: a crash
/// loses the open window as a unit, exactly as if the messages were
/// still in the network.
#[derive(Default)]
pub(super) struct BatchWindow {
    /// Buffered reports, in arrival order.
    pending: Vec<PendingEvent>,
    /// Whether a flush timer is outstanding.
    armed: bool,
    /// Next batch id (per-shard; trace events carry it so coalesced
    /// completions are visible in `WorkflowSystem::trace`).
    batch_seq: u64,
    /// The batch id commits currently run under, if a flush is active.
    current_batch: Option<u64>,
}

impl BatchWindow {
    /// Buffers one report. The first report of a window arms a
    /// one-shot timer so a lone report still commits within the window;
    /// reaching `max_events` flushes at once, and so does a zero
    /// `max_window` — no time to wait is a window of one.
    fn push(&mut self, event: PendingEvent, batch: &CommitBatch) -> Next {
        self.pending.push(event);
        if self.pending.len() >= batch.max_events || batch.max_window == SimDuration::ZERO {
            Next::Flush
        } else if self.armed {
            Next::Wait
        } else {
            self.armed = true;
            Next::Arm(batch.max_window)
        }
    }

    /// The flush timer fired: whether anything is left to flush (the
    /// stale timer of a window the count trigger already flushed finds
    /// an empty buffer).
    fn timer_fired(&mut self) -> bool {
        self.armed = false;
        !self.pending.is_empty()
    }

    /// Whether the completion of exactly this dispatch is buffered —
    /// its transition just hasn't committed yet, and the watchdog must
    /// not turn a report-in-flight into a spurious retry.
    pub(super) fn holds_done(
        &self,
        instance: &str,
        path: &str,
        incarnation: u32,
        attempt: u32,
    ) -> bool {
        self.pending.iter().any(|event| match event {
            PendingEvent::Done(msg) => {
                msg.instance == instance
                    && msg.path == path
                    && msg.incarnation == incarnation
                    && msg.attempt == attempt
            }
            PendingEvent::Mark(_) => false,
        })
    }

    /// The window died with the process: unflushed reports are lost as
    /// a unit (executors re-report via watchdog retries) and no flush
    /// is active. Batch ids keep counting —
    /// the flight recorder they stamp spans the crash.
    pub(super) fn reset(&mut self) {
        *self = Self {
            batch_seq: self.batch_seq,
            ..Self::default()
        };
    }
}

impl Coordinator {
    /// A `Commit` trace event stamped with the active batch id, so
    /// traces show which completions coalesced into one flush.
    pub(super) fn commit_event(&self, what: String) -> ObsEventKind {
        ObsEventKind::Commit {
            what,
            batch: self.window.current_batch,
        }
    }

    /// Validates one buffered report against its control block and
    /// stages transition + fact into the window's shared `action`. The
    /// block is read *through the action*, so a transition staged by an
    /// earlier report of the same window is visible — duplicates and
    /// stale attempts are consumed exactly as they would be had the
    /// earlier report committed first.
    fn stage_event(
        &mut self,
        action: &AtomicAction,
        event: &PendingEvent,
        plan: &Plan,
        keys: &InstanceKeys,
        task_id: TaskId,
    ) -> Staging {
        let (instance, path, incarnation, attempt) = event.address();
        let cb_key = StoreKey::Fact(keys.cb(task_id));
        let mut cb = match self.mgr.read_key::<TaskCb>(action, &cb_key) {
            Ok(Some(cb)) => cb,
            Ok(None) => return Staging::Consumed,
            Err(_) => return Staging::Error,
        };
        if !cb.awaits(incarnation, attempt) {
            return Staging::Consumed;
        }
        let class = plan.class_of(plan.task(task_id));
        let (name, objects, what) = match event {
            PendingEvent::Done(msg) => {
                let TaskResult::Output { name, objects, .. } = &msg.result else {
                    return Staging::Slow; // error retry: per-report bookkeeping
                };
                let outcome = name.clone();
                let (state, verb) = match plan.class_output(class, name).map(|o| o.kind) {
                    Some(OutputKind::Outcome) => (CbState::Done { outcome }, "done"),
                    Some(OutputKind::AbortOutcome) => (CbState::Aborted { outcome }, "aborted"),
                    // Undeclared outputs, mark-as-completion and repeats
                    // take their failure/retry paths post-commit.
                    _ => return Staging::Slow,
                };
                cb.transition(state);
                (name, objects, format!("{verb} `{name}`"))
            }
            PendingEvent::Mark(msg) => {
                let declared = plan
                    .class_output(class, &msg.mark)
                    .is_some_and(|output| output.kind == OutputKind::Mark);
                if !declared || cb.mark_emitted(&msg.mark) {
                    return Staging::Consumed;
                }
                cb.marks_emitted.push(msg.mark.clone());
                (&msg.mark, &msg.objects, format!("mark `{}`", msg.mark))
            }
        };
        let Some(out_key) = keys.out_key(plan, task_id, name) else {
            return Staging::Consumed;
        };
        let stamped: BTreeMap<String, ObjectVal> = objects
            .iter()
            .map(|(k, v)| (k.clone(), v.clone().produced_by(path.to_string())))
            .collect();
        let write = self
            .mgr
            .write_key(action, &cb_key, &cb)
            .and_then(|_| facts::write_fact_map(&mut self.mgr, action, plan, out_key, &stamped));
        match write {
            Ok(()) => Staging::Staged(StagedEffect {
                instance: instance.to_string(),
                path: path.to_string(),
                attempt,
                task_id,
                what,
                is_mark: matches!(event, PendingEvent::Mark(_)),
            }),
            Err(_) => Staging::Error,
        }
    }
}

impl CoordHandle {
    /// Buffers an executor report into the open window, flushing when
    /// the count trigger fires and arming the flush timer on the first
    /// report of a window.
    pub(super) fn enqueue_event(&self, world: &mut World, event: PendingEvent) {
        let (next, node) = {
            let mut coordinator = self.inner.borrow_mut();
            let coordinator = &mut *coordinator;
            let next = coordinator
                .window
                .push(event, &coordinator.config.commit_batch);
            (next, coordinator.node)
        };
        match next {
            Next::Flush => self.flush_pending(world),
            Next::Arm(window) => {
                let handle = self.clone();
                world.schedule_node_after(node, window, move |world| {
                    handle.on_batch_window(world);
                });
            }
            Next::Wait => {}
        }
    }

    /// The flush timer elapsed: flush whatever accumulated.
    fn on_batch_window(&self, world: &mut World) {
        {
            let mut coordinator = self.inner.borrow_mut();
            // A fenced coordinator is a zombie: another node claimed its
            // storage. Buffered reports die with it — the claimant's
            // copies are the truth now (same muzzle as
            // `handle_message`, for the timer entry points).
            if coordinator.mgr.probe_fence().is_some() {
                return;
            }
            if !coordinator.window.timer_fired() {
                return;
            }
        }
        self.flush_pending(world);
    }

    /// Commits the open window immediately, if it holds any reports.
    /// Admin entry points (reconfiguration, operator abort, fact
    /// repair) and hand-off collection call this first so their reads
    /// and cascades see every report that already arrived.
    pub(super) fn flush_pending(&self, world: &mut World) {
        let events = std::mem::take(&mut self.inner.borrow_mut().window.pending);
        if events.is_empty() {
            return;
        }
        // A rolled-back shared action leaves committed state untouched:
        // each report retries as a window of its own. A window of one
        // that still aborts drops its report — to the executor's
        // watchdog it is a message lost in the network.
        let rolled_back = self.commit_window(world, events);
        if rolled_back.len() > 1 {
            for event in rolled_back {
                self.commit_window(world, vec![event]);
            }
        }
        let _ = self.inner.borrow_mut().maybe_checkpoint();
        // A flushed window frees executor slots and settles instances:
        // revisit parked dispatches and the admission queue.
        self.pump(world);
    }

    /// Commits `events` as one window: a single atomic action over the
    /// union of touched control blocks (locks taken in deterministic
    /// [`StoreKey`] order), a single WAL group frame covering the
    /// reports *and* the readiness cascade they trigger, and one
    /// consumer-seeded re-evaluation per touched instance. Reports the
    /// shared action cannot absorb (error retries, repeats, undeclared
    /// outputs) run through `on_task_done` after it commits — still
    /// inside the WAL group, serialized as if they had arrived just
    /// after it. Hands the reports back if the action rolled back; the
    /// batch id and the `coord.batch_size` sample are spent only on a
    /// commit, so the histogram's sum is the reports applied.
    fn commit_window(&self, world: &mut World, events: Vec<PendingEvent>) -> Vec<PendingEvent> {
        // Per-event plan context, and the key union for the lock
        // pre-pass.
        type EventCtx = Option<(Rc<Plan>, Rc<InstanceKeys>, TaskId)>;
        let mut contexts: Vec<EventCtx> = Vec::with_capacity(events.len());
        let mut cb_keys: BTreeSet<StoreKey> = BTreeSet::new();
        for event in &events {
            let (instance, path, ..) = event.address();
            let ctx = self.instance_ctx(instance).and_then(|(plan, keys)| {
                let task = plan.task_by_path(path)?;
                Some((plan, keys, task))
            });
            if let Some((_, keys, task)) = &ctx {
                cb_keys.insert(StoreKey::Fact(keys.cb(*task)));
            }
            contexts.push(ctx);
        }

        let mut staged: Vec<StagedEffect> = Vec::new();
        let mut slow: BTreeSet<usize> = BTreeSet::new();
        let committed = {
            let mut coordinator = self.inner.borrow_mut();
            coordinator.window.current_batch = Some(coordinator.window.batch_seq);
            coordinator.mgr.begin_group();
            let action = coordinator.mgr.begin();
            // One ordered pass acquires every control-block lock before
            // any transition stages.
            let mut ok = cb_keys
                .iter()
                .all(|key| coordinator.mgr.read_key_raw(&action, key).is_ok());
            if ok {
                for (idx, (event, ctx)) in events.iter().zip(&contexts).enumerate() {
                    let Some((plan, keys, task)) = ctx else {
                        continue; // unknown instance or path: dropped, as ever
                    };
                    match coordinator.stage_event(&action, event, plan, keys, *task) {
                        Staging::Staged(effect) => staged.push(effect),
                        Staging::Consumed => {}
                        Staging::Slow => {
                            slow.insert(idx);
                        }
                        Staging::Error => {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok {
                coordinator.commit(action).is_ok()
            } else {
                coordinator.mgr.abort(action);
                false
            }
        };

        let rolled_back = if committed {
            let now_ns = world.now().as_nanos();
            let mut touched: Vec<(String, Vec<TaskId>)> = Vec::new();
            {
                let mut coordinator = self.inner.borrow_mut();
                coordinator.window.batch_seq += 1;
                if coordinator.config.observe.metrics() {
                    coordinator.metrics.batch_size.record(events.len() as u64);
                }
                for effect in &staged {
                    if effect.is_mark {
                        coordinator.metrics.marks.inc();
                    } else {
                        coordinator.note_terminals(&effect.instance, 1);
                    }
                    let kind = coordinator.commit_event(effect.what.clone());
                    coordinator.record_event(
                        now_ns,
                        &effect.instance,
                        Some(&effect.path),
                        effect.attempt,
                        kind,
                    );
                    match touched
                        .iter_mut()
                        .find(|(name, _)| name == &effect.instance)
                    {
                        Some((_, tasks)) => tasks.push(effect.task_id),
                        None => touched.push((effect.instance.clone(), vec![effect.task_id])),
                    }
                }
            }
            // Completed dispatches release their watchdogs and load
            // *before* the cascade dispatches anything new.
            for effect in &staged {
                if !effect.is_mark {
                    let _ = self.clear_watch(world, &effect.instance, effect.task_id);
                }
            }
            // One readiness pass per touched instance, seeded from the
            // union of its completions (first-touch arrival order).
            for (instance, tasks) in &touched {
                self.evaluate_from(world, instance, tasks);
            }
            // The leftovers run inside the same WAL group, as if they
            // had arrived right after the window.
            for (idx, event) in events.into_iter().enumerate() {
                match event {
                    PendingEvent::Done(msg) if slow.contains(&idx) => self.on_task_done(world, msg),
                    _ => {}
                }
            }
            Vec::new()
        } else {
            events
        };

        let mut coordinator = self.inner.borrow_mut();
        let _ = coordinator.mgr.end_group();
        coordinator.window.current_batch = None;
        rolled_back
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PendingEvent {
        PendingEvent::Mark(MarkMsg {
            instance: "i".into(),
            path: "t".into(),
            incarnation: 0,
            attempt: 0,
            mark: "m".into(),
            objects: BTreeMap::new(),
            epoch: 0,
        })
    }

    #[test]
    fn count_trigger_flushes_and_leaves_the_stale_timer_a_no_op() {
        let max_window = SimDuration::from_millis(1);
        let config = CommitBatch {
            max_events: 3,
            max_window,
        };
        let mut window = BatchWindow::default();
        assert_eq!(window.push(report(), &config), Next::Arm(max_window));
        assert_eq!(window.push(report(), &config), Next::Wait);
        assert_eq!(window.push(report(), &config), Next::Flush);
        assert_eq!(std::mem::take(&mut window.pending).len(), 3);
        // The timer armed by the first report fires on the empty buffer.
        assert!(!window.timer_fired());
        // A window the timer does find reports in flushes, once.
        assert_eq!(window.push(report(), &config), Next::Arm(max_window));
        assert!(window.timer_fired());
    }

    #[test]
    fn a_window_of_one_flushes_on_arrival_and_never_arms_a_timer() {
        let mut zero_window = CommitBatch::disabled();
        zero_window.max_events = 8;
        for config in [CommitBatch::disabled(), zero_window] {
            let mut window = BatchWindow::default();
            for _ in 0..3 {
                assert_eq!(window.push(report(), &config), Next::Flush);
                assert!(!window.armed);
                window.pending.clear();
            }
        }
    }
}
