//! The commit window — the one place an executor report is applied.
//!
//! `Done`/`Mark` reports buffer in [`BatchWindow`] until the count or
//! the timer trigger fires, then `commit_window` applies the whole
//! window as one step (`stage_event` validates each report against its
//! control block and stages transition + fact; the cascade of every
//! touched instance stages behind them), commits it once and publishes
//! its effects, inside one WAL group.
//! [`CommitBatch::disabled`](super::CommitBatch::disabled) is this same
//! path with a window of one.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use flowscript_core::ast::OutputKind;
use flowscript_obs::ObsEventKind;
use flowscript_plan::{Plan, TaskId, Worklist};
use flowscript_sim::{SimDuration, World};
use flowscript_tx::StoreKey;

use super::step::{Effect, Step};
use super::{CommitBatch, CoordHandle, Coordinator};
use crate::error::EngineError;
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

/// What staging one buffered report into the window's step concluded.
enum Staging {
    /// The transition, its facts and its effects are staged in the step.
    Staged,
    /// The report is stale or a duplicate: dropped on the floor.
    Consumed,
    /// Valid but not a plain transition (error retries, repeats,
    /// undeclared outputs): `on_task_done` handles it after the window
    /// commits.
    Slow,
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
    /// stages transition + fact into the window's `step`, with the
    /// bookkeeping owed once it commits: terminal accounting, the trace
    /// event, the flight's release. The block is read *through the
    /// action*, so a transition staged by an earlier report of the same
    /// window is visible — duplicates and stale attempts are consumed
    /// exactly as they would be had the earlier report committed first.
    ///
    /// # Errors
    ///
    /// A storage fault: the step aborts; each report of the window then
    /// retries alone.
    fn stage_event(
        &mut self,
        step: &mut Step,
        event: &PendingEvent,
        plan: &Plan,
        keys: &InstanceKeys,
        task_id: TaskId,
    ) -> Result<Staging, EngineError> {
        let (instance, path, incarnation, attempt) = event.address();
        let cb_key = StoreKey::Fact(keys.cb(task_id));
        let action = step.action(&mut self.mgr);
        let Some(mut cb) = self.mgr.read_key::<TaskCb>(action, &cb_key)? else {
            return Ok(Staging::Consumed);
        };
        if !cb.awaits(incarnation, attempt) {
            return Ok(Staging::Consumed);
        }
        let class = plan.class_of(plan.task(task_id));
        let (name, objects, what) = match event {
            PendingEvent::Done(msg) => {
                let TaskResult::Output { name, objects, .. } = &msg.result else {
                    return Ok(Staging::Slow); // error retry: per-report bookkeeping
                };
                let outcome = name.clone();
                let (state, verb) = match plan.class_output(class, name).map(|o| o.kind) {
                    Some(OutputKind::Outcome) => (CbState::Done { outcome }, "done"),
                    Some(OutputKind::AbortOutcome) => (CbState::Aborted { outcome }, "aborted"),
                    // Undeclared outputs, mark-as-completion and repeats
                    // take their failure/retry paths post-commit.
                    _ => return Ok(Staging::Slow),
                };
                cb.transition(state);
                (name, objects, verb)
            }
            PendingEvent::Mark(msg) => {
                let declared = plan
                    .class_output(class, &msg.mark)
                    .is_some_and(|output| output.kind == OutputKind::Mark);
                if !declared || cb.mark_emitted(&msg.mark) {
                    return Ok(Staging::Consumed);
                }
                cb.marks_emitted.push(msg.mark.clone());
                (&msg.mark, &msg.objects, "mark")
            }
        };
        let Some(out_key) = keys.out_key(plan, task_id, name) else {
            return Ok(Staging::Consumed);
        };
        let stamped: BTreeMap<String, ObjectVal> = objects
            .iter()
            .map(|(k, v)| (k.clone(), v.clone().produced_by(path.to_string())))
            .collect();
        self.mgr.write_key(action, &cb_key, &cb)?;
        facts::write_fact_map(&mut self.mgr, action, plan, out_key, &stamped)?;
        let instance: Rc<str> = Rc::from(instance);
        let is_mark = matches!(event, PendingEvent::Mark(_));
        let moved = match is_mark {
            true => Effect::Count(self.metrics.marks.clone()),
            false => Effect::Terminals(1),
        };
        step.push(&instance, moved);
        self.trace(step, &instance, Some(path), attempt, || {
            self.commit_event(format!("{what} `{name}`"))
        });
        // A completed dispatch releases its watchdog and load *before*
        // the cascade dispatches anything new.
        if !is_mark {
            step.push(&instance, Effect::Completed(task_id));
        }
        Ok(Staging::Staged)
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
        // A rolled-back step leaves committed state untouched: each
        // report retries as a window of its own. A window of one that
        // still aborts drops its report — to the executor's watchdog it
        // is a message lost in the network.
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

    /// Commits `events` as one window, one step: a single atomic action
    /// over the reports (the locks of their control blocks taken first,
    /// in deterministic [`StoreKey`] order) *and* the readiness cascade
    /// of every instance they touched, then its effects published in
    /// staging order. Reports the step cannot absorb (error retries,
    /// repeats, undeclared outputs) run through `on_task_done` after it
    /// — in actions of their own inside the same WAL group, serialized
    /// as if they had arrived just after it. Hands the reports back if
    /// the step rolled back; the batch id and the `coord.batch_size`
    /// sample are spent only on a commit, so the histogram's sum is the
    /// reports applied.
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

        let mut slow: BTreeSet<usize> = BTreeSet::new();
        // The touched instances (first-touch arrival order), each with the
        // worklist its reports seeded and the tasks they completed.
        type Touched<'a> = (Rc<str>, &'a Plan, &'a InstanceKeys, Worklist, Vec<TaskId>);
        let mut touched: Vec<Touched<'_>> = Vec::new();
        let staged = {
            let mut coordinator = self.inner.borrow_mut();
            coordinator.window.current_batch = Some(coordinator.window.batch_seq);
            coordinator.mgr.begin_group();
            coordinator.run_step(|coordinator, step| {
                for key in &cb_keys {
                    let action = step.action(&mut coordinator.mgr);
                    coordinator.mgr.read_key_raw(action, key)?;
                }
                for (idx, (event, ctx)) in events.iter().zip(&contexts).enumerate() {
                    let Some((plan, keys, task)) = ctx else {
                        continue; // unknown instance or path: dropped, as ever
                    };
                    match coordinator.stage_event(step, event, plan, keys, *task)? {
                        Staging::Staged => {}
                        Staging::Consumed => continue,
                        Staging::Slow => {
                            slow.insert(idx);
                            continue;
                        }
                    }
                    let instance = event.address().0;
                    let at = touched.iter().position(|(name, ..)| &**name == instance);
                    let at = at.unwrap_or_else(|| {
                        touched.push((instance.into(), plan, keys, Worklist::new(), Vec::new()));
                        touched.len() - 1
                    });
                    let (.., worklist, ended) = &mut touched[at];
                    worklist.seed_commit(plan, *task);
                    if matches!(event, PendingEvent::Done(_)) {
                        ended.push(*task);
                    }
                }
                for (instance, plan, keys, worklist, ended) in &mut touched {
                    let worklist = std::mem::take(worklist);
                    coordinator.stage_drain(step, instance, plan, keys, worklist, ended)?;
                }
                Ok(())
            })
        };

        let rolled_back = match staged {
            Ok(((), effects)) => {
                {
                    let mut coordinator = self.inner.borrow_mut();
                    coordinator.window.batch_seq += 1;
                    if coordinator.config.observe.metrics() {
                        coordinator.metrics.batch_size.record(events.len() as u64);
                    }
                }
                self.publish(world, effects);
                // The leftovers run inside the same WAL group, as if
                // they had arrived right after the window.
                for (idx, event) in events.into_iter().enumerate() {
                    match event {
                        PendingEvent::Done(msg) if slow.contains(&idx) => {
                            self.on_task_done(world, msg);
                        }
                        _ => {}
                    }
                }
                Vec::new()
            }
            Err(_) => events,
        };

        let mut coordinator = self.inner.borrow_mut();
        let _ = coordinator.mgr.end_group();
        coordinator.window.current_batch = None;
        drop(coordinator);
        for (instance, ..) in &touched {
            self.assert_settled(instance);
        }
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

    /// A window of three reports over three instances whose shared step
    /// cannot take one block's lock (a prepared transaction holds it):
    /// the step rolls back with its whole cascade — nothing of it is
    /// published — the two healthy reports then commit alone, cascade
    /// included, and the third is dropped, to be re-reported by its
    /// watchdog's retry once the lock is gone.
    #[test]
    fn a_rolled_back_window_publishes_nothing_and_retries_report_by_report() {
        use crate::api::WorkflowSystem;
        use crate::coordinator::EngineConfig;
        use crate::{CbState, ObserveLevel, TaskBehavior};
        use flowscript_tx::TxId;

        let text = |value: &str| ObjectVal::text("Message", value);
        let config = EngineConfig {
            dispatch_timeout: SimDuration::from_millis(400),
            retry_backoff: SimDuration::from_millis(20),
            observe: ObserveLevel::Trace,
            commit_batch: CommitBatch {
                max_events: 3,
                max_window: SimDuration::from_secs(1),
            },
            ..EngineConfig::default()
        };
        let mut sys = WorkflowSystem::builder().seed(1).config(config).build();
        let script = flowscript_core::samples::QUICKSTART;
        sys.register_script("q", script, "pipeline").unwrap();
        let work = SimDuration::from_millis(10);
        sys.bind_fn("refProduce", move |_| {
            let made = TaskBehavior::outcome("produced").with_work(work);
            made.with_object("message", ObjectVal::text("Message", "m"))
        });
        sys.bind_fn("refConsume", move |_| {
            let used = TaskBehavior::outcome("consumed").with_work(work);
            used.with_object("result", ObjectVal::text("Message", "r"))
        });
        for name in ["i1", "i2", "i3"] {
            sys.start(name, "q", "main", [("seed", text("s"))]).unwrap();
        }
        // While the three `produce`s run, a prepared transaction takes
        // the write lock of `i3`'s `produce` block.
        sys.run_for(SimDuration::from_millis(5));
        let coord = sys.coord_handle(0);
        let blocker = TxId::new(99, 1);
        {
            let mut coordinator = coord.inner.borrow_mut();
            let (plan, keys) = {
                let rt = &coordinator.instances["i3"];
                (rt.plan.clone(), rt.keys.clone())
            };
            let produce = plan.task_by_path("pipeline/produce").unwrap();
            let locked = vec![(StoreKey::Fact(keys.cb(produce)), None)];
            coordinator.mgr.prepare_remote(blocker, 99, locked).unwrap();
        }
        let aborts = |sys: &WorkflowSystem| sys.metrics_snapshot().counter("tx.aborts");
        assert_eq!(aborts(&sys), 0);
        // The three reports arrive together and fill the window.
        sys.run_for(SimDuration::from_millis(10));
        // Two steps aborted: the shared one, and `i3`'s alone.
        assert_eq!(aborts(&sys), 2);
        let batch_size = |sys: &WorkflowSystem| {
            let snapshot = sys.metrics_snapshot();
            let sizes = snapshot.histogram("coord.batch_size").unwrap();
            (sizes.count, sizes.sum)
        };
        assert_eq!(batch_size(&sys), (2, 2), "two windows of one applied");
        let consumes = |sys: &WorkflowSystem, name: &str| {
            let sent = sys.dispatch_trace_of(name).into_iter();
            sent.filter(|record| record.path == "pipeline/consume")
                .count()
        };
        // The healthy cascades were published once — by their own
        // steps, not by the one that rolled back.
        assert_eq!((consumes(&sys, "i1"), consumes(&sys, "i2")), (1, 1));
        // Nothing of `i3`'s: no dispatch, no successor fact, no load
        // beyond the flight its unreported `produce` still holds.
        assert_eq!(consumes(&sys, "i3"), 0);
        let states = sys.task_states("i3");
        assert!(matches!(
            states["pipeline/produce"],
            CbState::Executing { .. }
        ));
        assert_eq!(states["pipeline/consume"], CbState::Waiting);
        assert!(sys
            .output_fact("i3", "pipeline/produce", "produced")
            .is_none());
        let in_flight: u32 = sys
            .executor_loads(0)
            .iter()
            .map(|slot| slot.in_flight)
            .sum();
        assert_eq!(in_flight, 3, "two `consume`s and `i3`'s `produce`");
        // The verdict arrives; the dropped report is the watchdog's to
        // recover, as if the network had lost it.
        coord
            .inner
            .borrow_mut()
            .mgr
            .resolve_remote(blocker, false)
            .unwrap();
        sys.run();
        for name in ["i1", "i2", "i3"] {
            assert_eq!(sys.outcome(name).expect("completes").name, "done");
        }
        assert_eq!(sys.stats().retries, 1);
        let (_, applied) = batch_size(&sys);
        assert_eq!(
            applied, 6,
            "every report applied once, the dropped one never"
        );
        assert_eq!(aborts(&sys), 3, "and the blocker's own");
    }
}
