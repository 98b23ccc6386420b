//! The commit window — the one place an executor report is applied.
//!
//! Reports — marks and completions alike, each kept [`Delivered`], in
//! the bytes it arrived in —
//! buffer in [`BatchWindow`] until one of three triggers fires:
//! `max_events` reports, the window's timer, or — decided exactly —
//! every report the shard awaits is in (its buffered completions at
//! least its charged dispatches on the wire, so no report that could
//! join is on its way). The timer waits in proportion to the
//! work the window holds ([`AGE_PER_WAIT`]), so the reports of long tasks
//! share a frame even when they arrive spread out. A flush that is not
//! the timer's own cancels the armed timer. Then the whole window is
//! applied as one step over its reports: `stage_event` validates each
//! report, in arrival order, against its control block and stages what
//! its result means — an outcome's transition and fact, a mark, an
//! execution error's attempt bump or `Failed`, a repeat outcome's bumped
//! block and repeat fact, a misreport's `Failed` — the cascade of every
//! touched instance stages behind them, and the step commits once,
//! straight to the log, and publishes its effects.
//! [`CommitBatch::disabled`](super::CommitBatch::disabled) is this same
//! path with a window of one.

use std::collections::BTreeMap;
use std::sync::Arc;

use flowscript_core::ast::OutputKind;
use flowscript_obs::ObsEventKind;
use flowscript_plan::{Plan, TaskId};
use flowscript_sim::SimDuration;

use super::evaluate::Drain;
use super::step::{Effect, Step, Unit};
use super::{CommitBatch, Coordinator, Timer};
use crate::driver::TimerId;
use crate::error::EngineError;
use crate::facts;
use crate::keys::out_key;
use crate::msg::{Attempt, Delivered, ObjectMap, ResultView};
use crate::state::{CbState, TaskCb};
use crate::value::{ObjectRef, ObjectVal};

/// A window waits for company `max_window`, or one `AGE_PER_WAIT`-th of
/// the age of the attempt whose report opened it when that is longer: a
/// report whose attempt took 30 s may wait 30 ms for its siblings', one
/// whose attempt took a millisecond waits `max_window`.
const AGE_PER_WAIT: u64 = 1_000;

/// What the window asks of its owner after buffering a report.
#[derive(Debug, PartialEq, Eq)]
enum Next {
    /// The count or the awaited trigger fired: flush now.
    Flush,
    /// First report of a window: arm the one-shot flush timer.
    Arm(SimDuration),
    /// A timer is already outstanding.
    Wait,
}

/// A buffered report, and the id of the resident instance it names:
/// resolved where it arrived, or, if none was resident then, where the
/// window flushes.
type Buffered = (Option<u32>, Delivered);

/// A report moves the instance it names, if that is resident: a commit
/// window is a step over its reports.
impl Unit for Buffered {
    fn resident(&self) -> Option<u32> {
        self.0
    }
}

/// What a flushed report applies to, if it names a resident instance
/// and one of its tasks: the plan, the instance's name and id, the task.
type Applied = Option<(Arc<Plan>, Arc<str>, u32, TaskId)>;

/// The open commit window of one shard. Volatile by design: a crash
/// loses the open window as a unit, exactly as if the messages were
/// still in the network.
#[derive(Default)]
pub(super) struct BatchWindow {
    /// Buffered reports, in arrival order.
    pending: Vec<Buffered>,
    /// The last flush's [`Applied`] contexts, emptied: the next flush
    /// fills them.
    applied: Vec<Applied>,
    /// How many of `pending` are completions.
    done: u32,
    /// The outstanding flush timer, if one is armed.
    timer: Option<TimerId>,
    /// Next batch id (per-shard; trace events carry it so coalesced
    /// completions are visible in `WorkflowSystem::trace`).
    batch_seq: u64,
    /// The batch id commits currently run under, if a flush is active.
    current_batch: Option<u64>,
}

impl BatchWindow {
    /// Buffers one report, with `in_flight` the dispatches the shard has
    /// charged and not released and `age` how long ago the shard shipped
    /// the reporting attempt (zero when it charged none). Flushes at once
    /// when the buffered completions are at least `in_flight` — every
    /// awaited report is in — on reaching `max_events`, and on a zero
    /// `max_window`: no time to wait is a window of one. Otherwise the
    /// first report of a window arms a one-shot timer ([`AGE_PER_WAIT`]
    /// says how long), so a report whose siblings are still out commits
    /// within the window.
    fn push(
        &mut self,
        report: Buffered,
        batch: &CommitBatch,
        in_flight: u32,
        age: SimDuration,
    ) -> Next {
        self.done += u32::from(!report.1.is_mark());
        self.pending.push(report);
        if self.done >= in_flight
            || self.pending.len() >= batch.max_events
            || batch.max_window == SimDuration::ZERO
        {
            Next::Flush
        } else if self.timer.is_some() {
            Next::Wait
        } else {
            let share = SimDuration::from_nanos(age.as_nanos() / AGE_PER_WAIT);
            Next::Arm(batch.max_window.max(share))
        }
    }

    /// The reports to flush, and the armed timer to cancel if the flush
    /// is not its own.
    fn take(&mut self) -> (Vec<Buffered>, Option<TimerId>) {
        self.done = 0;
        (std::mem::take(&mut self.pending), self.timer.take())
    }

    /// Takes back the vector of a flushed window's reports, emptied, to
    /// buffer the next window in — unless that one already began.
    fn recycle(&mut self, mut flushed: Vec<Buffered>) {
        if self.pending.capacity() == 0 {
            flushed.clear();
            self.pending = flushed;
        }
    }

    /// Whether the completion of exactly this dispatch is buffered —
    /// its transition just hasn't committed yet, and the watchdog must
    /// not turn a report-in-flight into a spurious retry.
    pub(super) fn holds_done(&self, at: &Attempt) -> bool {
        let done = |(_, report): &Buffered| !report.is_mark() && report.at().is(at);
        self.pending.iter().any(done)
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
    /// stages what it means into the window's `step`, with the
    /// bookkeeping owed once it commits: terminal accounting, the trace
    /// event, the flight's release, a retry's back-off, a repeat's
    /// re-execution. The block is read *through the action*, so a
    /// transition staged by an earlier report of the same window is
    /// visible — duplicates and stale attempts are consumed exactly as
    /// they would be had the earlier report committed first. `false`: the
    /// report is stale or a duplicate, dropped on the floor.
    ///
    /// # Errors
    ///
    /// A storage fault: the step aborts; each report of the window then
    /// retries alone.
    fn stage_event(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        report: &Delivered,
        task_id: TaskId,
    ) -> Result<bool, EngineError> {
        let report = report.view();
        let (at, ticket) = (report.at, report.ticket);
        let (plan, instance_id) = (drain.plan, drain.id);
        let mut cb = self.staged_cb(step, plan, instance_id, task_id)?;
        if !cb.awaits(at.incarnation, at.attempt) {
            return Ok(false);
        }
        let class = plan.class_of(plan.task(task_id));
        let kind = |name| plan.class_output(class, name).map(|output| output.kind);
        let (name, objects, what) = match report.result {
            ResultView::ExecError { reason } => {
                self.stage_lost(step, drain, task_id, cb, reason, Some(ticket))?;
                return Ok(true);
            }
            ResultView::Mark { name, objects } => {
                if kind(name) != Some(OutputKind::Mark) || cb.mark_emitted(name) {
                    return Ok(false);
                }
                cb.marks_emitted.push(name.to_owned());
                (name, objects, "mark")
            }
            ResultView::Output {
                name,
                objects,
                redo_after,
            } => {
                // The block names the outcome as the plan declares it.
                let declared = plan.class_output(class, name);
                let declared = declared.map(|output| (output.kind, plan.name(output.name)));
                let (state, verb) = match declared {
                    Some((OutputKind::Outcome, outcome)) => (CbState::Done { outcome }, "done"),
                    Some((OutputKind::AbortOutcome, outcome)) => {
                        (CbState::Aborted { outcome }, "aborted")
                    }
                    Some((OutputKind::RepeatOutcome, _)) => {
                        return self.stage_repeat(
                            step, drain, task_id, cb, name, objects, redo_after, ticket,
                        );
                    }
                    misreport => {
                        let why = match misreport {
                            Some(_) => format!("mark `{name}` cannot be a completion"),
                            None => format!("implementation produced undeclared output `{name}`"),
                        };
                        self.stage_failure(step, drain, task_id, cb, &why, Some(ticket))?;
                        return Ok(true);
                    }
                };
                cb.transition(state);
                (name, objects, verb)
            }
        };
        let Some(out_key) = out_key(plan, instance_id, task_id, name) else {
            return Ok(false);
        };
        // The action begins at the first write: a window of stale or
        // duplicate reports commits nothing.
        let action = step.action(&mut self.mgr);
        facts::write_block(&mut self.mgr, action, plan, instance_id, task_id, &cb)?;
        let (objects, stamp) = (objects.entries(), Some(at.path));
        facts::write_fact_map(&mut self.mgr, action, plan, out_key, objects, stamp)?;
        let is_mark = report.is_mark();
        if is_mark {
            step.push(drain.id, Effect::Count(|stats| &mut stats.marks));
        }
        self.trace(step, drain.id, Some(at.path), at.attempt, || {
            self.commit_event(format!("{what} `{name}`"))
        });
        // A completed dispatch releases its watchdog and load *before*
        // the cascade dispatches anything new.
        if !is_mark {
            step.push(drain.id, Effect::Completed(task_id, ticket));
            drain.lands(task_id);
        }
        drain.worklist.seed_commit(plan, task_id);
        Ok(true)
    }

    /// A leaf took a repeat outcome (fig. 3's `Repeat1`): stages the
    /// private repeat fact beside the block under its next attempt,
    /// re-executed with the outcome's objects after the requested delay —
    /// or beside the block `Failed`, past the repeat limit. Consumers
    /// drawing on the repeat fact (`AnyOf` alternatives) re-check.
    #[allow(clippy::too_many_arguments)]
    fn stage_repeat(
        &mut self,
        step: &mut Step,
        drain: &mut Drain<'_>,
        task_id: TaskId,
        mut cb: TaskCb,
        name: &str,
        objects: ObjectMap<'_>,
        redo_after: SimDuration,
        ticket: u64,
    ) -> Result<bool, EngineError> {
        let (plan, instance_id) = (drain.plan, drain.id);
        let Some(out_key) = out_key(plan, instance_id, task_id, name) else {
            return Ok(false);
        };
        let reported = cb.attempt;
        cb.repeats += 1;
        let over_limit = cb.repeats > self.config.max_repeats;
        if over_limit {
            cb.transition(CbState::Failed {
                reason: format!("repeat limit exceeded via `{name}`"),
            });
        } else {
            cb.attempt += 1;
        }
        let path = plan.str(plan.task(task_id).path);
        let action = step.action(&mut self.mgr);
        facts::write_block(&mut self.mgr, action, plan, instance_id, task_id, &cb)?;
        let entries = objects.entries();
        facts::write_fact_map(&mut self.mgr, action, plan, out_key, entries, Some(path))?;
        step.push(drain.id, Effect::Completed(task_id, ticket));
        step.push(drain.id, Effect::Count(|stats| &mut stats.repeats));
        self.trace(step, drain.id, Some(path), reported, || {
            self.commit_event(format!("repeat `{name}`"))
        });
        drain.worklist.seed_commit(plan, task_id);
        if over_limit {
            drain.lands(task_id);
        } else {
            let stamped = stamped(objects, path);
            self.stage_launch(step, drain, task_id, &cb, Some(&stamped), Some(redo_after))?;
        }
        Ok(true)
    }

    /// Buffers an executor report, and the id of the resident instance
    /// it names if one is, into the open window, flushing when the count
    /// or the awaited trigger fires and arming the flush timer on the
    /// first report of a window.
    pub(super) fn enqueue_event(&mut self, id: Option<u32>, report: Delivered) {
        let in_flight = self.dispatcher.in_flight();
        let age = id.map_or(SimDuration::ZERO, |id| {
            self.attempt_age(id, report.at().path)
        });
        match self
            .window
            .push((id, report), &self.config.commit_batch, in_flight, age)
        {
            Next::Flush => self.flush_pending(),
            Next::Arm(window) => self.window.timer = Some(self.arm(window, Timer::Window)),
            Next::Wait => {}
        }
    }

    /// Whether the commit window's flush timer is armed (the shared test
    /// harness asserts none is once the world is quiescent).
    #[doc(hidden)]
    pub fn window_armed(&self) -> bool {
        self.window.timer.is_some()
    }

    /// The flush timer elapsed ([`Timer::Window`]): flush whatever
    /// accumulated.
    pub(super) fn on_batch_window(&mut self) {
        self.window.timer = None; // it went off
        self.flush_pending();
    }

    /// Commits the open window now, as one step over its reports, if it
    /// holds any, cancelling its timer unless that is what fired. Admin
    /// entry points (reconfiguration, operator abort, fact repair) and
    /// hand-off collection call this first so their reads and cascades
    /// see every report that already arrived.
    pub(super) fn flush_pending(&mut self) {
        let (mut events, timer) = self.window.take();
        self.cancel(timer);
        if events.is_empty() {
            return;
        }
        // A report that arrived before its instance was resident here
        // (a landing's) resolves its name now.
        for (id, report) in events.iter_mut().filter(|(id, _)| id.is_none()) {
            *id = self.instances.resolve(report.instance());
        }
        let _ = self.step(&events, Self::stage_window);
        self.window.recycle(events);
        self.window.current_batch = None;
        // A flushed window frees executor slots and settles instances:
        // revisit parked dispatches and the admission queue.
        self.pump();
    }

    /// Stages `events` as one window: each report in arrival order, then
    /// the readiness cascade of every instance they touched. The batch id
    /// and the `coord.batch_size` sample are spent only on a commit
    /// ([`Effect::Batch`]): the histogram's sum is the reports applied.
    fn stage_window(&mut self, step: &mut Step, events: &[Buffered]) -> Result<(), EngineError> {
        let mut applied = std::mem::take(&mut self.window.applied);
        applied.extend(events.iter().map(|(id, event)| {
            let (plan, name) = self.instance_ctx((*id)?)?;
            let task = plan.task_by_path(event.at().path)?;
            Some((plan, name, (*id)?, task))
        }));
        // The touched instances, in first-touch arrival order: at most
        // one a report.
        let mut touched: Vec<Drain<'_>> = Vec::with_capacity(events.len());
        self.window.current_batch = Some(self.window.batch_seq);
        for ((_, event), ctx) in events.iter().zip(&applied) {
            let Some((plan, name, id, task)) = ctx else {
                continue; // unknown instance or path: dropped, as ever
            };
            match touched.iter_mut().find(|drain| drain.id == *id) {
                Some(drain) => _ = self.stage_event(step, drain, event, *task)?,
                None => {
                    let mut drain = self.drain_of(name.clone(), plan, *id);
                    if self.stage_event(step, &mut drain, event, *task)? {
                        touched.push(drain);
                    }
                }
            }
        }
        for drain in &mut touched {
            self.stage_drain(step, drain)?;
        }
        drop(touched);
        applied.clear();
        self.window.applied = applied;
        // A batch is the shard's: the id it is staged under goes unread.
        let first = events[0].0.unwrap_or_default();
        step.push(first, Effect::Batch(events.len() as u64));
        Ok(())
    }

    /// A window of `reports` committed ([`Effect::Batch`]): its batch id
    /// is spent, its size sampled.
    pub(super) fn window_committed(&mut self, reports: u64) {
        self.window.batch_seq += 1;
        if self.config.observe.metrics() {
            self.metrics.batch_size.record(reports);
        }
    }
}

/// A repeat outcome's objects as the task at `path` produced them: what
/// its next attempt ships.
fn stamped(objects: ObjectMap<'_>, path: &str) -> BTreeMap<String, ObjectVal> {
    let stamp = |(name, object): (&str, ObjectRef<'_>)| {
        let object = ObjectRef {
            produced_by: path,
            ..object
        };
        (name.to_owned(), object.to_val())
    };
    objects.entries().map(stamp).collect()
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use flowscript_tx::storage::FlakyStorage;
    use flowscript_tx::{FactKey, Shared, StableStore, StoreKey};

    use flowscript_sim::{NodeId, ReplyToken, SimTime};
    use flowscript_tx::{SharedStorage, Wal};

    use super::*;
    use crate::api::WorkflowSystem;
    use crate::coordinator::{EngineConfig, Input, Output};
    use crate::driver::Node;
    use crate::msg::{EngineMsg, Objects, StartTask, TaskReport, TaskResult};
    use crate::sched::ExecutorSpec;
    use crate::shard::ShardMap;
    use crate::{InstanceStatus, ObserveLevel, TaskBehavior};

    fn report() -> Buffered {
        let at = Attempt {
            instance: "i".into(),
            path: "t".into(),
            incarnation: 0,
            attempt: 0,
        };
        let result = TaskResult::Mark {
            name: "m".into(),
            objects: Objects::of(&BTreeMap::new()),
        };
        let report = TaskReport {
            at,
            ticket: 0,
            result,
        };
        let bytes = flowscript_codec::to_bytes(&EngineMsg::Report(report));
        (
            None,
            Delivered::read(bytes.clone(), 0..bytes.len()).expect("a report"),
        )
    }

    #[test]
    fn a_report_after_a_count_flush_gets_a_full_window() {
        let max_window = SimDuration::from_millis(1);
        let config = CommitBatch {
            max_events: 3,
            max_window,
        };
        // Marks, and eight dispatches out: no report the shard awaits.
        let mut window = BatchWindow::default();
        assert_eq!(
            window.push(report(), &config, 8, SimDuration::ZERO),
            Next::Arm(max_window)
        );
        window.timer = Some(TimerId(0));
        assert_eq!(
            window.push(report(), &config, 8, SimDuration::ZERO),
            Next::Wait
        );
        assert_eq!(
            window.push(report(), &config, 8, SimDuration::ZERO),
            Next::Flush
        );
        // The count trigger's flush takes the armed timer, to cancel it.
        let (flushed, timer) = window.take();
        assert_eq!((flushed.len(), timer), (3, Some(TimerId(0))));
        // A fourth report opens a window of its own, timer and all.
        assert_eq!(
            window.push(report(), &config, 8, SimDuration::ZERO),
            Next::Arm(max_window)
        );
    }

    #[test]
    fn a_window_of_one_flushes_on_arrival_and_never_arms_a_timer() {
        let mut zero_window = CommitBatch::disabled();
        zero_window.max_events = 8;
        for config in [CommitBatch::disabled(), zero_window] {
            let mut window = BatchWindow::default();
            for _ in 0..3 {
                assert_eq!(
                    window.push(report(), &config, 8, SimDuration::ZERO),
                    Next::Flush
                );
                assert!(window.timer.is_none());
                window.take();
            }
        }
    }

    /// The window's first report arms its timer at `max_window`, or at
    /// a thousandth of the report's age when that is longer: 30 s of
    /// work buys 30 ms of waiting for company.
    #[test]
    fn a_report_of_a_30_s_attempt_arms_a_30_ms_window() {
        let config = CommitBatch::default();
        let mut window = BatchWindow::default();
        let age = SimDuration::from_secs(30);
        let thirty_ms = SimDuration::from_millis(30);
        assert_eq!(window.push(report(), &config, 8, age), Next::Arm(thirty_ms));
        // The window's later reports wait on that timer, however old.
        window.timer = Some(TimerId(0));
        let older = SimDuration::from_secs(300);
        assert_eq!(window.push(report(), &config, 8, older), Next::Wait);
    }

    #[test]
    fn a_report_of_a_5_ms_attempt_arms_max_window() {
        let config = CommitBatch::default();
        let mut window = BatchWindow::default();
        let age = SimDuration::from_millis(5);
        assert_eq!(
            window.push(report(), &config, 8, age),
            Next::Arm(config.max_window)
        );
    }

    #[test]
    fn a_zero_window_flushes_on_arrival_however_old_the_attempt() {
        let mut config = CommitBatch::disabled();
        config.max_events = 8;
        let mut window = BatchWindow::default();
        let age = SimDuration::from_secs(30);
        assert_eq!(window.push(report(), &config, 8, age), Next::Flush);
        assert!(window.timer.is_none());
    }

    /// Two sibling leaves `a` and `b` under the root, each of which may
    /// emit the mark `early` before its outcome, and `c`, the join of
    /// their outcomes.
    const SIBLINGS: &str = r#"
class Message;

taskclass Leaf {
    inputs { input main { seed of class Message } };
    outputs {
        outcome done { seed of class Message };
        mark early { seed of class Message }
    }
}

taskclass Join {
    inputs { input main { left of class Message; right of class Message } };
    outputs { outcome done { seed of class Message } }
}

taskclass Root {
    inputs { input main { seed of class Message } };
    outputs { outcome done { result of class Message } }
}

compoundtask root of taskclass Root {
    task a of taskclass Leaf {
        implementation { "code" is "refA" };
        inputs {
            input main { inputobject seed from { seed of task root if input main } }
        }
    };
    task b of taskclass Leaf {
        implementation { "code" is "refB" };
        inputs {
            input main { inputobject seed from { seed of task root if input main } }
        }
    };
    task c of taskclass Join {
        implementation { "code" is "refC" };
        inputs {
            input main {
                inputobject left from { seed of task a if output done };
                inputobject right from { seed of task b if output done }
            }
        }
    };
    outputs {
        outcome done { outputobject result from { seed of task c if output done } }
    }
}
"#;

    /// A shard fed by hand, with the default window: `SIBLINGS` served
    /// by the repository, one unbounded executor.
    struct ByHand {
        shard: Coordinator,
        repo: NodeId,
        executor: NodeId,
        now: SimTime,
    }

    impl ByHand {
        fn new() -> Self {
            let [repo, here, executor] = [0, 1, 2].map(NodeId::from_index);
            let shard = Coordinator::open(
                here,
                repo,
                vec![ExecutorSpec::unbounded(executor)],
                EngineConfig::default(),
                SharedStorage::new(),
                ShardMap::new(vec![here]),
            );
            ByHand {
                shard: shard.expect("empty storage opens"),
                repo,
                executor,
                now: SimTime::ZERO,
            }
        }

        fn input(&mut self, after_ms: u64, input: Input) -> Vec<Output> {
            self.now += SimDuration::from_millis(after_ms);
            self.shard.handle(self.now, input)
        }

        /// The executor's `msg`, a millisecond on.
        fn report(&mut self, msg: &EngineMsg) -> Vec<Output> {
            let payload = flowscript_codec::to_bytes(msg);
            let from = self.executor;
            let token = None;
            self.input(
                1,
                Input::Message {
                    from,
                    payload,
                    token,
                },
            )
        }

        /// Starts `instance`, the repository answering: what it
        /// dispatched.
        fn start(&mut self, instance: &str) -> Vec<StartTask> {
            let start = EngineMsg::StartInstance {
                instance: instance.into(),
                script: "siblings".into(),
                version: None,
                set: "main".into(),
                inputs: BTreeMap::from([("seed".to_string(), seed())]),
            };
            let payload = flowscript_codec::to_bytes(&start);
            let from = NodeId::from_index(3);
            let token = Some(ReplyToken::new(self.shard.node, from, 0));
            let mut outputs = self.input(
                1,
                Input::Message {
                    from,
                    payload,
                    token,
                },
            );
            while let Some(call) = outputs
                .iter()
                .position(|o| matches!(o, Output::Call { .. }))
            {
                let Output::Call { to, call, .. } = outputs.swap_remove(call) else {
                    unreachable!();
                };
                assert_eq!(to, self.repo);
                let answer = EngineMsg::RepoReply {
                    result: Ok(1),
                    source: SIBLINGS.into(),
                    root: "root".into(),
                };
                let answer = Ok(flowscript_codec::to_bytes(&answer));
                outputs.extend(self.input(1, Input::Answered(call, answer)));
            }
            sent(&outputs)
        }

        fn frames(&self) -> usize {
            Wal::new(self.shard.storage.clone())
                .scan()
                .expect("scans")
                .len()
        }

        fn state(&mut self, instance: &str, task: &str) -> CbState {
            self.shard.task_states(instance)[&format!("root/{task}")].clone()
        }
    }

    fn seed() -> ObjectVal {
        ObjectVal::text("Message", "s")
    }

    /// The attempts `outputs` dispatched.
    fn sent(outputs: &[Output]) -> Vec<StartTask> {
        let starts = outputs.iter().filter_map(|output| match output {
            Output::Send { bytes, .. } => crate::msg::start_in(bytes),
            _ => None,
        });
        starts.collect()
    }

    fn done(task: &StartTask) -> EngineMsg {
        EngineMsg::Report(TaskReport {
            at: task.at.clone(),
            ticket: task.ticket,
            result: TaskResult::Output {
                name: "done".into(),
                objects: Objects::of(&BTreeMap::from([("seed".to_string(), seed())])),
                redo_after: SimDuration::ZERO,
            },
        })
    }

    /// The window timer `outputs` armed, if any.
    fn window_timer(outputs: &[Output]) -> Option<TimerId> {
        outputs.iter().find_map(|output| match output {
            Output::Arm {
                id,
                timer: Timer::Window,
                ..
            } => Some(*id),
            _ => None,
        })
    }

    /// Both siblings out: the first report arms the window's timer, and
    /// the second — the last the shard awaits — flushes the two as one
    /// frame and cancels it. The join's report, awaited alone, commits
    /// on arrival and arms nothing.
    #[test]
    fn a_window_closes_once_every_awaited_report_is_in() {
        let mut fed = ByHand::new();
        let [a, b] = <[StartTask; 2]>::try_from(fed.start("i")).unwrap();
        let frames = fed.frames();
        let outputs = fed.report(&done(&a));
        let timer = window_timer(&outputs);
        assert!(timer.is_some() && outputs.len() == 1, "{outputs:?}");
        let outputs = fed.report(&done(&b));
        assert!(outputs
            .iter()
            .any(|o| matches!(o, Output::Cancel(id) if Some(*id) == timer)));
        assert!(!fed.shard.window_armed());
        assert_eq!(fed.frames(), frames + 1, "one frame for both");
        let [c] = <[StartTask; 1]>::try_from(sent(&outputs)).unwrap();

        let outputs = fed.report(&done(&c));
        assert_eq!(window_timer(&outputs), None);
        assert!(!fed.shard.window_armed());
        assert_eq!(fed.frames(), frames + 2);
        let status = fed.shard.status("i").unwrap();
        assert!(matches!(status, InstanceStatus::Completed(_)), "{status:?}");
    }

    /// A mark is no report the shard awaits: `a`'s mark and `b`'s outcome,
    /// while `a` still runs, wait out the window together.
    #[test]
    fn a_mark_never_stands_in_for_a_done() {
        let mut fed = ByHand::new();
        let [a, b] = <[StartTask; 2]>::try_from(fed.start("i")).unwrap();
        let frames = fed.frames();
        let mark = EngineMsg::Report(TaskReport {
            at: a.at.clone(),
            ticket: a.ticket,
            result: TaskResult::Mark {
                name: "early".into(),
                objects: Objects::of(&BTreeMap::from([("seed".to_string(), seed())])),
            },
        });
        assert!(window_timer(&fed.report(&mark)).is_some());
        assert!(fed.report(&done(&b)).is_empty(), "waits for `a`");
        assert_eq!(fed.frames(), frames);
        fed.input(1, Input::Fired(Timer::Window));
        assert_eq!(fed.frames(), frames + 1, "one frame for both");
        assert!(matches!(fed.state("i", "a"), CbState::Executing { .. }));
        assert!(matches!(fed.state("i", "b"), CbState::Done { .. }));
    }

    /// The age is the shard's own: `a`'s report, 30.001 s after the
    /// shard shipped `a`, opens a window of 30.001 ms.
    #[test]
    fn a_window_waits_a_thousandth_of_the_age_of_its_first_report() {
        let mut fed = ByHand::new();
        let [a, _b] = <[StartTask; 2]>::try_from(fed.start("i")).unwrap();
        fed.now += SimDuration::from_secs(30);
        let outputs = fed.report(&done(&a));
        let wait = outputs.iter().find_map(|output| match output {
            Output::Arm {
                after,
                timer: Timer::Window,
                ..
            } => Some(*after),
            _ => None,
        });
        assert_eq!(wait, Some(SimDuration::from_micros(30_001)));
    }

    /// A window holding only a duplicate report stages nothing and
    /// commits nothing: no frame, and neither the log's `tx.commits` nor
    /// the shard's commit count (what `checkpoint_every` is measured
    /// against) moves.
    #[test]
    fn a_window_of_only_a_duplicate_report_commits_nothing() {
        let mut fed = ByHand::new();
        let [a, b] = <[StartTask; 2]>::try_from(fed.start("i")).unwrap();
        fed.report(&done(&a));
        let [_c] = <[StartTask; 1]>::try_from(sent(&fed.report(&done(&b)))).unwrap();
        let counts = |fed: &ByHand| {
            let logged = fed.shard.snapshot().counter("tx.commits");
            (fed.frames(), fed.shard.commits, logged)
        };
        let before = counts(&fed);
        // `a` again, while `c` is out: one `Done` for one dispatch on
        // the wire, so the window closes on it alone.
        assert!(fed.report(&done(&a)).is_empty());
        assert!(!fed.shard.window_armed());
        assert_eq!(counts(&fed), before);
        assert!(matches!(fed.state("i", "c"), CbState::Executing { .. }));
    }

    /// Three `QUICKSTART` pipelines `i1`–`i3` on one shard over
    /// `storage`, tight watchdogs, a window their three `produce` reports
    /// fill together at 10 ms.
    fn three_pipelines(storage: Option<StableStore>) -> WorkflowSystem {
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
        let mut sys = WorkflowSystem::builder()
            .seed(1)
            .config(config)
            .shard_storages(Vec::from_iter(storage))
            .build();
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
            let seed = ObjectVal::text("Message", "s");
            sys.start(name, "q", "main", [("seed", seed)]).unwrap();
        }
        sys
    }

    fn aborts(sys: &WorkflowSystem) -> u64 {
        sys.metrics_snapshot().counter("tx.aborts")
    }

    fn consumes(sys: &WorkflowSystem, name: &str) -> usize {
        let sent = sys.dispatch_trace_of(name).into_iter();
        sent.filter(|record| record.path == "pipeline/consume")
            .count()
    }

    /// A window of three reports over three instances whose shared step
    /// cannot read one block (its committed bytes do not decode): the
    /// step rolls back with its whole cascade — nothing of it is
    /// published — the two healthy reports then commit alone, cascade
    /// included, and the third is dropped, to be re-reported by its
    /// watchdog's retry once the block is whole again.
    #[test]
    fn a_rolled_back_window_publishes_nothing_and_retries_report_by_report() {
        use crate::CbState;

        let mut sys = three_pipelines(None);
        // While the three `produce`s run, `i3`'s `produce` block is
        // overwritten with a byte no block begins with.
        sys.run_for(SimDuration::from_millis(5));
        let (block, saved) = {
            let coordinator = sys.coord_handle(0).get();
            let rt = coordinator.instances.named("i3").unwrap();
            let produce = rt.plan.task_by_path("pipeline/produce").unwrap();
            let block = StoreKey::Fact(FactKey::control(rt.id, produce));
            let saved = coordinator.mgr.read_committed_bytes(&block).unwrap();
            (block, saved.to_vec())
        };
        let overwrite = |sys: &mut WorkflowSystem, bytes: Vec<u8>| {
            let coordinator = sys.coord_handle_mut(0).get_mut();
            let written =
                coordinator.atomically(|mgr, action| Ok(mgr.write_key_raw(action, &block, bytes)?));
            written.expect("the block commits");
        };
        overwrite(&mut sys, vec![7]);
        assert_eq!(aborts(&sys), 0);
        // The three reports arrive together and fill the window.
        sys.run_for(SimDuration::from_millis(10));
        // Two steps rolled back: the shared one, and `i3`'s alone — whose
        // action never began, its one read failing before any write.
        assert_eq!(aborts(&sys), 1);
        overwrite(&mut sys, saved);
        let batch_size = |sys: &WorkflowSystem| {
            let snapshot = sys.metrics_snapshot();
            let sizes = snapshot.histogram("coord.batch_size").unwrap();
            (sizes.count, sizes.sum)
        };
        assert_eq!(batch_size(&sys), (2, 2), "two windows of one applied");
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
        // The dropped report is the watchdog's to recover, as if the
        // network had lost it.
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
        assert_eq!(aborts(&sys), 1, "and no step aborted since");
    }

    /// The same window through a log that refuses appends: the shared
    /// step's one record goes straight to the log, so the refusal aborts
    /// it — and each one-by-one retry — with nothing published and
    /// nothing acknowledged that has no frame behind it. The dropped
    /// reports are the watchdogs' to recover; a watchdog whose own step
    /// rolls back re-arms itself, and the first one to find the disk
    /// healed retries.
    #[test]
    fn a_window_whose_frame_fails_to_append_publishes_nothing() {
        let storage = FlakyStorage::default();
        let fail = storage.fail.clone();
        let mut sys = three_pipelines(Some(Shared::from(storage).into()));
        sys.run_for(SimDuration::from_millis(5));
        let logged = sys.log_size();
        assert_eq!(aborts(&sys), 0);
        // The disk goes while the three `produce`s run.
        fail.store(true, Ordering::Relaxed);
        sys.run_for(SimDuration::from_millis(100));
        assert_eq!(aborts(&sys), 4, "the shared step, then each report alone");
        for name in ["i1", "i2", "i3"] {
            assert_eq!(consumes(&sys, name), 0, "{name}: nothing was published");
            assert_eq!(sys.status(name).unwrap(), InstanceStatus::Running);
            assert!(sys
                .output_fact(name, "pipeline/produce", "produced")
                .is_none());
        }
        assert_eq!(sys.log_size(), logged, "no frame, no transition");
        assert_eq!(sys.stats().retries, 0);
        // The watchdogs fire at 400 ms into a disk still gone: each
        // time-out's step rolls back, nothing is released or counted.
        sys.run_for(SimDuration::from_millis(400));
        assert_eq!(aborts(&sys), 7, "three time-outs rolled back");
        assert_eq!((sys.stats().retries, sys.log_size()), (0, logged));
        // The disk heals; the re-armed watchdogs fire at 800 ms, retry,
        // and the re-executed `produce`s report into a healthy window.
        fail.store(false, Ordering::Relaxed);
        sys.run();
        for name in ["i1", "i2", "i3"] {
            assert_eq!(sys.outcome(name).expect("completes").name, "done");
            assert_eq!(consumes(&sys, name), 1);
        }
        assert_eq!(sys.stats().retries, 3);
        assert_eq!(aborts(&sys), 7);
    }

    /// A restart re-sends what no executor still runs in one step over
    /// every instance, and one the log refuses falls back to each
    /// instance alone: here the three `produce`s report while the shard
    /// is down, so the census finds none running; the group's frame
    /// fails to append, and each instance's own step commits — its
    /// shard-life key, and its attempt re-sent as committed, no
    /// watchdog's retry behind it.
    #[test]
    fn a_restart_whose_group_rearm_fails_rearms_each_instance_alone() {
        let storage = FlakyStorage::default();
        let fail_next = storage.fail_next.clone();
        let mut sys = three_pipelines(Some(Shared::from(storage).into()));
        sys.run_for(SimDuration::from_millis(5));
        let frames = |sys: &WorkflowSystem| Wal::new(sys.storage()).scan().expect("scans").len();
        let logged = frames(&sys);
        let coordinator = sys.coordinator_node();
        sys.crash_now(coordinator);
        sys.run_for(SimDuration::from_millis(10));
        fail_next.store(1, Ordering::Relaxed);
        sys.restart_now(coordinator);
        assert_eq!(
            (aborts(&sys), frames(&sys)),
            (0, logged),
            "nothing to append"
        );
        // The census answers within a round trip.
        sys.run_for(SimDuration::from_millis(1));
        assert_eq!(aborts(&sys), 1, "the re-send of all three, rolled back");
        assert_eq!(frames(&sys), logged + 3, "then one re-arm each");
        assert_eq!(sys.stats().dispatches, 6, "three attempts, three re-sends");
        sys.run();
        for name in ["i1", "i2", "i3"] {
            assert_eq!(sys.outcome(name).expect("completes").name, "done");
            let produced = sys.dispatch_trace_of(name).into_iter();
            let attempts: Vec<u32> = produced
                .filter(|record| record.path == "pipeline/produce")
                .map(|record| record.attempt)
                .collect();
            assert_eq!(attempts, [0, 0], "{name}: the re-send's, no time-out's");
        }
        assert_eq!((sys.stats().retries, aborts(&sys)), (0, 1));
        assert_eq!(sys.stats().resent, 3);
    }

    /// A restart's re-send is a step like any other: refused by the log,
    /// its shard-life key is not written and it re-sends nothing — the
    /// watchdogs the restart armed over the attempts as committed retry
    /// them once the disk is back.
    #[test]
    fn a_restart_whose_rearm_fails_to_append_leaves_it_to_the_watchdogs() {
        let storage = FlakyStorage::default();
        let fail = storage.fail.clone();
        let mut sys = three_pipelines(Some(Shared::from(storage).into()));
        sys.run_for(SimDuration::from_millis(5));
        let logged = sys.log_size();
        // The coordinator is down while the three `produce`s report: the
        // census finds none of them running.
        let coordinator = sys.coordinator_node();
        sys.crash_now(coordinator);
        sys.run_for(SimDuration::from_millis(10));
        fail.store(true, Ordering::Relaxed);
        sys.restart_now(coordinator);
        sys.run_for(SimDuration::from_millis(1));
        assert_eq!(
            aborts(&sys),
            4,
            "the re-send of all three, then each alone, rolled back"
        );
        assert_eq!((sys.stats().dispatches, sys.log_size()), (3, logged));
        fail.store(false, Ordering::Relaxed);
        sys.run();
        for name in ["i1", "i2", "i3"] {
            assert_eq!(sys.outcome(name).expect("completes").name, "done");
            let produced = sys.dispatch_trace_of(name).into_iter();
            let attempts: Vec<u32> = produced
                .filter(|record| record.path == "pipeline/produce")
                .map(|record| record.attempt)
                .collect();
            assert_eq!(
                attempts,
                [0, 1],
                "{name}: the time-out's retry, no re-arm's"
            );
        }
        assert_eq!(sys.stats().retries, 3);
    }

    /// The coordinator is down while the three `produce`s report: their
    /// reports are lost, and the restart's re-send of each attempt as
    /// committed recovers them — attempt 0 again, no retry spent.
    #[test]
    fn a_report_lost_while_its_shard_is_down_is_recovered_by_the_re_send() {
        let mut sys = three_pipelines(None);
        sys.run_for(SimDuration::from_millis(5));
        let coordinator = sys.coordinator_node();
        sys.crash_now(coordinator);
        sys.run_for(SimDuration::from_millis(10));
        sys.restart_now(coordinator);
        sys.run();
        for name in ["i1", "i2", "i3"] {
            assert_eq!(sys.outcome(name).expect("completes").name, "done");
            let produced = sys.dispatch_trace_of(name).into_iter();
            let attempts: Vec<u32> = produced
                .filter(|record| record.path == "pipeline/produce")
                .map(|record| record.attempt)
                .collect();
            assert_eq!(attempts, [0, 0], "{name}: shipped, then re-sent");
        }
        assert_eq!(sys.stats().retries, 0);
    }

    /// Two restarts in a row, each with its census lost to a partition
    /// between the shard and the executor, healed before the re-send:
    /// nothing claims `produce`'s 10 s attempt, so each restart re-sends
    /// it, and each life's tickets are its own — the executor holds
    /// three copies, the first life's and each restart's re-send, all
    /// attempt 0 — and the watchdog's cancel of the copy the shard
    /// charged ends that copy alone.
    #[test]
    fn a_cancel_after_two_restarts_ends_only_its_attempt() {
        let config = EngineConfig {
            dispatch_timeout: SimDuration::from_millis(400),
            retry_backoff: SimDuration::from_millis(20),
            observe: ObserveLevel::Trace,
            ..EngineConfig::default()
        };
        let mut sys = WorkflowSystem::builder()
            .executors(1)
            .seed(1)
            .config(config)
            .build();
        let script = flowscript_core::samples::QUICKSTART;
        sys.register_script("q", script, "pipeline").unwrap();
        // Attempt 0 takes 10 s, the retry no time.
        sys.bind_fn("refProduce", |ctx| {
            let work = SimDuration::from_secs(10).saturating_mul(u64::from(ctx.attempt == 0));
            let made = TaskBehavior::outcome("produced").with_work(work);
            made.with_object("message", ObjectVal::text("Message", "m"))
        });
        sys.bind_fn("refConsume", |_| {
            let used = TaskBehavior::outcome("consumed");
            used.with_object("result", ObjectVal::text("Message", "r"))
        });
        let seed = ObjectVal::text("Message", "s");
        sys.start("i", "q", "main", [("seed", seed)]).unwrap();
        let running = |sys: &WorkflowSystem| -> usize {
            let executors = sys.running_attempts().into_iter();
            executors.map(|(_, running)| running).sum()
        };
        sys.run_for(SimDuration::from_millis(5));
        assert_eq!(running(&sys), 1);
        let coordinator = sys.coordinator_node();
        let executor = sys.executor_nodes()[0];
        for copies in [2, 3] {
            sys.crash_now(coordinator);
            sys.world_mut().partition(&[coordinator], &[executor]);
            sys.restart_now(coordinator);
            sys.world_mut().heal_all();
            // The census call times out at 100 ms; the re-send ships.
            sys.run_for(SimDuration::from_millis(105));
            assert_eq!(running(&sys), copies, "one copy per life");
        }
        assert_eq!(sys.stats().resent, 2);
        // The last re-send's watchdog fires 400 ms on: its copy is
        // cancelled, and the retry waits out its 20 ms back-off.
        sys.run_for(SimDuration::from_millis(400));
        assert_eq!(sys.stats().retries, 1);
        assert_eq!(running(&sys), 2, "the earlier lives' copies run on");
        sys.run();
        assert_eq!(sys.outcome("i").expect("completes").name, "done");
        let produced = sys.dispatch_trace_of("i").into_iter();
        let attempts: Vec<u32> = produced
            .filter(|record| record.path == "pipeline/produce")
            .map(|record| record.attempt)
            .collect();
        assert_eq!(attempts, [0, 0, 0, 1], "two re-sends, then the retry");
    }
}
