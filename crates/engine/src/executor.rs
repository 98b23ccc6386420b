//! Task executor nodes.
//!
//! An executor is a value ([`Executor`]), driven like every node by
//! `crate::driver`. A `StartTask` message in, it binds the named
//! implementation through the shared [`ImplRegistry`] and plays the
//! resulting [`crate::TaskBehavior`] out as timers: one per mark at its
//! offset, then one for the completion after the work duration, each a
//! [`Report`] sent to the dispatching shard when it goes off. Executors
//! hold **no durable state**: a crash simply loses in-flight work, which
//! the coordinator's watchdogs turn into bounded retries on another node.
//! Its slots are volatile too: a restarted executor starts with every
//! slot free, so new work never queues behind work that died with it.
//!
//! Per §4.3 an implementation name may refer to *a script*; such bindings
//! run a complete nested workflow (own simulated world, same registry)
//! and map its root outcome onto this task's completion.
//!
//! An executor is deployed as its [`ExecutorSpec`], the same one every
//! coordinator's scheduler registers. Its **location label** is a hard
//! placement constraint for a task's `location` hint, and the executor
//! itself double-checks the pin on arrival (a mispinned task is
//! rejected as an execution error instead of silently running in the
//! wrong place). Its **capacity** is `k` concurrent task slots, later
//! arrivals queueing behind the earliest-free slot in virtual time (FIFO
//! by arrival within a slot; `k = 1` is the serial model
//! `tests/scheduling.rs` runs on; `0` keeps the legacy
//! infinitely-parallel node, where load only shows in the coordinators'
//! in-flight counters). The schedulers park dispatches instead of
//! queueing them here once all eligible executors are saturated.
//!
//! Caveat: the queue reservation is made at arrival and there is no
//! cancel protocol, so an attempt the coordinator abandons (a watchdog
//! firing while the task is still queued) keeps its slot and the retry
//! queues *behind* it. Bounded fleets should pair with watchdog
//! timeouts generous relative to the expected queue depth (as
//! `tests/scheduling.rs` does).

use std::cell::Cell;
use std::convert::Infallible;

use flowscript_sim::{NodeId, SimDuration, SimTime};

use crate::driver::{self, Node, TimerId};
use crate::impl_registry::{ImplRegistry, Invocation, InvokeCtx, TaskBehavior};
use crate::msg::{EngineMsg, MarkMsg, StartTask, TaskDone, TaskResult};
use crate::sched::ExecutorSpec;

thread_local! {
    /// Nested-script recursion guard (a script bound as its own
    /// implementation would otherwise recurse forever).
    static NESTING: Cell<u32> = const { Cell::new(0) };
}

/// Maximum depth of script-as-implementation nesting.
pub const MAX_SCRIPT_NESTING: u32 = 8;

/// A report an executor owes the shard that dispatched a task, once its
/// time comes: a mark, or the completion.
#[derive(Debug)]
pub(crate) struct Report {
    to: NodeId,
    msg: EngineMsg,
}

/// What an executor is fed, and what it answers an input with.
type Input<'a> = driver::Input<'a, Report, Infallible, Infallible>;
type Output = driver::Output<Report, Infallible, Infallible>;

/// One executor node, deployed as its [`ExecutorSpec`]: inputs in,
/// outputs out. Results are reported to whichever coordinator
/// dispatched the task (executors are shared by every shard of a
/// multi-coordinator system).
pub(crate) struct Executor {
    spec: ExecutorSpec,
    registry: ImplRegistry,
    /// One queue tail per declared slot: the next free moment of each.
    /// Empty (capacity 0) means unbounded — no queueing at all.
    slots: Vec<SimTime>,
    next_timer: u64,
}

impl Executor {
    /// The executor `spec` deploys, its slots all free.
    pub(crate) fn new(spec: ExecutorSpec, registry: ImplRegistry) -> Self {
        let slots = vec![SimTime::ZERO; spec.capacity as usize];
        Self {
            spec,
            registry,
            slots,
            next_timer: 0,
        }
    }

    /// Binds and plays out `start`, dispatched by `from`: one timer per
    /// mark and then one for the completion, or at once an execution
    /// error.
    fn start(&mut self, now: SimTime, from: NodeId, start: StartTask) -> Vec<Output> {
        let behavior = match self.bind(&start) {
            Ok(behavior) => behavior,
            Err(reason) => {
                let msg = done(&start, TaskResult::ExecError { reason });
                let bytes = flowscript_codec::to_bytes(&msg);
                return vec![Output::Send { to: from, bytes }];
            }
        };
        let queue_delay = self.reserve(now, behavior.work);
        let mut outputs = Vec::with_capacity(behavior.marks.len() + 1);
        for mark in behavior.marks {
            let msg = EngineMsg::Mark(MarkMsg {
                instance: start.instance.clone(),
                path: start.path.clone(),
                incarnation: start.incarnation,
                attempt: start.attempt,
                mark: mark.name,
                objects: mark.objects,
            });
            let at = queue_delay + mark.at.min(behavior.work);
            outputs.push(self.arm(at, Report { to: from, msg }));
        }
        let result = TaskResult::Output {
            name: behavior.completion.outcome,
            objects: behavior.completion.objects,
            redo_after: behavior.redo_after,
        };
        let msg = done(&start, result);
        outputs.push(self.arm(queue_delay + behavior.work, Report { to: from, msg }));
        outputs
    }

    /// The behaviour `start` binds to here, or why it cannot run here.
    fn bind(&self, start: &StartTask) -> Result<TaskBehavior, String> {
        // Location guard: the scheduler should never mispin, but a task
        // arriving at the wrong place must fail loudly, not run quietly.
        if let Some(pinned) = start.hints().location {
            if self.spec.location.as_deref() != Some(pinned.as_str()) {
                return Err(format!(
                    "task pinned to location `{pinned}` arrived at an executor registered {}",
                    match &self.spec.location {
                        Some(label) => format!("at `{label}`"),
                        None => "without a location".to_string(),
                    }
                ));
            }
        }
        let ctx = InvokeCtx {
            path: start.path.clone(),
            incarnation: start.incarnation,
            attempt: start.attempt,
            set: start.set.clone(),
            inputs: start.inputs.clone(),
            repeat_objects: start.repeat_objects.clone(),
            implementation: start.implementation.clone(),
        };
        match self.registry.invoke(start.code(), &ctx)? {
            Invocation::Behavior(behavior) => Ok(behavior),
            Invocation::Script { source, root } => {
                run_nested_script(&self.registry, &source, &root, start)
            }
        }
    }

    /// Bounded capacity: the task takes the earliest-free slot, waits
    /// for its tail before the work (and marks) begin, and advances
    /// that tail by its work time. Slot index breaks ties (stable, so
    /// runs stay deterministic). No slots = unbounded, zero delay.
    fn reserve(&mut self, now: SimTime, work: SimDuration) -> SimDuration {
        let Some((slot, _)) = self.slots.iter().enumerate().min_by_key(|(_, tail)| **tail) else {
            return SimDuration::ZERO;
        };
        let tail = self.slots[slot].max(now);
        self.slots[slot] = tail + work;
        tail.since(now)
    }

    fn arm(&mut self, after: SimDuration, timer: Report) -> Output {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        Output::Arm { id, after, timer }
    }
}

impl Node for Executor {
    type Timer = Report;
    type Call = Infallible;
    type Op = Infallible;
    type Answer = Infallible;

    fn node(&self) -> NodeId {
        self.spec.node
    }

    fn handle(&mut self, now: SimTime, input: Input<'_>) -> Vec<Output> {
        match input {
            Input::Message { from, payload, .. } => match flowscript_codec::from_bytes(payload) {
                Ok(EngineMsg::Start(start)) => self.start(now, from, start),
                _ => Vec::new(),
            },
            Input::Fired(Report { to, msg }) => {
                let bytes = flowscript_codec::to_bytes(&msg);
                vec![Output::Send { to, bytes }]
            }
            Input::Answered(never, _) | Input::Op(never) => match never {},
            // The work that held the slots died with the node.
            Input::Restart => {
                self.slots.fill(SimTime::ZERO);
                Vec::new()
            }
        }
    }
}

/// The completion report of `start`.
fn done(start: &StartTask, result: TaskResult) -> EngineMsg {
    EngineMsg::Done(TaskDone {
        instance: start.instance.clone(),
        path: start.path.clone(),
        incarnation: start.incarnation,
        attempt: start.attempt,
        result,
    })
}

/// Runs a nested workflow for a script-bound implementation and maps its
/// root outcome onto this task's behaviour. The nested run uses its own
/// simulated world; its virtual elapsed time becomes this task's `work`.
fn run_nested_script(
    registry: &ImplRegistry,
    source: &str,
    root: &str,
    start: &StartTask,
) -> Result<TaskBehavior, String> {
    let depth = NESTING.with(|n| n.get());
    if depth >= MAX_SCRIPT_NESTING {
        return Err(format!(
            "script nesting deeper than {MAX_SCRIPT_NESTING} (implementation cycle?)"
        ));
    }
    NESTING.with(|n| n.set(depth + 1));
    let result = (|| {
        let mut nested = crate::api::WorkflowSystem::builder()
            .executors(1)
            .seed(u64::from(start.attempt).wrapping_add(0x5eed))
            .registry(registry.clone())
            .build();
        nested
            .register_script("nested", source, root)
            .map_err(|e| format!("nested script invalid: {e}"))?;
        let inputs: Vec<(String, crate::ObjectVal)> = start
            .inputs
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        nested
            .start("nested-run", "nested", &start.set, inputs)
            .map_err(|e| format!("nested start failed: {e}"))?;
        nested.run();
        let elapsed = nested.now().since(flowscript_sim::SimTime::ZERO);
        match nested.outcome("nested-run") {
            Some(outcome) => {
                let mut behavior = TaskBehavior::outcome(outcome.name)
                    .with_work(elapsed.max(SimDuration::from_millis(1)));
                for (name, value) in outcome.objects {
                    behavior = behavior.with_object(name, value);
                }
                Ok(behavior)
            }
            None => Err("nested workflow did not complete".to_string()),
        }
    })();
    NESTING.with(|n| n.set(depth));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A start of code `c`, with `hints` beside it in the clause.
    fn start(hints: &[(&str, &str)]) -> StartTask {
        StartTask {
            instance: "i".into(),
            path: "p".into(),
            incarnation: 0,
            attempt: 0,
            implementation: [("code", "c")]
                .iter()
                .chain(hints)
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
            set: "main".into(),
            inputs: Default::default(),
            repeat_objects: Default::default(),
        }
    }

    #[test]
    fn nesting_counter_restores_after_guard() {
        NESTING.with(|n| n.set(MAX_SCRIPT_NESTING));
        let registry = ImplRegistry::new();
        let err = run_nested_script(&registry, "class C;", "root", &start(&[])).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        NESTING.with(|n| n.set(0));
    }

    /// `start` delivered to `executor` at `now` from `from`.
    fn deliver(
        executor: &mut Executor,
        now: SimTime,
        from: NodeId,
        start: StartTask,
    ) -> Vec<Output> {
        let payload = &flowscript_codec::to_bytes(&EngineMsg::Start(start));
        let token = None;
        executor.handle(
            now,
            Input::Message {
                from,
                payload,
                token,
            },
        )
    }

    /// An executor needs no world to run: fed a start by hand, it
    /// answers with the timers it arms, or with an immediate report.
    #[test]
    fn location_guard_rejects_a_mispinned_start() {
        // The scheduler never mispins; the guard is for the day it does.
        let [coordinator, here] = [0, 1].map(NodeId::from_index);
        let registry = ImplRegistry::new();
        registry.bind_fn("c", |_| TaskBehavior::outcome("done"));
        let spec = ExecutorSpec {
            location: Some("warehouse".into()),
            ..ExecutorSpec::unbounded(here)
        };
        let mut executor = Executor::new(spec, registry);
        let pinned = |location| start(&[("location", location)]);

        // Pinned here: the completion is armed, owed to the dispatcher,
        // and sent when it goes off.
        let outputs = deliver(
            &mut executor,
            SimTime::ZERO,
            coordinator,
            pinned("warehouse"),
        );
        let [Output::Arm { timer, .. }] = <[Output; 1]>::try_from(outputs).unwrap() else {
            panic!("one timer, the completion's");
        };
        assert_eq!(timer.to, coordinator);
        let EngineMsg::Done(done) = &timer.msg else {
            panic!("a completion report: {timer:?}");
        };
        assert!(matches!(&done.result, TaskResult::Output { name, .. } if name == "done"));
        let expected = flowscript_codec::to_bytes(&timer.msg);
        let outputs = executor.handle(SimTime::ZERO, Input::Fired(timer));
        assert!(matches!(&outputs[..], [Output::Send { to, bytes }]
            if *to == coordinator && *bytes == expected));

        // Pinned elsewhere: an execution error, sent at once.
        let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, pinned("paris"));
        let [Output::Send { to, bytes }] = &outputs[..] else {
            panic!("one immediate report: {outputs:?}");
        };
        assert_eq!(*to, coordinator);
        let Ok(EngineMsg::Done(done)) = flowscript_codec::from_bytes(bytes) else {
            panic!("a completion report");
        };
        assert!(
            matches!(&done.result, TaskResult::ExecError { reason }
                if reason.contains("pinned to location `paris`") && reason.contains("`warehouse`")),
            "a start pinned elsewhere fails loudly: {:?}",
            done.result
        );
    }

    /// The name to bind is the clause's `code` pair: a start naming a
    /// bound code arms its completion, one with no `code` pair binds
    /// the empty name — an execution error, sent at once.
    #[test]
    fn a_start_binds_the_code_pair_of_its_clause() {
        let [coordinator, here] = [0, 1].map(NodeId::from_index);
        let registry = ImplRegistry::new();
        registry.bind_fn("c", |_| TaskBehavior::outcome("done"));
        let mut executor = Executor::new(ExecutorSpec::unbounded(here), registry);

        let named = start(&[("priority", "3")]);
        assert_eq!(named.code(), "c");
        let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, named);
        let [Output::Arm { timer, .. }] = &outputs[..] else {
            panic!("one timer, the completion's: {outputs:?}");
        };
        assert!(matches!(&timer.msg, EngineMsg::Done(TaskDone {
            result: TaskResult::Output { name, .. }, ..
        }) if name == "done"));

        let mut unnamed = start(&[("priority", "3")]);
        unnamed.implementation.remove("code");
        assert_eq!(unnamed.code(), "");
        let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, unnamed);
        let [Output::Send { to, bytes }] = &outputs[..] else {
            panic!("one immediate report and no timer: {outputs:?}");
        };
        assert_eq!(*to, coordinator);
        let Ok(EngineMsg::Done(done)) = flowscript_codec::from_bytes(bytes) else {
            panic!("a completion report");
        };
        assert!(
            matches!(&done.result, TaskResult::ExecError { reason }
                if reason.contains("no implementation bound for ``")),
            "{:?}",
            done.result
        );
    }

    #[test]
    fn a_serial_executor_queues_starts_and_a_restart_frees_its_slot() {
        let work = SimDuration::from_millis(10);
        let [coordinator, here] = [0, 1].map(NodeId::from_index);
        let registry = ImplRegistry::new();
        registry.bind_fn("c", move |_| TaskBehavior::outcome("done").with_work(work));
        let spec = ExecutorSpec {
            capacity: 1,
            ..ExecutorSpec::unbounded(here)
        };
        let mut executor = Executor::new(spec, registry);
        let completion_after = |executor: &mut Executor| {
            let outputs = deliver(executor, SimTime::ZERO, coordinator, start(&[]));
            let [Output::Arm { after, .. }] = outputs[..] else {
                panic!("one timer, the completion's: {outputs:?}");
            };
            after
        };
        // Two starts at once: the second waits out the first's work.
        assert_eq!(completion_after(&mut executor), work);
        assert_eq!(completion_after(&mut executor), work + work);
        // A restart lost both: the slot is free again.
        assert!(executor.handle(SimTime::ZERO, Input::Restart).is_empty());
        assert_eq!(completion_after(&mut executor), work);
    }
}
