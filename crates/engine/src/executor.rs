//! Task executor nodes.
//!
//! An executor is a value ([`Executor`]), driven like every node by
//! `crate::driver`. A start in, it checks the delivered bytes whole once
//! and binds them as a [`StartView`] — the implementation's
//! [`InvokeCtx`] borrows it — to the implementation its code names in
//! the executor's own binding table, and plays the resulting
//! [`crate::TaskBehavior`] out as timers: one per mark at its offset,
//! then one for the completion after the work duration. Each holds its
//! [`EngineMsg::Report`] to the dispatching shard, encoded at the bind —
//! the attempt's address as the start carried it, the start's ticket,
//! the result — and a start that cannot bind is reported the same way,
//! at once. Executors hold **no
//! durable state**: a crash simply loses in-flight work, which the
//! coordinator's watchdogs turn into bounded retries on another node.
//! Its slots are volatile too: a restarted executor starts with every
//! slot free, so new work never queues behind work that died with it.
//!
//! The binding table is a frozen snapshot the executor holds by `Arc`,
//! as a deployed binary holds its code: a restart keeps it, and a
//! rebind is an operator's input ([`Input::Op`]) carrying the new
//! table, which the façade hands every executor before the world next
//! delivers anything. No executor shares a cell with another node, so
//! an executor is `Send` (asserted at build, beside the shard's).
//!
//! Per §4.3 an implementation name may refer to *a script*; such bindings
//! run a complete nested workflow (own simulated world, same table) and
//! map its root outcome onto this task's completion. A nested world
//! retries nothing: every execution error there is deterministic, so a
//! retry would fail alike. A nested world that ends stuck carries its
//! cause up as this task's execution error, once and with the depth it
//! arose at — the innermost cause, not each level's summary wrapped in
//! the next — so a binding cycle fails after [`MAX_SCRIPT_NESTING`]
//! worlds, naming the limit.
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
//! A start is indexed by the shard that dispatched it and its ticket
//! until its completion goes off: the entry holds the attempt's encoded
//! address and its timers. A shard that gives up on an attempt —
//! its scope cancelled, its watchdog fired, its task reconfigured away,
//! another copy's report applied — sends [`EngineMsg::Cancel`] with that
//! ticket: the attempt's pending reports are disarmed, and if its
//! reservation is still its slot's tail, the slot gets that time back
//! (work queued behind it keeps the times it was promised). A ticket the
//! index does not hold — the attempt finished, or died with a restart —
//! is a no-op; so is a cancel that overtook its start on the wire, whose
//! attempt then runs out and reports stale. A shard never reuses a
//! ticket, restarts included (see the coordinator's dispatch module), so
//! a cancel names one attempt.
//!
//! A restarted shard asks every executor what still runs for it: an
//! [`EngineMsg::Census`] call, answered with [`EngineMsg::Running`] —
//! each attempt the index holds for that shard, by ticket and address.
//! The shard takes over the ones it still awaits and cancels the rest,
//! so a restart re-runs none of the work that survived it.

use std::cell::Cell;
use std::convert::Infallible;

use flowscript_codec::IdMap;
use flowscript_sim::{NodeId, SimDuration, SimTime};

use crate::coordinator::{EngineConfig, InstanceStatus};
use crate::driver::{self, Node, TimerId};
use crate::impl_registry::{builtin, Binding, Bindings, InvokeCtx, TaskBehavior};
use crate::msg::{self, report_bytes, EngineMsg, StartView, TaskResult};
use crate::sched::ExecutorSpec;
use crate::state::CbState;

thread_local! {
    /// Nested-script recursion guard (a script bound as its own
    /// implementation would otherwise recurse forever).
    static NESTING: Cell<u32> = const { Cell::new(0) };
}

/// Maximum depth of script-as-implementation nesting.
pub const MAX_SCRIPT_NESTING: u32 = 8;

/// A report an executor owes the shard `to` that dispatched an attempt
/// under `ticket`, once its time comes: a mark, or the completion, which
/// `ends` the attempt — encoded when the start was bound, and sent as
/// it is. One is armed for every report owed.
#[derive(Debug)]
pub(crate) struct Due {
    to: NodeId,
    ticket: u64,
    report: Vec<u8>,
    ends: bool,
}

/// An attempt playing out here: its timers, consecutive from `first`
/// (the completion last), and its address as its start carried it,
/// encoded — what a census lists.
#[derive(Debug)]
struct Running {
    first: u64,
    timers: u32,
    address: Box<[u8]>,
}

/// The slot time an attempt reserved on a bounded executor: `from` to
/// `until` on slot `slot`.
#[derive(Debug)]
struct Booking {
    slot: u32,
    from: SimTime,
    until: SimTime,
}

/// What an executor is fed, and what it answers an input with.
type Input = driver::Input<Due, Infallible, Bindings>;
type Output = driver::Output<Due, Infallible, Infallible>;

/// One executor node, deployed as its [`ExecutorSpec`]: inputs in,
/// outputs out. Results are reported to whichever coordinator
/// dispatched the task (executors are shared by every shard of a
/// multi-coordinator system).
pub(crate) struct Executor {
    spec: ExecutorSpec,
    /// What each code runs here, until the next rebind.
    bindings: Bindings,
    /// One queue tail per declared slot: the next free moment of each.
    /// Empty (capacity 0) means unbounded — no queueing at all.
    slots: Vec<SimTime>,
    /// The attempts playing out, by dispatching shard and the ticket it
    /// minted (so the fixed hasher)…
    running: IdMap<(NodeId, u64), Running>,
    /// …and, on a bounded executor, the slot time each reserved: kept
    /// apart, so an unbounded executor's index holds only its timers.
    booked: IdMap<(NodeId, u64), Booking>,
    next_timer: u64,
}

impl Executor {
    /// The executor `spec` deploys with `bindings`, its slots all free.
    pub(crate) fn new(spec: ExecutorSpec, bindings: Bindings) -> Self {
        let slots = vec![SimTime::ZERO; spec.capacity as usize];
        Self {
            spec,
            bindings,
            slots,
            running: IdMap::default(),
            booked: IdMap::default(),
            next_timer: 0,
        }
    }

    /// Binds and plays out `start`, dispatched by `from`: one timer per
    /// mark and then one for the completion, each holding its report,
    /// indexed under its ticket, or at once an execution error.
    fn start(&mut self, now: SimTime, from: NodeId, start: StartView<'_>) -> Vec<Output> {
        let (address, ticket) = (start.address, start.ticket);
        let behavior = match self.bind(&InvokeCtx::of(&start)) {
            Ok(behavior) => behavior,
            Err(reason) => {
                let result = TaskResult::<()>::ExecError { reason };
                let bytes = report_bytes(address, ticket, &result);
                return vec![Output::Send { to: from, bytes }];
            }
        };
        let first = self.next_timer;
        let booking = self.reserve(now, behavior.work);
        let queue_delay = booking
            .as_ref()
            .map_or(SimDuration::ZERO, |b| b.from.since(now));
        if let Some(booking) = booking {
            self.booked.insert((from, ticket), booking);
        }
        let TaskBehavior {
            work,
            marks,
            completion,
            redo_after,
        } = behavior;
        let mut outputs = Vec::with_capacity(marks.len() + 1);
        for mark in marks {
            let (name, objects) = (mark.name, &mark.objects);
            let report = report_bytes(address, ticket, &TaskResult::Mark { name, objects });
            let after = queue_delay + mark.at.min(work);
            outputs.push(self.arm(after, from, ticket, report, false));
        }
        let result = TaskResult::Output {
            name: completion.outcome,
            objects: &completion.objects,
            redo_after,
        };
        let report = report_bytes(address, ticket, &result);
        outputs.push(self.arm(queue_delay + work, from, ticket, report, true));
        let running = Running {
            first,
            timers: outputs.len() as u32,
            address: address.into(),
        };
        self.running.insert((from, ticket), running);
        outputs
    }

    /// What still runs here for `shard`: a census answer, encoded, its
    /// attempts in ticket order.
    fn census(&self, shard: NodeId) -> Vec<u8> {
        let mut mine: Vec<(u64, &[u8])> = self
            .running
            .iter()
            .filter(|((from, _), _)| *from == shard)
            .map(|(&(_, ticket), running)| (ticket, &*running.address))
            .collect();
        mine.sort_unstable_by_key(|(ticket, _)| *ticket);
        msg::running_bytes(mine.into_iter())
    }

    /// A timer of the attempt `due.to` dispatched under `due.ticket`
    /// went off: its report goes out, if the attempt still runs. The
    /// completion ends the attempt.
    fn report(&mut self, due: Due) -> Vec<Output> {
        let key = (due.to, due.ticket);
        if !self.running.contains_key(&key) {
            return Vec::new();
        }
        if due.ends {
            self.running.remove(&key);
            self.booked.remove(&key);
        }
        let (to, bytes) = (due.to, due.report);
        vec![Output::Send { to, bytes }]
    }

    /// `from` gave up on the attempt it dispatched under `ticket`: its
    /// pending reports are disarmed, and its reservation, if still its
    /// slot's tail, is given back from whichever is later, its start or
    /// now. Anything else is a no-op.
    fn cancel(&mut self, now: SimTime, from: NodeId, ticket: u64) -> Vec<Output> {
        let Some(running) = self.running.remove(&(from, ticket)) else {
            return Vec::new();
        };
        if let Some(booking) = self.booked.remove(&(from, ticket)) {
            let tail = &mut self.slots[booking.slot as usize];
            if *tail == booking.until {
                *tail = booking.from.max(now);
            }
        }
        let timers = running.first..running.first + u64::from(running.timers);
        timers.map(|id| Output::Cancel(TimerId(id))).collect()
    }

    /// The behaviour a start, as `ctx`, binds to here — its clause's
    /// `"code"`, empty when it has none — or why it cannot run here.
    fn bind(&self, ctx: &InvokeCtx<'_>) -> Result<TaskBehavior, String> {
        // Location guard: the scheduler should never mispin, but a task
        // arriving at the wrong place must fail loudly, not run quietly.
        // An empty label pins nothing, as in `ImplHints`.
        if let Some(pinned) = ctx.impl_value("location").filter(|label| !label.is_empty()) {
            if self.spec.location.as_deref() != Some(pinned) {
                return Err(format!(
                    "task pinned to location `{pinned}` arrived at an executor registered {}",
                    match &self.spec.location {
                        Some(label) => format!("at `{label}`"),
                        None => "without a location".to_string(),
                    }
                ));
            }
        }
        let code = ctx.impl_value("code").unwrap_or("");
        if let Some(name) = code.strip_prefix("builtin:") {
            return builtin(name, ctx);
        }
        match self.bindings.get(code) {
            Some(Binding::Program(program)) => Ok(program(ctx)),
            Some(Binding::Script { source, root }) => {
                run_nested_script(&self.bindings, source, root, ctx)
            }
            None => Err(format!("no implementation bound for `{code}`")),
        }
    }

    /// Bounded capacity: the task takes the earliest-free slot, waits
    /// for its tail before the work (and marks) begin, and advances
    /// that tail by its work time. Slot index breaks ties (stable, so
    /// runs stay deterministic). No slots = unbounded: no booking, the
    /// work begins now.
    fn reserve(&mut self, now: SimTime, work: SimDuration) -> Option<Booking> {
        let (slot, _) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, tail)| **tail)?;
        let from = self.slots[slot].max(now);
        self.slots[slot] = from + work;
        let until = self.slots[slot];
        let slot = slot as u32;
        Some(Booking { slot, from, until })
    }

    /// The attempts playing out here: none once the world is quiescent.
    pub(crate) fn running(&self) -> usize {
        self.running.len()
    }

    fn arm(
        &mut self,
        after: SimDuration,
        to: NodeId,
        ticket: u64,
        report: Vec<u8>,
        ends: bool,
    ) -> Output {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        let timer = Due {
            to,
            ticket,
            report,
            ends,
        };
        Output::Arm { id, after, timer }
    }
}

impl Node for Executor {
    type Timer = Due;
    type Call = Infallible;
    type Op = Bindings;
    type Answer = Infallible;

    fn node(&self) -> NodeId {
        self.spec.node
    }

    fn handle(&mut self, now: SimTime, input: Input) -> Vec<Output> {
        match input {
            Input::Message { from, payload, .. } if msg::is_start(&payload) => {
                match StartView::read(&payload) {
                    Ok(start) => self.start(now, from, start),
                    Err(_) => Vec::new(), // corrupt: the shard's watchdog retries
                }
            }
            Input::Message {
                from,
                payload,
                token,
            } => match (flowscript_codec::from_bytes(&payload), token) {
                (Ok(EngineMsg::Cancel { ticket }), _) => self.cancel(now, from, ticket),
                (Ok(EngineMsg::Census), Some(token)) => {
                    let bytes = self.census(from);
                    vec![Output::Reply { token, bytes }]
                }
                _ => Vec::new(),
            },
            Input::Fired(due) => self.report(due),
            Input::Answered(never, _) => match never {},
            // A rebind: the table every later start binds through.
            Input::Op(bindings) => {
                self.bindings = bindings;
                Vec::new()
            }
            // The work that held the slots died with the node.
            Input::Restart => {
                self.slots.fill(SimTime::ZERO);
                self.running.clear();
                self.booked.clear();
                Vec::new()
            }
        }
    }
}

/// Runs a nested workflow for a script-bound implementation and maps its
/// root outcome onto this task's behaviour. The nested run uses its own
/// simulated world, binds through `bindings` and retries nothing; its
/// virtual elapsed time becomes this task's `work`, and a stuck reason
/// this task's execution error.
fn run_nested_script(
    bindings: &Bindings,
    source: &str,
    root: &str,
    ctx: &InvokeCtx<'_>,
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
            .seed(u64::from(ctx.attempt).wrapping_add(0x5eed))
            .config(EngineConfig {
                max_retries: 0,
                ..EngineConfig::default()
            })
            .build();
        nested.bind_all(bindings.clone());
        nested
            .register_script("nested", source, root)
            .map_err(|e| format!("nested script invalid: {e}"))?;
        let inputs = ctx.inputs().map(|(name, object)| (name, object.to_val()));
        nested
            .start("nested-run", "nested", ctx.set, inputs)
            .map_err(|e| format!("nested start failed: {e}"))?;
        nested.run();
        let elapsed = nested.now().since(flowscript_sim::SimTime::ZERO);
        match nested.status("nested-run") {
            Ok(InstanceStatus::Completed(outcome)) => {
                let mut behavior = TaskBehavior::outcome(outcome.name)
                    .with_work(elapsed.max(SimDuration::from_millis(1)));
                for (name, value) in outcome.objects {
                    behavior = behavior.with_object(name, value);
                }
                Ok(behavior)
            }
            Ok(InstanceStatus::Stuck { reason }) => Err(stuck_cause(&nested, depth + 1, reason)),
            _ => Err("nested workflow did not complete".to_string()),
        }
    })();
    NESTING.with(|n| n.set(depth));
    result
}

/// How a nested world's stuck cause begins, with the depth it arose at.
const NESTED_STUCK: &str = "nested workflow stuck at depth ";

/// Why the nested world at depth `level` ended stuck, said once: a
/// failed task's error that is a deeper world's cause is passed up as it
/// is; otherwise the first failed task's error, or else the world's own
/// stuck `reason`, is the cause at `level`.
fn stuck_cause(nested: &crate::api::WorkflowSystem, level: u32, reason: String) -> String {
    let mut first = None;
    for state in nested.task_states("nested-run").into_values() {
        let CbState::Failed { reason } = state else {
            continue;
        };
        if let Some(at) = reason.find(NESTED_STUCK) {
            return reason[at..].to_string();
        }
        first.get_or_insert(reason);
    }
    format!("{NESTED_STUCK}{level}: {}", first.unwrap_or(reason))
}

#[cfg(test)]
mod tests {
    use flowscript_sim::ReplyToken;

    use std::collections::BTreeMap;
    use std::sync::Arc;

    use super::*;
    use crate::msg::{Attempt, Delivered, ResultView, StartTask};

    /// A table binding code `c` to `program`.
    fn c_runs(
        program: impl Fn(&InvokeCtx<'_>) -> TaskBehavior + Send + Sync + 'static,
    ) -> Bindings {
        let program = Binding::Program(Arc::new(program));
        Arc::new(BTreeMap::from([("c".to_string(), program)]))
    }

    /// The address every start here ships.
    fn address() -> Attempt {
        Attempt {
            instance: "i".into(),
            path: "p".into(),
            incarnation: 0,
            attempt: 0,
        }
    }

    /// A start of code `c`, with `hints` beside it in the clause.
    fn start(hints: &[(&str, &str)]) -> StartTask {
        StartTask {
            at: address(),
            ticket: 0,
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
        let bytes = flowscript_codec::to_bytes(&EngineMsg::Start(start(&[])));
        let ctx = InvokeCtx::of(&StartView::read(&bytes).unwrap());
        let err = run_nested_script(&Bindings::default(), "class C;", "root", &ctx).unwrap_err();
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
        let payload = flowscript_codec::to_bytes(&EngineMsg::Start(start));
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

    /// The report `outputs` send to the shard that dispatched the
    /// attempt, coordinator 0.
    fn sent(outputs: &[Output]) -> Delivered {
        let [Output::Send { to, bytes }] = outputs else {
            panic!("one report sent: {outputs:?}");
        };
        assert_eq!(*to, NodeId::from_index(0));
        Delivered::read(bytes.clone(), 0..bytes.len()).expect("a report")
    }

    /// Whether `report` is a completion in the outcome `outcome`.
    fn done_in(report: &Delivered, outcome: &str) -> bool {
        matches!(report.view().result, ResultView::Output { name, .. } if name == outcome)
    }

    /// `timer` goes off at `executor`: the report it sends.
    fn fire(executor: &mut Executor, timer: Due) -> Delivered {
        sent(&executor.handle(SimTime::ZERO, Input::Fired(timer)))
    }

    /// An executor needs no world to run: fed a start by hand, it
    /// answers with the timers it arms, or with an immediate report.
    #[test]
    fn location_guard_rejects_a_mispinned_start() {
        // The scheduler never mispins; the guard is for the day it does.
        let [coordinator, here] = [0, 1].map(NodeId::from_index);
        let spec = ExecutorSpec {
            location: Some("warehouse".into()),
            ..ExecutorSpec::unbounded(here)
        };
        let mut executor = Executor::new(spec, c_runs(|_| TaskBehavior::outcome("done")));
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
        assert_eq!(timer.to, coordinator, "a report owed the dispatcher");
        let done = fire(&mut executor, timer);
        assert!(done_in(&done, "done"));

        // Pinned elsewhere: an execution error, sent at once.
        let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, pinned("paris"));
        let done = sent(&outputs);
        assert!(
            matches!(done.view().result, ResultView::ExecError { reason }
                if reason.contains("pinned to location `paris`") && reason.contains("`warehouse`")),
            "a start pinned elsewhere fails loudly: {:?}",
            done.view().result
        );
    }

    /// The name to bind is the clause's `code` pair: a start naming a
    /// bound code arms its completion, one with no `code` pair binds
    /// the empty name — an execution error, sent at once.
    #[test]
    fn a_start_binds_the_code_pair_of_its_clause() {
        let [coordinator, here] = [0, 1].map(NodeId::from_index);
        let done = c_runs(|_| TaskBehavior::outcome("done"));
        let mut executor = Executor::new(ExecutorSpec::unbounded(here), done);

        let named = start(&[("priority", "3")]);
        assert_eq!(named.implementation["code"], "c");
        let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, named);
        let [Output::Arm { timer, .. }] = <[Output; 1]>::try_from(outputs).unwrap() else {
            panic!("one timer, the completion's");
        };
        let done = fire(&mut executor, timer);
        assert!(done_in(&done, "done"));

        let mut unnamed = start(&[("priority", "3")]);
        unnamed.implementation.remove("code");
        let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, unnamed);
        let done = sent(&outputs);
        assert!(
            matches!(done.view().result, ResultView::ExecError { reason }
                if reason.contains("no implementation bound for ``")),
            "{:?}",
            done.view().result
        );
    }

    #[test]
    fn a_serial_executor_queues_starts_and_a_restart_frees_its_slot() {
        let work = SimDuration::from_millis(10);
        let [coordinator, here] = [0, 1].map(NodeId::from_index);
        let spec = ExecutorSpec {
            capacity: 1,
            ..ExecutorSpec::unbounded(here)
        };
        let bindings = c_runs(move |_| TaskBehavior::outcome("done").with_work(work));
        let mut executor = Executor::new(spec, bindings);
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

    /// A serial executor playing `c` as 10 ms of work with a mark at
    /// 5 ms.
    fn serial() -> Executor {
        let work = SimDuration::from_millis(10);
        let bindings = c_runs(move |_| {
            TaskBehavior::outcome("done").with_work(work).with_mark(
                SimDuration::from_millis(5),
                "half",
                [],
            )
        });
        let spec = ExecutorSpec {
            capacity: 1,
            ..ExecutorSpec::unbounded(NodeId::from_index(1))
        };
        Executor::new(spec, bindings)
    }

    /// A start of `c` under `ticket`, delivered at 0: the completion's
    /// delay, and the ids of the timers it armed.
    fn started(executor: &mut Executor, ticket: u64) -> (SimDuration, Vec<TimerId>) {
        let coordinator = NodeId::from_index(0);
        let start = StartTask {
            ticket,
            ..start(&[])
        };
        let outputs = deliver(executor, SimTime::ZERO, coordinator, start);
        let ids = outputs.iter().map(|output| match output {
            Output::Arm { id, .. } => *id,
            other => panic!("only timers: {other:?}"),
        });
        let Some(Output::Arm { after, .. }) = outputs.last() else {
            panic!("the completion last: {outputs:?}");
        };
        (*after, ids.collect())
    }

    /// The cancel of `ticket`, delivered at 0: the timers it disarms.
    fn cancel(executor: &mut Executor, ticket: u64) -> Vec<TimerId> {
        let payload = flowscript_codec::to_bytes(&EngineMsg::Cancel { ticket });
        let from = NodeId::from_index(0);
        let message = Input::Message {
            from,
            payload,
            token: None,
        };
        let outputs = executor.handle(SimTime::ZERO, message);
        let ids = outputs.into_iter().map(|output| match output {
            Output::Cancel(id) => id,
            other => panic!("only cancels: {other:?}"),
        });
        ids.collect()
    }

    /// A cancel disarms every timer of its attempt, the mark's and the
    /// completion's; the slot time of a reservation at its slot's tail
    /// comes back, and work queued behind one that is not keeps its
    /// promised time.
    #[test]
    fn a_cancel_ends_the_timers_of_its_attempt() {
        let ms = SimDuration::from_millis;
        let mut executor = serial();
        let (a_at, a) = started(&mut executor, 1);
        let (b_at, _) = started(&mut executor, 2);
        assert_eq!((a_at, b_at, a.len()), (ms(10), ms(20), 2));
        assert_eq!(executor.running(), 2);
        // `a` is not the tail: `b` keeps its 20 ms, and the next start
        // queues behind `b`.
        assert_eq!(cancel(&mut executor, 1), a);
        assert_eq!(started(&mut executor, 3).0, ms(30));
        // `c` is the tail: its 10 ms come back, and `d` takes them.
        let (_, c) = started(&mut executor, 4);
        assert_eq!(cancel(&mut executor, 4), c);
        assert_eq!(started(&mut executor, 5).0, ms(40));
        assert_eq!(executor.running(), 3, "b, the second start and d");
    }

    /// A ticket the index does not hold — never started, already
    /// cancelled, or finished — cancels nothing.
    #[test]
    fn an_unknown_or_finished_ticket_is_a_no_op() {
        let mut executor = serial();
        assert!(cancel(&mut executor, 7).is_empty(), "never started");
        let (_, timers) = started(&mut executor, 7);
        assert_eq!(cancel(&mut executor, 7), timers);
        assert!(cancel(&mut executor, 7).is_empty(), "already cancelled");
        // A start whose completion went off is finished.
        let coordinator = NodeId::from_index(0);
        let start = StartTask {
            ticket: 8,
            ..start(&[])
        };
        let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, start);
        for output in outputs {
            let Output::Arm { timer, .. } = output else {
                panic!("only timers");
            };
            executor.handle(SimTime::ZERO, Input::Fired(timer));
        }
        assert_eq!(executor.running(), 0);
        assert!(cancel(&mut executor, 8).is_empty(), "finished");
    }

    /// A start's one timer type carries its mark and its completion
    /// alike: each goes out under the start's address and ticket, the
    /// mark first, and the completion ends the attempt. A cancel between
    /// them disarms both, so neither is sent.
    #[test]
    fn a_mark_and_its_completion_go_out_under_the_start() {
        let mut executor = serial();
        let coordinator = NodeId::from_index(0);
        let nine = StartTask {
            ticket: 9,
            ..start(&[])
        };
        let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, nine);
        let timers = outputs.into_iter().map(|output| match output {
            Output::Arm { id, after, timer } => (id, after, timer),
            other => panic!("only timers: {other:?}"),
        });
        let [(mark_id, mark_at, mark), (done_id, done_at, done)] =
            <[_; 2]>::try_from(timers.collect::<Vec<_>>()).unwrap();
        assert!(mark_id.0 < done_id.0 && mark_at < done_at, "the mark first");
        let mark = fire(&mut executor, mark);
        let mark = mark.view();
        assert!(mark.at.is(&address()) && mark.ticket == 9);
        assert!(matches!(mark.result, ResultView::Mark { name, .. } if name == "half"));
        assert_eq!(executor.running(), 1, "a mark ends nothing");
        let done = fire(&mut executor, done);
        assert!(done.view().at.is(&address()) && done.view().ticket == 9);
        assert!(done_in(&done, "done"));
        assert_eq!(executor.running(), 0, "the completion ends the attempt");

        // Cancelled before either went off: both are disarmed, and a
        // timer that went off anyway finds no attempt to report.
        let ten = StartTask {
            ticket: 10,
            ..start(&[])
        };
        let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, ten);
        let (ids, timers): (Vec<_>, Vec<_>) = outputs
            .into_iter()
            .map(|output| match output {
                Output::Arm { id, timer, .. } => (id, timer),
                other => panic!("only timers: {other:?}"),
            })
            .unzip();
        assert_eq!(cancel(&mut executor, 10), ids);
        for timer in timers {
            assert!(executor
                .handle(SimTime::ZERO, Input::Fired(timer))
                .is_empty());
        }
    }

    /// The census `shard` takes of `executor`: the attempts listed, or
    /// `None` when it sends no answer.
    fn census_of(executor: &mut Executor, shard: NodeId) -> Option<Vec<(u64, Attempt)>> {
        let payload = flowscript_codec::to_bytes(&EngineMsg::Census);
        let token = Some(ReplyToken::new(executor.node(), shard, 1));
        let message = Input::Message {
            from: shard,
            payload,
            token,
        };
        let outputs = executor.handle(SimTime::ZERO, message);
        let [Output::Reply { bytes, .. }] = &outputs[..] else {
            assert!(outputs.is_empty(), "one answer or none: {outputs:?}");
            return None;
        };
        match flowscript_codec::from_bytes(bytes) {
            Ok(EngineMsg::Running { attempts }) => Some(attempts),
            other => panic!("a census answer: {other:?}"),
        }
    }

    /// A census lists each attempt running for the shard that asks — by
    /// ticket, under the address its reports carry — and nothing that
    /// finished, nothing of another shard's, nothing a restart lost; a
    /// census that is no call is not answered.
    #[test]
    fn a_census_lists_what_runs_for_the_shard_that_asks() {
        let mut executor = serial();
        let [shard, other] = [0, 2].map(NodeId::from_index);
        let (_, first) = started(&mut executor, 1);
        started(&mut executor, 2);
        let from_other = StartTask {
            ticket: 1,
            at: Attempt {
                attempt: 3,
                ..address()
            },
            ..start(&[])
        };
        deliver(&mut executor, SimTime::ZERO, other, from_other);
        // The attempt under ticket 1 is cancelled: it no longer runs.
        let payload = flowscript_codec::to_bytes(&EngineMsg::Cancel { ticket: 1 });
        let cancelled = Input::Message {
            from: shard,
            payload,
            token: None,
        };
        assert_eq!(executor.handle(SimTime::ZERO, cancelled).len(), first.len());
        let listed = census_of(&mut executor, shard).expect("answered");
        assert_eq!(listed, [(2, address())]);
        let listed = census_of(&mut executor, other).expect("answered");
        let listed = listed.iter().map(|(ticket, at)| (*ticket, at.attempt));
        assert_eq!(listed.collect::<Vec<_>>(), [(1, 3)]);
        // Not a call: nothing to answer through.
        let payload = flowscript_codec::to_bytes(&EngineMsg::Census);
        let one_way = Input::Message {
            from: shard,
            payload,
            token: None,
        };
        assert!(executor.handle(SimTime::ZERO, one_way).is_empty());
        assert!(executor.handle(SimTime::ZERO, Input::Restart).is_empty());
        assert_eq!(census_of(&mut executor, shard), Some(Vec::new()));
    }

    /// A census lists a shard's attempts in ticket order, whatever order
    /// they started in.
    #[test]
    fn a_census_lists_attempts_in_ticket_order() {
        let mut executor = serial();
        let tickets = [40, 3, 1_000, 17, 2, 64, 9];
        for ticket in tickets {
            started(&mut executor, ticket);
        }
        let listed = census_of(&mut executor, NodeId::from_index(0)).expect("answered");
        let listed: Vec<u64> = listed.iter().map(|(ticket, _)| *ticket).collect();
        assert_eq!(listed, [2, 3, 9, 17, 40, 64, 1_000]);
    }

    /// A restart lost every attempt: the index is empty, and a cancel of
    /// what ran before it is a no-op.
    #[test]
    fn a_restart_clears_the_index() {
        let mut executor = serial();
        started(&mut executor, 1);
        started(&mut executor, 2);
        assert_eq!(executor.running(), 2);
        assert!(executor.handle(SimTime::ZERO, Input::Restart).is_empty());
        assert_eq!(executor.running(), 0);
        assert!(cancel(&mut executor, 1).is_empty());
    }

    /// The one completion `outputs` arm: what `code`'s start became.
    fn completion(outputs: Vec<Output>) -> Due {
        let [Output::Arm { timer, .. }] = <[Output; 1]>::try_from(outputs).unwrap() else {
            panic!("one timer, the completion's");
        };
        timer
    }

    /// A rebind is an input: starts after it bind through the new
    /// table, and a restart keeps it, as a deployed binary keeps its
    /// code.
    #[test]
    fn a_rebind_is_an_input_and_a_restart_keeps_it() {
        let coordinator = NodeId::from_index(0);
        let spec = ExecutorSpec::unbounded(NodeId::from_index(1));
        let mut executor = Executor::new(spec, c_runs(|_| TaskBehavior::outcome("v1")));
        let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, start(&[]));
        assert!(done_in(&fire(&mut executor, completion(outputs)), "v1"));

        let rebind = Input::Op(c_runs(|_| TaskBehavior::outcome("v2")));
        assert!(executor.handle(SimTime::ZERO, rebind).is_empty());
        assert!(executor.handle(SimTime::ZERO, Input::Restart).is_empty());
        let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, start(&[]));
        assert!(done_in(&fire(&mut executor, completion(outputs)), "v2"));

        let unbound = Input::Op(Bindings::default());
        assert!(executor.handle(SimTime::ZERO, unbound).is_empty());
        let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, start(&[]));
        assert!(
            matches!(sent(&outputs).view().result, ResultView::ExecError { reason }
            if reason.contains("no implementation bound for `c`"))
        );
    }

    /// An executor is a value that can move: one spawned thread takes
    /// it, feeds it a start and the completion's timer, and hands back
    /// the report.
    #[test]
    fn an_executor_runs_on_a_thread_of_its_own() {
        let spec = ExecutorSpec::unbounded(NodeId::from_index(1));
        let echo = c_runs(|ctx| TaskBehavior::outcome(ctx.set));
        let mut executor = Executor::new(spec, echo);
        let report = std::thread::spawn(move || {
            let coordinator = NodeId::from_index(0);
            let outputs = deliver(&mut executor, SimTime::ZERO, coordinator, start(&[]));
            fire(&mut executor, completion(outputs))
        })
        .join()
        .expect("the thread ran");
        assert!(done_in(&report, "main"));
        assert!(report.view().at.is(&address()));
    }
}
