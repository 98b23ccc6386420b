//! Task executor nodes.
//!
//! An executor receives `StartTask` messages, binds the named
//! implementation through the shared [`ImplRegistry`], plays the resulting
//! [`crate::TaskBehavior`] out in simulated time (marks at their offsets,
//! completion after the work duration) and reports back with one-way
//! messages. Executors hold **no durable state**: a crash simply loses
//! in-flight work, which the coordinator's watchdogs turn into bounded
//! retries on another node.
//!
//! Per §4.3 an implementation name may refer to *a script*; such bindings
//! run a complete nested workflow (own simulated world, same registry)
//! and map its root outcome onto this task's completion.
//!
//! An executor registers a **location label** at install time
//! ([`ExecutorProfile::location`]): the coordinators' schedulers treat
//! a task's `location` hint as a hard placement constraint, and the
//! executor itself double-checks the pin on arrival (a mispinned task
//! is rejected as an execution error instead of silently running in
//! the wrong place). A profile can also declare a **capacity**: `k`
//! concurrent task slots, later arrivals queueing behind the earliest
//! free slot in virtual time (`k = 1` is the serial model
//! `tests/scheduling.rs` runs on; `0` keeps the legacy
//! infinitely-parallel node). The same capacity is registered with
//! every coordinator's scheduler, which parks dispatches instead of
//! queueing them here once all eligible executors are saturated.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use flowscript_sim::{Envelope, NodeId, SimDuration, SimTime, World};

use crate::impl_registry::{ImplRegistry, Invocation, InvokeCtx, TaskBehavior};
use crate::msg::{EngineMsg, MarkMsg, StartTask, TaskDone, TaskResult};

thread_local! {
    /// Nested-script recursion guard (a script bound as its own
    /// implementation would otherwise recurse forever).
    static NESTING: Cell<u32> = const { Cell::new(0) };
}

/// Maximum depth of script-as-implementation nesting.
pub const MAX_SCRIPT_NESTING: u32 = 8;

/// How one executor node is deployed.
#[derive(Debug, Clone, Default)]
pub struct ExecutorProfile {
    /// The node's location label. Registered with every coordinator's
    /// scheduler and re-checked on arrival against the task's
    /// `location` hint.
    pub location: Option<String>,
    /// Concurrent task slots: `k` tasks run at a time, later arrivals
    /// queueing behind the earliest-free slot in virtual time (FIFO by
    /// arrival within a slot). `1` is the serial model; the default
    /// `0` keeps the legacy infinitely-parallel node, where load only
    /// shows in the coordinator's in-flight counters, never in virtual
    /// latency.
    ///
    /// Caveat: the queue reservation is made at arrival and there is
    /// no cancel protocol, so an attempt the coordinator abandons (a
    /// watchdog firing while the task is still queued) keeps its slot
    /// and the retry queues *behind* it. Bounded fleets should pair
    /// with watchdog timeouts generous relative to the expected queue
    /// depth (as `tests/scheduling.rs` does) — though with
    /// capacity-aware scheduling the coordinator parks excess
    /// dispatches instead of queueing them here, so in practice at
    /// most `capacity` tasks occupy the node at once.
    pub capacity: u32,
}

/// Installs the executor handler on `node`, deployed as `profile`
/// (location label, capacity model). Results are reported to whichever
/// coordinator dispatched the task (executors are shared by every shard
/// of a multi-coordinator system).
pub fn install(world: &mut World, node: NodeId, registry: ImplRegistry, profile: ExecutorProfile) {
    // One queue tail per declared slot: the next free moment of each.
    // Empty (capacity 0) means unbounded — no queueing at all.
    let tails = Rc::new(RefCell::new(vec![SimTime::ZERO; profile.capacity as usize]));
    world.set_handler(node, move |world, envelope| {
        handle(world, node, &registry, &profile, &tails, envelope);
    });
}

fn handle(
    world: &mut World,
    node: NodeId,
    registry: &ImplRegistry,
    profile: &ExecutorProfile,
    tails: &Rc<RefCell<Vec<SimTime>>>,
    envelope: &Envelope,
) {
    let Ok(EngineMsg::Start(start)) = flowscript_codec::from_bytes::<EngineMsg>(&envelope.payload)
    else {
        return;
    };
    // Reply to the shard that dispatched this task, not a fixed node.
    let coordinator = envelope.src;
    // Location guard: the scheduler should never mispin, but a task
    // arriving at the wrong place must fail loudly, not run quietly.
    if let Some(pinned) = start.hints().location {
        if profile.location.as_deref() != Some(pinned.as_str()) {
            let reason = format!(
                "task pinned to location `{pinned}` arrived at an executor registered {}",
                match &profile.location {
                    Some(label) => format!("at `{label}`"),
                    None => "without a location".to_string(),
                }
            );
            send_done(
                world,
                node,
                coordinator,
                &start,
                TaskResult::ExecError { reason },
            );
            return;
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
    let behavior = match registry.invoke(&start.code, &ctx) {
        Err(reason) => {
            send_done(
                world,
                node,
                coordinator,
                &start,
                TaskResult::ExecError { reason },
            );
            return;
        }
        Ok(Invocation::Behavior(behavior)) => behavior,
        Ok(Invocation::Script { source, root }) => {
            match run_nested_script(registry, &source, &root, &start) {
                Ok(behavior) => behavior,
                Err(reason) => {
                    send_done(
                        world,
                        node,
                        coordinator,
                        &start,
                        TaskResult::ExecError { reason },
                    );
                    return;
                }
            }
        }
    };
    // Bounded capacity: the task takes the earliest-free slot, waits
    // for its tail before the work (and marks) begin, and advances
    // that tail by its work time. Slot index breaks ties (stable, so
    // runs stay deterministic). No slots = unbounded, zero delay.
    let queue_delay = {
        let mut tails = tails.borrow_mut();
        match tails.iter().enumerate().min_by_key(|(_, tail)| **tail) {
            Some((slot, _)) => {
                let now = world.now();
                let tail = tails[slot].max(now);
                let delay = tail.since(now);
                tails[slot] = tail + behavior.work;
                delay
            }
            None => SimDuration::ZERO,
        }
    };
    play_behavior(world, node, coordinator, &start, behavior, queue_delay);
}

/// Schedules the behaviour's marks and completion in simulated time,
/// `queue_delay` after now (the node's serial queue, zero on parallel
/// nodes).
fn play_behavior(
    world: &mut World,
    node: NodeId,
    coordinator: NodeId,
    start: &StartTask,
    behavior: TaskBehavior,
    queue_delay: SimDuration,
) {
    for mark in behavior.marks {
        let msg = EngineMsg::Mark(MarkMsg {
            instance: start.instance.clone(),
            path: start.path.clone(),
            incarnation: start.incarnation,
            attempt: start.attempt,
            mark: mark.name,
            objects: mark.objects,
            epoch: start.epoch,
        });
        let at = queue_delay + mark.at.min(behavior.work);
        world.schedule_node_after(node, at, move |world| {
            world.send(node, coordinator, flowscript_codec::to_bytes(&msg));
        });
    }
    let done = TaskResult::Output {
        name: behavior.completion.outcome,
        objects: behavior.completion.objects,
        redo_after: behavior.redo_after,
    };
    let start = start.clone();
    world.schedule_node_after(node, queue_delay + behavior.work, move |world| {
        send_done(world, node, coordinator, &start, done);
    });
}

fn send_done(
    world: &mut World,
    node: NodeId,
    coordinator: NodeId,
    start: &StartTask,
    result: TaskResult,
) {
    let msg = EngineMsg::Done(TaskDone {
        instance: start.instance.clone(),
        path: start.path.clone(),
        incarnation: start.incarnation,
        attempt: start.attempt,
        result,
        epoch: start.epoch,
    });
    world.send(node, coordinator, flowscript_codec::to_bytes(&msg));
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

    fn start(implementation: &[(&str, &str)]) -> StartTask {
        StartTask {
            instance: "i".into(),
            path: "p".into(),
            incarnation: 0,
            attempt: 0,
            code: "c".into(),
            implementation: implementation
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
            set: "main".into(),
            inputs: Default::default(),
            repeat_objects: Default::default(),
            epoch: 1,
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

    #[test]
    fn location_guard_rejects_a_mispinned_start() {
        // The scheduler never mispins; the guard is for the day it does.
        let mut world = World::new(1);
        let coordinator = world.add_node("coordinator");
        let executor = world.add_node("warehouse0");
        let registry = ImplRegistry::new();
        registry.bind_fn("c", |_| TaskBehavior::outcome("done"));
        let profile = ExecutorProfile {
            location: Some("warehouse".into()),
            ..ExecutorProfile::default()
        };
        install(&mut world, executor, registry, profile);
        let replies = Rc::new(RefCell::new(Vec::new()));
        let sink = replies.clone();
        world.set_handler(coordinator, move |_, envelope| {
            let Ok(EngineMsg::Done(done)) = flowscript_codec::from_bytes(&envelope.payload) else {
                panic!("the executor answers a start with a report");
            };
            sink.borrow_mut().push(done.result);
        });
        for location in ["warehouse", "paris"] {
            let msg = EngineMsg::Start(start(&[("location", location)]));
            world.send(coordinator, executor, flowscript_codec::to_bytes(&msg));
            world.run();
        }
        let replies = replies.borrow();
        assert!(
            matches!(&replies[0], TaskResult::Output { name, .. } if name == "done"),
            "a start pinned here runs: {replies:?}"
        );
        assert!(
            matches!(&replies[1], TaskResult::ExecError { reason }
                if reason.contains("pinned to location `paris`") && reason.contains("`warehouse`")),
            "a start pinned elsewhere fails loudly: {replies:?}"
        );
    }
}
