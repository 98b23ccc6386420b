//! The adaptive scheduling stack: weighted executor capacities with a
//! priority-ordered parked ready queue, observed-duration feedback
//! (per-code EWMA overriding lying `duration_ms` hints in watchdog
//! math), and per-shard admission control (queued starts, typed `Busy`
//! overflow, crash-safe occupancy accounting). Capacities and feedback
//! are **placement, not semantics**: per-instance outcomes, dispatch
//! traces and task states must not change, proven against the fig. 7 /
//! fig. 8 workloads across shard counts and by a randomized-capacity
//! proptest arm.

mod common;

use std::collections::BTreeMap;

use common::{
    build, det_config, fan_join_source, fingerprints, run_fan, start_population, text, Fingerprint,
    ONE_TASK,
};
use flowscript_engine::{
    CbState, EngineConfig, EngineError, InstanceStatus, ObsEventKind, ObserveLevel, TaskBehavior,
    WorkflowSystem,
};
use flowscript_sim::{SimDuration, SimTime};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Capacity parking: the per-shard ready queue.
// ---------------------------------------------------------------------

#[test]
fn saturated_capacity_parks_and_drains_by_priority() {
    // Three tasks become ready in one commit on ONE serial executor:
    // only the first dispatch fits, the rest park in the ready queue
    // and must drain highest declared priority first as completions
    // free the slot.
    let source = r#"
class Data;
taskclass Work {
    inputs { input main { in of class Data } };
    outputs { outcome done { } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
    task low of taskclass Work {
        implementation { "code" is "refWork"; "priority" is "1" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    task high of taskclass Work {
        implementation { "code" is "refWork"; "priority" is "9" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    task mid of taskclass Work {
        implementation { "code" is "refWork"; "priority" is "5" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    outputs {
        outcome done {
            notification from { task low if output done };
            notification from { task high if output done };
            notification from { task mid if output done }
        }
    }
}
"#;
    let config = EngineConfig {
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(1)
        .executor_capacity(1)
        .seed(5)
        .config(config)
        .build();
    sys.register_script("prio", source, "root").unwrap();
    sys.bind_fn("refWork", |_| {
        TaskBehavior::outcome("done").with_work(SimDuration::from_millis(50))
    });
    sys.start("p1", "prio", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert!(sys.outcome("p1").is_some(), "{:?}", sys.status("p1"));
    let order: Vec<String> = sys
        .dispatch_trace_of("p1")
        .into_iter()
        .map(|d| d.path)
        .collect();
    assert_eq!(
        order,
        vec![
            "root/high".to_string(),
            "root/mid".to_string(),
            "root/low".to_string()
        ],
        "the parked ready queue must drain by declared priority"
    );
    let stats = sys.stats();
    assert_eq!(stats.dispatches, 3);
    assert_eq!(stats.retries, 0, "parking must not look like failure");
    assert_eq!(stats.dropped_dispatches, 0);
}

// ---------------------------------------------------------------------
// Admission control: queueing, typed overflow, post-crash accounting.
// ---------------------------------------------------------------------

fn admission_system(cap: usize, queue: usize, work_ms: u64) -> WorkflowSystem {
    let config = EngineConfig {
        max_inflight_instances: Some(cap),
        admission_queue_limit: queue,
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(8)
        .config(config)
        .build();
    sys.register_script("one", ONE_TASK, "root").unwrap();
    sys.bind_fn("refWork", move |_| {
        TaskBehavior::outcome("done").with_work(SimDuration::from_millis(work_ms))
    });
    sys
}

#[test]
fn queued_start_blocks_until_capacity_frees_then_admits() {
    let mut sys = admission_system(1, 4, 300);
    sys.start("a", "one", "main", [("seed", text("Data", "s"))])
        .unwrap();
    assert!(
        sys.now() < SimTime::from_nanos(100_000_000),
        "a admits fast"
    );
    // The second start parks in the admission queue with its reply
    // token held open: the client call completes only once instance
    // "a" leaves the live set and the queue head is admitted.
    sys.start("b", "one", "main", [("seed", text("Data", "s"))])
        .unwrap();
    assert!(
        sys.now() >= SimTime::from_nanos(300_000_000),
        "b's start must block until a's 300ms of work frees the cap (now {})",
        sys.now()
    );
    sys.run();
    assert!(sys.outcome("a").is_some());
    assert!(sys.outcome("b").is_some());
    assert_eq!(sys.stats().busy_rejections, 0, "queue room means no Busy");
    // The queued instance's trace shows the park and the admit.
    let events = sys.trace("b");
    let kinds: Vec<&ObsEventKind> = events.iter().map(|e| &e.kind).collect();
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, ObsEventKind::Parked { queue_depth } if *queue_depth == 1)),
        "b must record Parked: {kinds:?}"
    );
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, ObsEventKind::Admitted { wait_ns } if *wait_ns > 0)),
        "b must record Admitted with a real wait: {kinds:?}"
    );
    let trace = sys.trace("b");
    drop(trace);
}

#[test]
fn full_admission_queue_returns_typed_busy() {
    let mut sys = admission_system(1, 0, 200);
    sys.start("a", "one", "main", [("seed", text("Data", "s"))])
        .unwrap();
    // Zero queue room: the overflow start is rejected immediately with
    // the typed, retryable error — not an input failure.
    let err = sys
        .start("b", "one", "main", [("seed", text("Data", "s"))])
        .expect_err("the cap is full");
    assert!(
        matches!(err, EngineError::Busy { queue_depth: 0 }),
        "expected Busy, got {err:?}"
    );
    assert_eq!(sys.stats().busy_rejections, 1);
    sys.run();
    assert!(sys.outcome("a").is_some());
    // After the live set drains the same start is admitted.
    sys.start("b", "one", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert!(sys.outcome("b").is_some());
    // A client that retries `Busy` with backoff under sustained
    // overload loses nothing, and every rejection is counted once.
    let mut rejections = 1;
    for name in ["c", "d", "e"] {
        while let Err(err) = sys.start(name, "one", "main", [("seed", text("Data", "s"))]) {
            assert!(matches!(err, EngineError::Busy { .. }), "got {err:?}");
            rejections += 1;
            sys.run_for(SimDuration::from_millis(100));
        }
    }
    sys.run();
    assert!(rejections > 1, "an overloaded cap must push back");
    assert_eq!(sys.stats().busy_rejections, rejections);
    for name in ["c", "d", "e"] {
        assert!(sys.outcome(name).is_some(), "{name} lost");
    }
}

#[test]
fn recovery_recounts_live_instances_for_admission() {
    let mut sys = admission_system(1, 0, 5_000);
    sys.start("a", "one", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_millis(1_000));
    assert_eq!(sys.status("a").unwrap(), InstanceStatus::Running);
    // Crash and restart the coordinator mid-run: recovery must rebuild
    // the occupancy count from the persisted Running metas, so the cap
    // still holds against the recovered instance.
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    sys.restart_now(coordinator);
    sys.run_for(SimDuration::from_millis(100));
    let err = sys
        .start("b", "one", "main", [("seed", text("Data", "s"))])
        .expect_err("the recovered instance still occupies the cap");
    assert!(matches!(err, EngineError::Busy { .. }), "got {err:?}");
    sys.run();
    assert!(sys.outcome("a").is_some(), "{:?}", sys.status("a"));
    sys.start("b", "one", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert!(sys.outcome("b").is_some());
}

#[test]
fn crash_with_parked_dispatches_recovers_the_whole_fan() {
    // One serial executor, a 6-wide fan of 500ms tasks: 100ms in, one
    // task is executing and five sit in the parked ready queue. The
    // parked queue is volatile — the crash wipes it — so recovery must
    // re-derive every pending dispatch from the committed control
    // blocks alone.
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_secs(30),
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(1)
        .executor_capacity(1)
        .seed(13)
        .config(config)
        .build();
    sys.register_script("fan", &fan_join_source(6, |_| None), "root")
        .unwrap();
    for i in 0..6 {
        sys.bind_fn(&format!("refW{i}"), |_| {
            TaskBehavior::outcome("done").with_work(SimDuration::from_millis(500))
        });
    }
    sys.start("f1", "fan", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_millis(100));
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    sys.restart_now(coordinator);
    sys.run();
    assert!(sys.outcome("f1").is_some(), "{:?}", sys.status("f1"));
    let states = sys.task_states("f1");
    assert!(
        states.values().all(|s| matches!(s, CbState::Done { .. })),
        "{states:?}"
    );
}

/// Two siblings on one serial executor: `a` works 40 s and says so, `b`
/// works 10 s and declares nothing, so its watchdog is the 30 s default.
const LONG_THEN_SHORT: &str = r#"
class Data;
taskclass Work {
    inputs { input main { in of class Data } };
    outputs { outcome done { } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
    task a of taskclass Work {
        implementation { "code" is "refA"; "duration_ms" is "40000" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    task b of taskclass Work {
        implementation { "code" is "refB" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    outputs { outcome done { notification from { task a if output done }; notification from { task b if output done } } }
}
"#;

/// Runs [`LONG_THEN_SHORT`] on one serial executor under
/// `max_retries`, restarting the shard with its executor 50 ms in: `a`
/// runs and `b` is parked behind it. The restart watches both, then its
/// re-send ships `a` and parks `b` again. The instance's status and the
/// retries spent.
fn restart_over_a_parked_sibling(max_retries: u32) -> (InstanceStatus, u64) {
    let config = EngineConfig {
        max_retries,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(1)
        .executor_capacity(1)
        .seed(13)
        .config(config)
        .build();
    sys.register_script("lts", LONG_THEN_SHORT, "root").unwrap();
    for (code, secs) in [("refA", 40), ("refB", 10)] {
        sys.bind_fn(code, move |_| {
            TaskBehavior::outcome("done").with_work(SimDuration::from_secs(secs))
        });
    }
    sys.start("i", "lts", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_millis(50));
    common::restart_with_executors(&mut sys);
    sys.run();
    (sys.status("i").unwrap(), sys.stats().retries)
}

#[test]
fn a_restart_that_parks_a_resent_attempt_spends_no_retry() {
    // A parked attempt holds no watchdog: `b` waits out `a`'s 40 s
    // without timing out at 30 s, exactly as it does with no restart.
    let (status, retries) = restart_over_a_parked_sibling(3);
    assert!(matches!(status, InstanceStatus::Completed(_)), "{status:?}");
    assert_eq!(retries, 0, "`b` never left its shard before `a` ended");
}

#[test]
fn a_restart_that_parks_a_resent_attempt_completes_with_no_retries_to_spend() {
    let (status, retries) = restart_over_a_parked_sibling(0);
    assert!(matches!(status, InstanceStatus::Completed(_)), "{status:?}");
    assert_eq!(retries, 0);
}

// ---------------------------------------------------------------------
// Observed-duration feedback vs lying hints.
// ---------------------------------------------------------------------

/// The probe→liar chain: two tasks share implementation code
/// `refShared` (400ms of real work); the probe declares 400ms honestly,
/// the downstream liar declares 1ms.
const LYING_CHAIN: &str = r#"
class Data;
taskclass Work {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
    task probe of taskclass Work {
        implementation { "code" is "refShared"; "duration_ms" is "400" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    task liar of taskclass Work {
        implementation { "code" is "refShared"; "duration_ms" is "1" };
        inputs { input main { inputobject in from { out of task probe if output done } } }
    };
    outputs { outcome done { notification from { task liar if output done } } }
}
"#;

fn lying_chain_system() -> WorkflowSystem {
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_millis(200),
        retry_backoff: SimDuration::from_millis(50),
        max_retries: 3,
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .executor_capacity(1)
        .seed(21)
        .config(config)
        .build();
    sys.register_script("lying", LYING_CHAIN, "root").unwrap();
    sys.bind_fn("refShared", |_| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(400))
            .with_object("out", text("Data", "d"))
    });
    sys
}

#[test]
fn observed_durations_override_the_lying_watchdog() {
    let mut sys = lying_chain_system();
    sys.start("l1", "lying", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    // The probe's completion teaches the per-code model ~400ms before
    // the liar dispatches; its watchdog stretches to cover the
    // observed duration (never below the declared floor), so the chain
    // completes without a single retry.
    assert_eq!(sys.outcome("l1").expect("chain completes").name, "done");
    assert_eq!(sys.stats().retries, 0);
    assert_eq!(sys.stats().dropped_dispatches, 0);
    assert_eq!(sys.dispatch_trace_of("l1").len(), 2, "one dispatch each");
}

// ---------------------------------------------------------------------
// Equivalence: capacities and feedback are placement, not semantics.
// ---------------------------------------------------------------------

/// Fig. 7 + fig. 8 population under `coordinators` shards; executors
/// stay unbounded so the only degree of freedom the observed-duration
/// feedback can move is *placement*.
fn run_paper_population(coordinators: usize) -> BTreeMap<String, Fingerprint> {
    let mut sys = build(coordinators, det_config());
    let mut names: Vec<String> = (0..6).map(|i| format!("order-{i}")).collect();
    names.extend((0..3).map(|i| format!("trip-{i}")));
    start_population(&mut sys, &names);
    sys.run();
    fingerprints(&mut sys, &names)
}

#[test]
fn feedback_preserves_paper_fingerprints_across_shards() {
    assert_eq!(run_paper_population(1), run_paper_population(4), "shards 4");
}

/// The AND-join fan under explicit executor capacities: outcome, task
/// states and the per-instance dispatch trace must match the
/// unbounded-fleet baseline no matter how hard capacities serialize
/// the fan.
fn run_fan_population(capacities: Option<Vec<u32>>, wave: usize) -> BTreeMap<String, Fingerprint> {
    let (mut sys, names) = run_fan(capacities, wave);
    assert_eq!(sys.stats().dropped_dispatches, 0);
    fingerprints(&mut sys, &names)
}

#[test]
fn capacity_parking_preserves_fan_outcomes() {
    let baseline = run_fan_population(None, 4);
    for caps in [vec![1, 1], vec![1, 2], vec![3, 1], vec![2, 2, 1]] {
        assert_eq!(
            baseline,
            run_fan_population(Some(caps.clone()), 4),
            "capacities {caps:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized capacities (0 = unbounded) over randomized wave
    /// sizes: every instance must complete with a fingerprint
    /// byte-identical to the unbounded baseline.
    #[test]
    fn random_capacities_never_change_fan_outcomes(
        caps in proptest::collection::vec(0u32..4, 1..5),
        wave in 1usize..5,
    ) {
        let baseline = run_fan_population(None, wave);
        let parked = run_fan_population(Some(caps.clone()), wave);
        prop_assert_eq!(&baseline, &parked, "caps {:?} wave {}", caps, wave);
        for (name, (status, trace, _)) in &baseline {
            prop_assert!(status.is_terminal(), "{}: {:?}", name, status);
            prop_assert!(!trace.is_empty(), "{} never dispatched", name);
        }
    }
}
