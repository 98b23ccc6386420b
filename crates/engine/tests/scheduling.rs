//! Load-aware executor scheduling: location constraints, priority
//! ordering, retry relocation, watchdog hint semantics and the
//! comparison with the retired baselines' frozen verdicts (the paper's
//! service-relocation story, §3/§4). The executor-side location guard
//! is tested where it lives (`executor.rs`).

mod common;

use common::{fan_join_source, text, ONE_TASK};
use flowscript_core::samples;
use flowscript_engine::{
    CbState, CommitBatch, EngineConfig, InstanceStatus, ObjectVal, ObserveLevel, TaskBehavior,
    WorkflowSystem,
};
use flowscript_sim::{FaultAction, FaultPlan, NodeId, SimDuration, SimTime};
use flowscript_tx::storage::{FlakyStorage, MemStorage, Storage};
use flowscript_tx::{Shared, StableStore, TxError};

/// Fig. 7 order processing with the `dispatch` task pinned to
/// `location`, exactly as a script author would write it.
fn pinned_order_source(location: &str) -> String {
    samples::ORDER_PROCESSING.replace(
        r#""code" is "refDispatch""#,
        &format!(r#""code" is "refDispatch"; "location" is "{location}""#),
    )
}

// File-local: only `dispatch` takes virtual time here (40ms);
// `common::bind_order` gives every task work.
fn bind_order(sys: &WorkflowSystem) {
    sys.bind_fn("refPaymentAuthorisation", |_| {
        TaskBehavior::outcome("authorised").with_object("paymentInfo", text("PaymentInfo", "p"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable").with_object("stockInfo", text("StockInfo", "s"))
    });
    sys.bind_fn("refDispatch", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_work(SimDuration::from_millis(40))
            .with_object("dispatchNote", text("DispatchNote", "n"))
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
}

fn record_config() -> EngineConfig {
    EngineConfig {
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    }
}

// ---------------------------------------------------------------------
// Location constraints.
// ---------------------------------------------------------------------

#[test]
fn pinned_task_only_ever_dispatches_to_the_matching_executor() {
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .executor_at("warehouse0", "warehouse")
        .seed(11)
        .config(record_config())
        .build();
    let warehouse = *sys.executor_nodes().last().unwrap();
    sys.register_script(
        "order",
        &pinned_order_source("warehouse"),
        "processOrderApplication",
    )
    .unwrap();
    bind_order(&sys);
    for i in 0..8 {
        sys.start(
            &format!("o{i}"),
            "order",
            "main",
            [("order", text("Order", "o"))],
        )
        .unwrap();
    }
    sys.run();
    let mut pinned_dispatches = 0;
    for record in sys.dispatch_trace() {
        if record.path.ends_with("/dispatch") {
            assert_eq!(
                record.executor, warehouse,
                "pinned task ran on {:?} instead of the warehouse executor",
                record.executor
            );
            pinned_dispatches += 1;
        } else {
            // Unpinned tasks are free to use the whole fleet, the
            // placed executor included.
        }
    }
    assert_eq!(pinned_dispatches, 8);
    for i in 0..8 {
        assert_eq!(
            sys.outcome(&format!("o{i}")).expect("completes").name,
            "orderCompleted"
        );
    }
    assert_eq!(sys.stats().dropped_dispatches, 0);
}

#[test]
fn unsatisfiable_location_fails_the_task_diagnosably() {
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(12)
        .config(record_config())
        .build();
    sys.register_script(
        "order",
        &pinned_order_source("mars"),
        "processOrderApplication",
    )
    .unwrap();
    bind_order(&sys);
    sys.start("o1", "order", "main", [("order", text("Order", "o"))])
        .unwrap();
    sys.run();
    let states = sys.task_states("o1");
    match &states["processOrderApplication/dispatch"] {
        CbState::Failed { reason } => {
            assert!(
                reason.contains("no executor registered at location `mars`"),
                "undiagnosable failure: {reason}"
            );
        }
        other => panic!("expected the pinned task to fail, got {other:?}"),
    }
    match sys.status("o1").unwrap() {
        InstanceStatus::Stuck { reason } => {
            assert!(
                reason.contains("mars"),
                "stuck reason lost the pin: {reason}"
            );
        }
        other => panic!("expected stuck, got {other:?}"),
    }
    // The unplaceable task never reached an executor, and no retries
    // were burned on a pin no retry can satisfy.
    assert!(sys
        .dispatch_trace()
        .iter()
        .all(|r| !r.path.ends_with("/dispatch")));
    assert_eq!(sys.stats().retries, 0);
    assert!(sys.stats().failures >= 1);
}

#[test]
fn an_unplaceable_task_does_not_strand_the_sibling_activated_beside_it() {
    // A start activates `paymentAuthorisation` and `checkStock` in one
    // step. The first cannot be placed: its failure must not park the
    // instance `Stuck` under the second, which ships and runs; only
    // when that too is over can nothing more happen.
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(14)
        .config(record_config())
        .build();
    let pinned = samples::ORDER_PROCESSING.replace(
        r#""code" is "refPaymentAuthorisation""#,
        r#""code" is "refPaymentAuthorisation"; "location" is "mars""#,
    );
    sys.register_script("order", &pinned, "processOrderApplication")
        .unwrap();
    bind_order(&sys);
    sys.start("o1", "order", "main", [("order", text("Order", "o"))])
        .unwrap();
    // Published: the sibling is on the wire, so the instance still runs.
    let states = sys.task_states("o1");
    let authorisation = &states["processOrderApplication/paymentAuthorisation"];
    assert!(
        matches!(authorisation, CbState::Failed { .. }),
        "{authorisation:?}"
    );
    let stock = &states["processOrderApplication/checkStock"];
    assert!(matches!(stock, CbState::Executing { .. }), "{stock:?}");
    assert_eq!(sys.status("o1").unwrap(), InstanceStatus::Running);
    sys.run();
    let states = sys.task_states("o1");
    let stock = &states["processOrderApplication/checkStock"];
    assert!(matches!(stock, CbState::Done { .. }), "{stock:?}");
    match sys.status("o1").unwrap() {
        InstanceStatus::Stuck { reason } => assert!(reason.contains("mars"), "{reason}"),
        other => panic!("expected stuck, got {other:?}"),
    }
    let shipped: Vec<String> = sys.dispatch_trace().into_iter().map(|r| r.path).collect();
    assert_eq!(shipped, ["processOrderApplication/checkStock"]);
}

/// A disk that refuses its `refuse`-th append (counting from 1), once,
/// and takes every other.
struct RefusesNth {
    disk: MemStorage,
    appends: u32,
    refuse: u32,
}

impl Storage for RefusesNth {
    fn append(&mut self, bytes: &[u8]) -> Result<(), TxError> {
        self.appends += 1;
        if self.appends == self.refuse {
            return Err(TxError::Storage("refused append".into()));
        }
        self.disk.append(bytes)
    }

    fn read_all(&self) -> Result<Vec<u8>, TxError> {
        self.disk.read_all()
    }

    fn truncate(&mut self, len: u64) -> Result<(), TxError> {
        self.disk.truncate(len)
    }

    fn len(&self) -> u64 {
        self.disk.len()
    }
}

#[test]
fn a_failed_placement_that_cannot_commit_is_timed_out_and_failed() {
    // The start commits, `paymentAuthorisation` cannot be placed, and
    // the step that fails it is refused by the disk. The task stays
    // `Executing` with nothing on the wire: the watchdog re-armed by the
    // rolled-back step times it out, the retry cannot be placed either,
    // and that failure commits — the instance is not left `Running`
    // with no flight and no timer.
    let disk = RefusesNth {
        disk: MemStorage::new(),
        appends: 0,
        refuse: 2,
    };
    let storage: StableStore = Shared::from(disk).into();
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(14)
        .config(record_config())
        .shard_storages(vec![storage])
        .build();
    let pinned = samples::ORDER_PROCESSING.replace(
        r#""code" is "refPaymentAuthorisation""#,
        r#""code" is "refPaymentAuthorisation"; "location" is "mars""#,
    );
    sys.register_script("order", &pinned, "processOrderApplication")
        .unwrap();
    bind_order(&sys);
    sys.start("o1", "order", "main", [("order", text("Order", "o"))])
        .unwrap();
    let states = sys.task_states("o1");
    let authorisation = &states["processOrderApplication/paymentAuthorisation"];
    assert!(
        matches!(authorisation, CbState::Executing { .. }),
        "the failure did not commit: {authorisation:?}"
    );
    sys.run();
    let states = sys.task_states("o1");
    match &states["processOrderApplication/paymentAuthorisation"] {
        CbState::Failed { reason } => assert!(reason.contains("mars"), "{reason}"),
        other => panic!("expected the task failed, got {other:?}"),
    }
    match sys.status("o1").unwrap() {
        InstanceStatus::Stuck { reason } => assert!(reason.contains("mars"), "{reason}"),
        other => panic!("expected stuck, got {other:?}"),
    }
    assert!(sys.is_quiescent());
}

#[test]
fn a_report_dropped_after_its_watchdog_fired_is_timed_out_again() {
    // `w0` reports at ≈ 399 ms into a window that waits for `w1`; its
    // watchdog fires at ≈ 400 ms and stands down, since the report sits
    // in the window. At ≈ 1.4 s the window's timer flushes into a disk
    // that refuses from 1.0 s to 1.5 s, and the window of one rolls
    // back, dropping the report. The rolled-back step arms `w0` a
    // watchdog again: it times the attempt out once the disk is back,
    // the retry completes, and `f` is not left `Running` with `w0`
    // `Executing` and nothing armed.
    let disk = FlakyStorage::default();
    let fail = disk.fail.clone();
    let storage: StableStore = Shared::from(disk).into();
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_millis(400),
        commit_batch: CommitBatch {
            max_events: 64,
            max_window: SimDuration::from_secs(1),
        },
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .seed(1)
        .config(config)
        .shard_storages(vec![storage])
        .build();
    let source = fan_join_source(2, |i| (i == 1).then_some(3000));
    sys.register_script("fan", &source, "root").unwrap();
    for (i, ms) in [399, 3000].into_iter().enumerate() {
        sys.bind_fn(&format!("refW{i}"), move |_| {
            TaskBehavior::outcome("done").with_work(SimDuration::from_millis(ms))
        });
    }
    for (at_ms, refuse) in [(1000, true), (1500, false)] {
        let at = SimTime::from_nanos(at_ms * 1_000_000);
        let flip = FaultAction::Switch(fail.clone(), refuse);
        sys.apply_faults(&FaultPlan::new().at(at, flip));
    }
    sys.start("f", "fan", "main", [("seed", text("Data", "d"))])
        .unwrap();
    sys.run();
    let states = sys.task_states("f");
    assert!(
        matches!(states["root/w0"], CbState::Done { .. }),
        "{:?}",
        states["root/w0"]
    );
    assert_eq!(sys.outcome("f").expect("completes").name, "done");
    let stats = sys.stats();
    assert_eq!((stats.retries, stats.dispatches), (1, 3));
    // The retry finished well inside `w1`'s 3 s of work.
    assert!(
        sys.now() < SimTime::from_nanos(3_010_000_000),
        "{:?}",
        sys.now()
    );
}

/// A cancel goes out only once the step that drops its attempt
/// commits. `checkStock` finds no stock at ≈ 6 ms while
/// `paymentAuthorisation` has a second of work ahead: the step applying
/// that report cancels the order, and with it the authorisation where it
/// runs. With the disk refusing every append from 4 ms to 100 ms, that
/// step rolls back, and sends nothing; the order is cancelled later,
/// once the watchdog has brought `checkStock` back.
#[test]
fn a_rolled_back_step_cancels_nothing() {
    // (cancels, aborted actions) by 100 ms, the disk refusing from 4 ms
    // when `refuse`.
    let cancels_by_100_ms = |refuse: bool| {
        let disk = FlakyStorage::default();
        let fail = disk.fail.clone();
        let storage: StableStore = Shared::from(disk).into();
        let mut sys = WorkflowSystem::builder()
            .seed(5)
            .shard_storages(vec![storage])
            .build();
        sys.register_script(
            "order",
            samples::ORDER_PROCESSING,
            "processOrderApplication",
        )
        .unwrap();
        sys.bind_fn("refPaymentAuthorisation", |_| {
            TaskBehavior::outcome("authorised")
                .with_work(SimDuration::from_secs(1))
                .with_object("paymentInfo", text("PaymentInfo", "p"))
        });
        sys.bind_fn("refCheckStock", |_| {
            TaskBehavior::outcome("stockNotAvailable").with_work(SimDuration::from_millis(5))
        });
        let at = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
        for (at_ms, refused) in [(4, refuse), (100, false)] {
            let flip = FaultAction::Switch(fail.clone(), refused);
            sys.apply_faults(&FaultPlan::new().at(at(at_ms), flip));
        }
        sys.start("o1", "order", "main", [("order", text("Order", "o"))])
            .unwrap();
        sys.run_until(at(100));
        let by_100_ms = (
            sys.stats().cancels,
            sys.metrics_snapshot().counter("tx.aborts"),
        );
        sys.run();
        assert_eq!(sys.outcome("o1").expect("settles").name, "orderCancelled");
        by_100_ms
    };
    assert_eq!(
        cancels_by_100_ms(false),
        (1, 0),
        "the committed step's cancel"
    );
    let (cancels, aborts) = cancels_by_100_ms(true);
    assert!(aborts > 0, "the step applying the report rolled back");
    assert_eq!(cancels, 0, "a rolled-back step sent a cancel");
}

#[test]
fn pinned_executor_crash_retries_in_place_and_recovers() {
    // The pinned executor crashes mid-flight; the retry has no
    // eligible alternative (the pin matches exactly one node), is
    // counted as such, lands back on the pinned node and completes
    // once the node returns.
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_millis(300),
        retry_backoff: SimDuration::from_millis(50),
        max_retries: 5,
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .executor_at("warehouse0", "warehouse")
        .seed(13)
        .config(config)
        .build();
    let warehouse = *sys.executor_nodes().last().unwrap();
    sys.register_script(
        "order",
        &pinned_order_source("warehouse"),
        "processOrderApplication",
    )
    .unwrap();
    bind_order(&sys);
    sys.start("o1", "order", "main", [("order", text("Order", "o"))])
        .unwrap();
    // Let the pinned dispatch get in flight, then kill its executor.
    sys.run_until(SimTime::from_nanos(20_000_000));
    sys.crash_now(warehouse);
    sys.run_until(SimTime::from_nanos(500_000_000));
    sys.restart_now(warehouse);
    sys.run();
    assert_eq!(sys.outcome("o1").expect("completes").name, "orderCompleted");
    let pinned: Vec<(u32, NodeId)> = sys
        .dispatch_trace()
        .iter()
        .filter(|r| r.path.ends_with("/dispatch"))
        .map(|r| (r.attempt, r.executor))
        .collect();
    assert!(pinned.len() >= 2, "expected a retry, got {pinned:?}");
    assert!(
        pinned.iter().all(|&(_, node)| node == warehouse),
        "pinned retries must stay on the pinned node: {pinned:?}"
    );
    assert!(
        sys.stats().no_alternative_retries >= 1,
        "no-alternative retries must be counted: {:?}",
        sys.stats()
    );
}

#[test]
fn a_restarted_executor_frees_the_slots_of_the_work_it_lost() {
    // One serial executor serves two shards. `a`'s 1 s task dies with
    // the executor at 100 ms, and the executor is back at 200 ms. At
    // 300 ms `b`'s shard, which never saw the executor loaded, dispatches
    // `b` there at once: it must run then, not queue behind the slot
    // `a`'s lost task held.
    let mut sys = WorkflowSystem::builder()
        .executors_weighted(vec![1])
        .coordinators(2)
        .seed(3)
        .build();
    sys.register_script("one", ONE_TASK, "root").unwrap();
    sys.bind_fn("refWork", |ctx| {
        let work = if ctx.input_text("in") == "slow" {
            1_000
        } else {
            10
        };
        TaskBehavior::outcome("done").with_work(SimDuration::from_millis(work))
    });
    let on_shard = |shard| {
        (0..)
            .map(|i| format!("i{i}"))
            .find(|name| sys.shard_of(name) == shard)
            .expect("some name on each shard")
    };
    let (a, b) = (on_shard(0), on_shard(1));
    let executor = sys.executor_nodes()[0];
    let at = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
    sys.start(&a, "one", "main", [("seed", text("Data", "slow"))])
        .unwrap();
    sys.run_until(at(100));
    sys.crash_now(executor);
    sys.run_until(at(200));
    sys.restart_now(executor);
    sys.run_until(at(300));
    sys.start(&b, "one", "main", [("seed", text("Data", "fast"))])
        .unwrap();
    sys.run_for(SimDuration::from_millis(100));
    assert!(
        matches!(sys.status(&b), Ok(InstanceStatus::Completed(_))),
        "`b` queued behind work its executor lost: {:?} at {:?}",
        sys.status(&b),
        sys.now()
    );
}

// ---------------------------------------------------------------------
// Retry relocation.
// ---------------------------------------------------------------------

/// A system whose single leaf stalls past the watchdog on attempt 0
/// and completes instantly on later attempts, on `executors` executors
/// of `capacity` slots each (`0`: unbounded).
fn flaky_first_attempt(executors: usize, capacity: u32, seed: u64) -> WorkflowSystem {
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_millis(200),
        retry_backoff: SimDuration::from_millis(20),
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut builder = WorkflowSystem::builder().seed(seed).config(config);
    builder = builder.executors(executors).executor_capacity(capacity);
    let mut sys = builder.build();
    sys.register_script("q", samples::QUICKSTART, "pipeline")
        .unwrap();
    sys.bind_fn("refProduce", |ctx| {
        let behavior = TaskBehavior::outcome("produced")
            .with_object("message", ObjectVal::text("Message", "m"));
        if ctx.attempt == 0 {
            // Stall far past the watchdog: this attempt is lost.
            behavior.with_work(SimDuration::from_secs(3600))
        } else {
            behavior
        }
    });
    sys.bind_fn("refConsume", |_| {
        TaskBehavior::outcome("consumed").with_object("result", ObjectVal::text("Message", "r"))
    });
    sys
}

#[test]
fn watchdog_retry_relocates_whenever_an_alternative_exists() {
    let mut sys = flaky_first_attempt(3, 0, 21);
    sys.start("i1", "q", "main", [("seed", text("Message", "s"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("i1").expect("completes").name, "done");
    let produce: Vec<(u32, NodeId)> = sys
        .dispatch_trace()
        .iter()
        .filter(|r| r.path == "pipeline/produce")
        .map(|r| (r.attempt, r.executor))
        .collect();
    assert!(produce.len() >= 2, "expected a retry: {produce:?}");
    assert_ne!(
        produce[0].1, produce[1].1,
        "the retry must move off the failed node when an alternative exists"
    );
    assert_eq!(sys.stats().no_alternative_retries, 0);
}

#[test]
fn single_executor_retry_is_detected_not_silent() {
    // With one executor the old `(hash + attempt) % 1` silently
    // re-picked the failed node while claiming relocation; the
    // scheduler now counts the no-alternative retry.
    let mut sys = flaky_first_attempt(1, 0, 22);
    sys.start("i1", "q", "main", [("seed", text("Message", "s"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("i1").expect("completes").name, "done");
    let produce: Vec<(u32, NodeId)> = sys
        .dispatch_trace()
        .iter()
        .filter(|r| r.path == "pipeline/produce")
        .map(|r| (r.attempt, r.executor))
        .collect();
    assert!(produce.len() >= 2, "expected a retry: {produce:?}");
    assert_eq!(produce[0].1, produce[1].1, "nowhere else to go");
    assert!(
        sys.stats().no_alternative_retries >= 1,
        "the stuck-in-place retry must be counted: {:?}",
        sys.stats()
    );
}

/// A watchdog that gives up on an attempt cancels it where it runs: on
/// a serial executor the abandoned hour of work gives its slot back, and
/// the retry runs at once instead of queueing behind it.
#[test]
fn a_retry_does_not_queue_behind_its_own_abandoned_attempt() {
    let mut sys = flaky_first_attempt(1, 1, 23);
    sys.start("i1", "q", "main", [("seed", text("Message", "s"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("i1").expect("completes").name, "done");
    let stats = sys.stats();
    assert_eq!((stats.retries, stats.cancels), (1, 1));
    // The 200 ms watchdog, the 20 ms back-off and the retry's work: far
    // from the hour attempt 0 held its slot for.
    assert!(
        sys.now() < SimTime::from_nanos(1_000_000_000),
        "the retry queued behind its abandoned attempt: done at {:?}",
        sys.now()
    );
}

// ---------------------------------------------------------------------
// Watchdog hint semantics (the duration/deadline satellite fix).
// ---------------------------------------------------------------------

#[test]
fn deadline_caps_the_watchdog_instead_of_extending_it() {
    // duration_ms extends the base timeout, deadline_ms caps the
    // result: with base 1000 + duration 1000 capped at deadline 2000
    // the watchdog fires at 2s. The old code summed all three and
    // fired at 4s.
    let source = r#"
class Data;
taskclass Slow {
    inputs { input main { in of class Data } };
    outputs { outcome done { } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
    task slow of taskclass Slow {
        implementation {
            "code" is "refSlow";
            "duration_ms" is "1000";
            "deadline_ms" is "2000"
        };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    outputs { outcome done { notification from { task slow if output done } } }
}
"#;
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_millis(1000),
        max_retries: 0,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(31)
        .config(config)
        .build();
    sys.register_script("slow", source, "root").unwrap();
    // The implementation never finishes inside the deadline.
    sys.bind_fn("refSlow", |_| {
        TaskBehavior::outcome("done").with_work(SimDuration::from_secs(3600))
    });
    sys.start("s1", "slow", "main", [("seed", text("Data", "d"))])
        .unwrap();
    // Before the 2s deadline the task is still executing…
    sys.run_until(SimTime::from_nanos(1_900_000_000));
    assert!(
        matches!(
            sys.task_states("s1")["root/slow"],
            CbState::Executing { .. }
        ),
        "watchdog fired before the capped timeout"
    );
    // …and shortly after it has failed — not at 4s as the summed
    // timeout would have it.
    sys.run_until(SimTime::from_nanos(2_500_000_000));
    assert!(
        matches!(sys.task_states("s1")["root/slow"], CbState::Failed { .. }),
        "watchdog must fire at the deadline cap, state {:?}",
        sys.task_states("s1")["root/slow"]
    );
}

// ---------------------------------------------------------------------
// Priority ordering.
// ---------------------------------------------------------------------

#[test]
fn priority_orders_ready_tasks_contending_for_executors() {
    // Three tasks become ready in the same commit; declaration order
    // is low, high, mid but the declared priorities must win.
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
    let mut sys = WorkflowSystem::builder()
        .executors(1)
        .seed(41)
        .config(record_config())
        .build();
    sys.register_script("prio", source, "root").unwrap();
    sys.bind_fn("refWork", |_| TaskBehavior::outcome("done"));
    sys.start("p1", "prio", "main", [("seed", text("Data", "d"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("p1").expect("completes").name, "done");
    let order: Vec<String> = sys.dispatch_trace().into_iter().map(|r| r.path).collect();
    assert_eq!(
        order,
        vec![
            "root/high".to_string(),
            "root/mid".to_string(),
            "root/low".to_string()
        ],
        "dispatch order must follow declared priority"
    );
}

// ---------------------------------------------------------------------
// The scheduler vs its retired baselines (deterministic, virtual time).
// ---------------------------------------------------------------------

/// What the retired path-hash baseline (hash of the task path plus the
/// attempt, hints and load ignored) rendered on
/// `skew_makespan(4, 51, false, 12)` at the last commit that had it.
const PATH_HASH_SKEW_NS: u64 = 5_402_830_819;
/// What retired count-based least-loaded (every dispatch weighs one
/// unit, whatever duration it declares) rendered on
/// `skew_makespan(2, 52, true, 8)` at the last commit that had it.
const COUNT_BASED_HINTED_SKEW_NS: u64 = 2_637_117_372;

/// Runs `instances` 6-way fans with heavily skewed work (`w0` 400 ms,
/// the rest 50 ms — declared as `duration_ms` when `hinted`) on
/// `executors` serial executors and returns the virtual makespan: load
/// imbalance shows up directly in it.
fn skew_makespan(executors: usize, seed: u64, hinted: bool, instances: usize) -> SimDuration {
    let width = 6;
    let work_ms = |i: usize| if i == 0 { 400 } else { 50 };
    let config = EngineConfig {
        // Serial queues stretch latencies; keep watchdogs out of it.
        dispatch_timeout: SimDuration::from_secs(3600),
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(executors)
        .executor_capacity(1)
        .seed(seed)
        .config(config)
        .trace(false)
        .build();
    let source = fan_join_source(width, |i| hinted.then(|| work_ms(i)));
    sys.register_script("skew", &source, "root").unwrap();
    for i in 0..width {
        let work = SimDuration::from_millis(work_ms(i));
        sys.bind_fn(&format!("refW{i}"), move |_| {
            TaskBehavior::outcome("done").with_work(work)
        });
    }
    for i in 0..instances {
        sys.start(
            &format!("wave-{i}"),
            "skew",
            "main",
            [("seed", text("Data", "d"))],
        )
        .unwrap();
    }
    sys.run();
    for i in 0..instances {
        assert_eq!(
            sys.outcome(&format!("wave-{i}")).expect("completes").name,
            "done"
        );
    }
    for shard in 0..sys.shard_count() {
        assert!(
            sys.executor_loads(shard)
                .iter()
                .all(|s| s.in_flight == 0 && s.remaining == 0),
            "load and remaining-work counters must drain"
        );
    }
    assert_eq!(sys.stats().dropped_dispatches, 0);
    sys.now().since(SimTime::ZERO)
}

#[test]
fn least_loaded_beats_the_hash_baseline_under_skewed_durations() {
    let scheduled = skew_makespan(4, 51, false, 12).as_nanos();
    assert!(
        scheduled < PATH_HASH_SKEW_NS,
        "least-loaded ({scheduled} ns) must beat the path hash on skewed durations"
    );
}

#[test]
fn remaining_work_never_loses_to_count_based_least_loaded_on_skewed_durations() {
    // Both policies saw the same declared durations; only the weighted
    // one uses them. With declared capacities the coordinator parks
    // instead of overcommitting, so both converged on the greedy
    // earliest-free-slot schedule — the weighted projection cannot
    // *lose*, which is what this guards.
    let weighted = skew_makespan(2, 52, true, 8).as_nanos();
    assert!(
        weighted <= COUNT_BASED_HINTED_SKEW_NS,
        "remaining-work ({weighted} ns) must never lose to count-based on skewed durations"
    );
}

// ---------------------------------------------------------------------
// Sharded scheduling: every shard schedules over the shared fleet.
// ---------------------------------------------------------------------

#[test]
fn sharded_coordinators_honor_pins_with_their_own_load_views() {
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .executor_at("warehouse0", "warehouse")
        .coordinators(4)
        .seed(71)
        .config(record_config())
        .build();
    let warehouse = *sys.executor_nodes().last().unwrap();
    sys.register_script(
        "order",
        &pinned_order_source("warehouse"),
        "processOrderApplication",
    )
    .unwrap();
    bind_order(&sys);
    let mut shards_used = std::collections::BTreeSet::new();
    for i in 0..16 {
        let name = format!("o{i}");
        shards_used.insert(sys.shard_of(&name));
        sys.start(&name, "order", "main", [("order", text("Order", "o"))])
            .unwrap();
    }
    sys.run();
    assert!(shards_used.len() > 1, "population should span shards");
    for i in 0..16 {
        assert_eq!(
            sys.outcome(&format!("o{i}")).expect("completes").name,
            "orderCompleted"
        );
    }
    for record in sys.dispatch_trace() {
        if record.path.ends_with("/dispatch") {
            assert_eq!(record.executor, warehouse);
        }
    }
    // Each shard kept its own (now drained) load view.
    for shard in 0..sys.shard_count() {
        assert!(sys.executor_loads(shard).iter().all(|s| s.in_flight == 0));
    }
    assert_eq!(sys.stats().dropped_dispatches, 0);
}
