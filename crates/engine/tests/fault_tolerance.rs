//! System-level fault tolerance (paper §3): tasks eventually receive
//! their inputs and notifications despite processor crashes and temporary
//! network failures; aborts caused by system problems are retried a
//! finite number of times; the coordinator recovers all state from its
//! write-ahead log.

mod common;

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use common::text;
use flowscript_core::samples;
use flowscript_engine::{
    CbState, EngineConfig, EngineError, InstanceStatus, ObjectVal, ObserveLevel, TaskBehavior,
    WorkflowSystem,
};
use flowscript_sim::{FaultAction, FaultPlan, SimDuration, SimTime};
use flowscript_tx::{StableStore, Storage, TxError, TxManager};

/// Binds a chain-of-N workload generated by `samples::chain`.
fn chain_system(n: usize, seed: u64, config: EngineConfig) -> WorkflowSystem {
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .seed(seed)
        .config(config)
        .build();
    sys.register_script("chain", &samples::chain(n), "root")
        .unwrap();
    for i in 0..n {
        sys.bind_fn(
            &format!("ref{i}"),
            move |ctx: &flowscript_engine::InvokeCtx| {
                TaskBehavior::outcome("done")
                    .with_work(SimDuration::from_millis(20))
                    .with_object(
                        "out",
                        ObjectVal::text("Data", format!("{}+s{i}", ctx.input_text("in"))),
                    )
            },
        );
    }
    sys
}

fn snappy_config() -> EngineConfig {
    EngineConfig {
        dispatch_timeout: SimDuration::from_millis(500),
        retry_backoff: SimDuration::from_millis(20),
        ..EngineConfig::default()
    }
}

#[test]
fn executor_crash_retries_on_another_node() {
    let mut sys = chain_system(6, 7, snappy_config());
    // Crash executor 0 early; it hosts some of the chain's tasks.
    let victim = sys.executor_nodes()[0];
    FaultPlan::new()
        .at(SimTime::from_nanos(10_000_000), FaultAction::Crash(victim))
        .apply(sys.world_mut());
    sys.start("c1", "chain", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    let outcome = sys.outcome("c1").expect("chain completes despite crash");
    assert_eq!(outcome.objects["out"].as_text(), "s+s0+s1+s2+s3+s4+s5");
    assert!(
        sys.stats().retries > 0,
        "the watchdog must have retried at least one dispatch: {:?}",
        sys.stats()
    );
}

#[test]
fn temporary_partition_heals_and_completes() {
    let mut config = snappy_config();
    config.max_retries = 8;
    let mut sys = chain_system(4, 8, config);
    let coordinator = sys.coordinator_node();
    let executors = sys.executor_nodes().to_vec();
    // Partition the coordinator from every executor for ~1.2 virtual
    // seconds; watchdog retries bridge the gap once it heals.
    FaultPlan::new()
        .at(
            SimTime::from_nanos(5_000_000),
            FaultAction::Partition(vec![coordinator], executors),
        )
        .at(SimTime::from_nanos(1_200_000_000), FaultAction::HealAll)
        .apply(sys.world_mut());
    sys.start("c1", "chain", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert!(
        sys.outcome("c1").is_some(),
        "status: {:?}",
        sys.status("c1")
    );
}

#[test]
fn unhealing_partition_exhausts_retries_and_reports() {
    // The paper's pathological case: "a network partition that is not
    // healing" must surface as a failure exception, not hang.
    let mut sys = chain_system(3, 9, snappy_config());
    let coordinator = sys.coordinator_node();
    let executors = sys.executor_nodes().to_vec();
    FaultPlan::new()
        .at(
            SimTime::from_nanos(1_000_000),
            FaultAction::Partition(vec![coordinator], executors),
        )
        .apply(sys.world_mut());
    sys.start("c1", "chain", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    match sys.status("c1").unwrap() {
        InstanceStatus::Stuck { reason } => {
            assert!(reason.contains("failed"), "{reason}");
        }
        other => panic!("expected stuck, got {other:?}"),
    }
    assert!(sys.stats().failures >= 1);
}

#[test]
fn coordinator_crash_recovers_from_wal_and_completes() {
    let mut sys = chain_system(8, 10, snappy_config());
    let coordinator = sys.coordinator_node();
    // Crash the coordinator mid-run, restart shortly after; its restart
    // hook replays the write-ahead log.
    FaultPlan::crash_restart(
        coordinator,
        SimTime::from_nanos(60_000_000),
        SimDuration::from_millis(200),
    )
    .apply(sys.world_mut());
    sys.start("c1", "chain", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_until(SimTime::from_nanos(260_000_000));
    common::assert_quiescent(&mut sys, "after the restart");
    sys.run();
    let outcome = sys
        .outcome("c1")
        .unwrap_or_else(|| panic!("chain must finish after recovery: {:?}", sys.status("c1")));
    assert_eq!(
        outcome.objects["out"].as_text(),
        "s+s0+s1+s2+s3+s4+s5+s6+s7"
    );
    assert!(
        sys.stats().recovered_instances >= 1,
        "recovery must have run: {:?}",
        sys.stats()
    );
}

/// A restart's re-send spends no retry (nor does a repeat): only
/// retries count against `max_retries`. One 100 ms leaf, its
/// coordinator restarted three times 20 ms apart, each time with the
/// executors, so that nothing claims the attempt and each restart
/// re-sends it — attempt 0 every time — and then its implementation
/// unbound: every attempt from the last re-send on is an execution
/// error, and the task still gets its three retries before it fails.
#[test]
fn restarts_spend_no_retry() {
    let mut sys = WorkflowSystem::builder().seed(1).build();
    let source = common::fan_join_source(1, |_| None);
    sys.register_script("fan", &source, "root").unwrap();
    sys.bind_fn("refW0", |_| {
        TaskBehavior::outcome("done").with_work(SimDuration::from_millis(100))
    });
    sys.start("f", "fan", "main", [("seed", text("Data", "d"))])
        .unwrap();
    for round in 1..=3 {
        sys.run_until(SimTime::from_nanos(round * 20_000_000));
        common::restart_with_executors(&mut sys);
    }
    assert!(sys.unbind("refW0"));
    sys.run();
    let states = sys.task_states("f");
    assert!(
        matches!(&states["root/w0"], CbState::Failed { reason } if reason.contains("refW0")),
        "{:?}",
        states["root/w0"]
    );
    let stats = sys.stats();
    assert_eq!((stats.recovered_instances, stats.retries), (3, 3));
    assert_eq!((stats.resent, stats.failures), (3, 1));
}

/// A QUICKSTART pipeline on one executor: `produce` takes `produce_ms`
/// of work and is counted each time it starts, `consume` takes
/// `consume_ms`.
fn counted_pipeline(produce_ms: u64, consume_ms: u64) -> (WorkflowSystem, Arc<AtomicU32>) {
    let config = EngineConfig {
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(1)
        .seed(1)
        .config(config)
        .build();
    sys.register_script("q", samples::QUICKSTART, "pipeline")
        .unwrap();
    let starts = Arc::new(AtomicU32::new(0));
    let counted = starts.clone();
    sys.bind_fn("refProduce", move |_| {
        counted.fetch_add(1, Ordering::Relaxed);
        let work = SimDuration::from_millis(produce_ms);
        let made = TaskBehavior::outcome("produced").with_work(work);
        made.with_object("message", text("Message", "m"))
    });
    sys.bind_fn("refConsume", move |_| {
        let work = SimDuration::from_millis(consume_ms);
        let used = TaskBehavior::outcome("consumed").with_work(work);
        used.with_object("result", text("Message", "r"))
    });
    sys.start("i", "q", "main", [("seed", text("Message", "s"))])
        .unwrap();
    (sys, starts)
}

/// The attempt numbers `instance`'s task at `path` was dispatched under.
fn attempts(sys: &WorkflowSystem, instance: &str, path: &str) -> Vec<u32> {
    let sent = sys.dispatch_trace_of(instance).into_iter();
    let sent = sent.filter(|record| record.path == path);
    sent.map(|record| record.attempt).collect()
}

/// The attempts running at the executors.
fn running(sys: &WorkflowSystem) -> usize {
    let executors = sys.running_attempts().into_iter();
    executors.map(|(_, running)| running).sum()
}

/// The work a restart finds running is not run again: `produce`'s 10 s
/// attempt, running when the shard restarts, is claimed by the census
/// where it runs. Its executor saw one `StartTask`, its report is
/// applied at attempt 0, and no retry is spent.
#[test]
fn an_attempt_running_across_a_restart_runs_once() {
    let (mut sys, starts) = counted_pipeline(10_000, 0);
    sys.run_for(SimDuration::from_millis(5));
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    common::restart_checked(&mut sys, coordinator);
    sys.run();
    assert_eq!(sys.outcome("i").expect("completes").name, "done");
    assert_eq!(
        starts.load(Ordering::Relaxed),
        1,
        "one `StartTask` at the executor"
    );
    assert_eq!(attempts(&sys, "i", "pipeline/produce"), [0]);
    let blocks = sys.coord_handle(0).get().task_blocks("i");
    let produce = &blocks["pipeline/produce"];
    assert!(matches!(produce.state, CbState::Done { .. }), "{produce:?}");
    assert_eq!(produce.attempt, 0);
    let stats = sys.stats();
    assert_eq!(
        (stats.census_claimed, stats.resent, stats.retries),
        (1, 0, 0)
    );
    assert!(
        sys.now() < SimTime::from_nanos(10_100_000_000),
        "{:?}",
        sys.now()
    );
}

/// An executor down at the restart cannot answer the census: its call
/// times out, and the attempt it held is re-sent then — here to the
/// same executor, up again by then — and finishes long before a
/// watchdog (30 s) would have noticed it was lost.
#[test]
fn a_census_call_to_a_down_executor_times_out_and_the_attempt_is_re_sent() {
    let (mut sys, starts) = counted_pipeline(50, 0);
    sys.run_for(SimDuration::from_millis(5));
    let (coordinator, executor) = (sys.coordinator_node(), sys.executor_nodes()[0]);
    sys.crash_now(coordinator);
    sys.crash_now(executor);
    common::restart_checked(&mut sys, coordinator);
    sys.run_for(SimDuration::from_millis(50));
    sys.restart_now(executor);
    sys.run();
    assert_eq!(sys.outcome("i").expect("completes").name, "done");
    assert!(
        sys.now() < SimTime::from_nanos(300_000_000),
        "{:?}",
        sys.now()
    );
    assert_eq!(starts.load(Ordering::Relaxed), 2, "shipped, then re-sent");
    assert_eq!(attempts(&sys, "i", "pipeline/produce"), [0, 0]);
    let stats = sys.stats();
    assert_eq!(
        (stats.census_claimed, stats.resent, stats.retries),
        (0, 1, 0)
    );
}

/// A report from a copy the shard did not charge cancels the copy it
/// did: the restart's census is lost to a partition, so it re-sends
/// `produce`'s 10 s attempt beside the copy still running. That copy
/// reports first, under an earlier life's ticket; its report is applied,
/// and the re-sent copy draws one `Cancel`, which ends it.
#[test]
fn a_report_from_an_uncharged_copy_cancels_the_charged_one() {
    let (mut sys, starts) = counted_pipeline(10_000, 10_000);
    sys.run_for(SimDuration::from_millis(5));
    let (coordinator, executor) = (sys.coordinator_node(), sys.executor_nodes()[0]);
    sys.crash_now(coordinator);
    sys.world_mut().partition(&[coordinator], &[executor]);
    common::restart_checked(&mut sys, coordinator);
    sys.world_mut().heal_all();
    sys.run_until(SimTime::from_nanos(10_050_000_000));
    assert_eq!(starts.load(Ordering::Relaxed), 2, "shipped, then re-sent");
    assert!(matches!(
        sys.task_states("i")["pipeline/consume"],
        CbState::Executing { .. }
    ));
    assert_eq!(running(&sys), 1, "`consume`: the re-sent copy ended");
    assert_eq!(sys.stats().cancels, 1);
    sys.run();
    assert_eq!(sys.outcome("i").expect("completes").name, "done");
    assert_eq!(attempts(&sys, "i", "pipeline/produce"), [0, 0]);
    assert_eq!((sys.stats().cancels, sys.stats().retries), (1, 0));
}

/// A census cancels what an earlier life left running: the first
/// restart's census is lost to a partition, so it re-sends `produce`'s
/// 10 s attempt beside the copy still running. The first copy's report
/// is applied, and the `Cancel` of the re-sent copy is lost to a second
/// partition, with `consume`'s start: the re-sent copy runs on with
/// nothing awaiting it. The next restart's census lists it alone: it
/// draws one `Cancel`, which ends it, and `consume` is re-sent.
#[test]
fn a_census_cancels_an_orphan_an_earlier_life_left() {
    let (mut sys, starts) = counted_pipeline(10_000, 10_000);
    sys.run_for(SimDuration::from_millis(5));
    let (coordinator, executor) = (sys.coordinator_node(), sys.executor_nodes()[0]);
    sys.crash_now(coordinator);
    sys.world_mut().partition(&[coordinator], &[executor]);
    common::restart_checked(&mut sys, coordinator);
    sys.world_mut().heal_all();
    // The first copy's report leaves the executor: what the shard
    // sends once it is applied is lost.
    sys.run_until(SimTime::from_nanos(10_000_000_000));
    while running(&sys) == 2 {
        sys.run_for(SimDuration::from_micros(10));
    }
    sys.world_mut().partition(&[coordinator], &[executor]);
    sys.run_for(SimDuration::from_millis(1));
    sys.world_mut().heal_all();
    sys.run_until(SimTime::from_nanos(10_050_000_000));
    assert_eq!(starts.load(Ordering::Relaxed), 2, "shipped, then re-sent");
    assert!(matches!(
        sys.task_states("i")["pipeline/consume"],
        CbState::Executing { .. }
    ));
    assert_eq!(running(&sys), 1, "the orphan, and no `consume`");
    assert_eq!(sys.stats().cancels, 1);
    sys.crash_now(coordinator);
    common::restart_checked(&mut sys, coordinator);
    sys.run_for(SimDuration::from_millis(5));
    assert_eq!(running(&sys), 1, "the orphan ended, `consume` re-sent");
    let stats = sys.stats();
    assert_eq!(
        (stats.cancels, stats.census_claimed, stats.resent),
        (2, 0, 2)
    );
    sys.run();
    assert_eq!(sys.outcome("i").expect("completes").name, "done");
    assert_eq!(attempts(&sys, "i", "pipeline/consume"), [0, 0]);
    assert_eq!(sys.stats().retries, 0);
}

#[test]
fn coordinator_crash_during_order_processing_preserves_exactly_one_outcome() {
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .seed(11)
        .config(snappy_config())
        .build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    sys.bind_fn("refPaymentAuthorisation", |_| {
        TaskBehavior::outcome("authorised")
            .with_work(SimDuration::from_millis(30))
            .with_object("paymentInfo", ObjectVal::text("PaymentInfo", "p"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable")
            .with_work(SimDuration::from_millis(40))
            .with_object("stockInfo", ObjectVal::text("StockInfo", "st"))
    });
    sys.bind_fn("refDispatch", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_work(SimDuration::from_millis(25))
            .with_object("dispatchNote", ObjectVal::text("DispatchNote", "n"))
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
    let coordinator = sys.coordinator_node();
    FaultPlan::crash_restart(
        coordinator,
        SimTime::from_nanos(45_000_000),
        SimDuration::from_millis(100),
    )
    .apply(sys.world_mut());
    sys.start("o1", "order", "main", [("order", text("Order", "o"))])
        .unwrap();
    sys.run_until(SimTime::from_nanos(145_000_000));
    common::assert_quiescent(&mut sys, "after the restart");
    sys.run();
    let outcome = sys.outcome("o1").expect("order completes after recovery");
    assert_eq!(outcome.name, "orderCompleted");
    // Exactly-once outcome application: the dispatch note exists once and
    // every task reached exactly one terminal state.
    for (path, state) in sys.task_states("o1") {
        assert!(state.is_terminal(), "{path} not terminal: {state:?}");
    }
}

#[test]
fn whole_system_restart_resumes_from_shared_storage() {
    // Stronger than a node crash: drop the entire WorkflowSystem and
    // build a new one over the same stable storage. Instances resume.
    let storage;
    {
        let mut sys = chain_system(5, 12, snappy_config());
        storage = sys.storage();
        sys.start("c1", "chain", "main", [("seed", text("Data", "s"))])
            .unwrap();
        // Run only 50ms of virtual time: the chain (5 × 20ms + messaging)
        // cannot have finished.
        sys.run_until(SimTime::from_nanos(50_000_000));
        assert!(sys.outcome("c1").is_none(), "must still be mid-flight");
        // The system dies here (dropped), volatile state lost.
    }
    let mut sys2 = WorkflowSystem::builder()
        .executors(3)
        .seed(13)
        .config(snappy_config())
        .shard_storages(vec![storage])
        .build();
    common::assert_quiescent(&mut sys2, "after the rebuild");
    // Re-register the script and re-bind implementations (the registry is
    // volatile, like redeploying service binaries).
    sys2.register_script("chain", &samples::chain(5), "root")
        .unwrap();
    for i in 0..5 {
        sys2.bind_fn(
            &format!("ref{i}"),
            move |ctx: &flowscript_engine::InvokeCtx| {
                TaskBehavior::outcome("done").with_object(
                    "out",
                    ObjectVal::text("Data", format!("{}+s{i}", ctx.input_text("in"))),
                )
            },
        );
    }
    sys2.run();
    let outcome = sys2
        .outcome("c1")
        .unwrap_or_else(|| panic!("resumed instance completes: {:?}", sys2.status("c1")));
    assert_eq!(outcome.objects["out"].as_text(), "s+s0+s1+s2+s3+s4");
    assert!(sys2.stats().recovered_instances >= 1);
}

#[test]
fn lossy_network_still_completes_via_retries() {
    let mut config = snappy_config();
    config.max_retries = 8;
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(14)
        .config(config)
        .build();
    sys.register_script("chain", &samples::chain(4), "root")
        .unwrap();
    for i in 0..4 {
        sys.bind_fn(
            &format!("ref{i}"),
            move |ctx: &flowscript_engine::InvokeCtx| {
                TaskBehavior::outcome("done").with_object(
                    "out",
                    ObjectVal::text("Data", format!("{}+s{i}", ctx.input_text("in"))),
                )
            },
        );
    }
    sys.start("c1", "chain", "main", [("seed", text("Data", "s"))])
        .unwrap();
    // The network turns lossy only once the workflow is in flight (the
    // client RPCs above have no retry layer; the engine's dispatches do).
    sys.world_mut()
        .net_mut()
        .set_default_link(flowscript_sim::net::LinkConfig {
            drop_prob: 0.25,
            ..Default::default()
        });
    sys.run();
    assert!(
        sys.outcome("c1").is_some(),
        "chain should survive 25% loss: {:?} (stats {:?})",
        sys.status("c1"),
        sys.stats()
    );
}

#[test]
fn abort_outcome_is_application_level_not_retried() {
    // An abort outcome declared by the script is an application decision,
    // not a system failure: no automatic retries (§3 separates the two).
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(15)
        .config(snappy_config())
        .build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    sys.bind_fn("refPaymentAuthorisation", |_| {
        TaskBehavior::outcome("authorised")
            .with_object("paymentInfo", ObjectVal::text("PaymentInfo", "p"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable")
            .with_object("stockInfo", ObjectVal::text("StockInfo", "st"))
    });
    // Dispatch aborts (atomic task, no side effects).
    sys.bind_fn("refDispatch", |_| TaskBehavior::outcome("dispatchFailed"));
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
    sys.start("o1", "order", "main", [("order", text("Order", "o"))])
        .unwrap();
    sys.run();
    // The abort propagates to orderCancelled through the notification.
    assert_eq!(sys.outcome("o1").unwrap().name, "orderCancelled");
    assert_eq!(sys.stats().retries, 0, "application aborts are not retried");
    let states = sys.task_states("o1");
    assert!(matches!(
        states["processOrderApplication/dispatch"],
        CbState::Aborted { .. }
    ));
}

#[test]
fn determinism_under_faults() {
    fn run(seed: u64) -> String {
        let mut sys = chain_system(6, seed, snappy_config());
        let victim = sys.executor_nodes()[1];
        FaultPlan::crash_restart(
            victim,
            SimTime::from_nanos(30_000_000),
            SimDuration::from_millis(300),
        )
        .apply(sys.world_mut());
        sys.start("c1", "chain", "main", [("seed", text("Data", "s"))])
            .unwrap();
        sys.run();
        sys.sim_trace().render()
    }
    assert_eq!(run(99), run(99), "same seed, same fault plan ⇒ same trace");
}

#[test]
fn recovery_keeps_instance_names_that_look_like_storage_keys() {
    // An instance's name is one escaped segment of its uids, between
    // `inst/` and the `/meta` of its header. A name that itself starts
    // or ends that way must come back from a crash whole — reloading
    // `inst/a` as `a` would read the wrong keys and lose the instance —
    // and `plain/kid` is nothing of `plain`'s.
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(21)
        .config(snappy_config())
        .build();
    sys.register_script("one", common::ONE_TASK, "root")
        .unwrap();
    sys.bind_fn("refWork", |_| {
        TaskBehavior::outcome("done").with_work(SimDuration::from_millis(100))
    });
    let names = ["inst/a", "b/meta", "plain", "plain/kid"];
    for name in names {
        sys.start(name, "one", "main", [("seed", text("Data", "s"))])
            .unwrap();
    }
    // Crash with every leaf mid-execution.
    sys.run_until(SimTime::from_nanos(30_000_000));
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    common::restart_checked(&mut sys, coordinator);
    sys.run();
    assert_eq!(sys.stats().recovered_instances, names.len() as u64);
    for name in names {
        assert!(
            matches!(sys.status(name), Ok(InstanceStatus::Completed(_))),
            "`{name}` lost across the crash: {:?}",
            sys.status(name)
        );
    }
}

/// Starts `names` on a four-stage chain.
fn chains(names: &[&str]) -> WorkflowSystem {
    let mut sys = chain_system(4, 12, snappy_config());
    for name in names {
        sys.start(name, "chain", "main", [("seed", text("Data", "s"))])
            .unwrap();
    }
    sys
}

fn assert_corrupt(status: Result<InstanceStatus, EngineError>) {
    match status {
        Err(EngineError::Tx(why)) => assert!(why.contains("corrupt"), "undiagnosable: {why}"),
        other => panic!("a poisoned record read as {other:?}"),
    }
}

#[test]
fn a_poisoned_root_block_stops_its_instance_alone() {
    // Where a running instance stands is its root block: one that does
    // not decode must not read as `Running` (the restart would re-arm
    // it and its next step misread) nor as an outcome. The restart
    // stops it with why, and its siblings complete.
    let mut sys = chains(&["c1", "c2", "c3"]);
    sys.run_until(SimTime::from_nanos(30_000_000));
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    assert!(sys
        .coord_handle_mut(0)
        .get_mut()
        .poison_record("c2", "root"));
    common::restart_checked(&mut sys, coordinator);
    sys.run();
    assert_eq!(sys.stats().recovered_instances, 3);
    for name in ["c1", "c3"] {
        assert!(
            sys.outcome(name).is_some(),
            "{name}: {:?}",
            sys.status(name)
        );
    }
    match sys.status("c2") {
        Ok(InstanceStatus::Stuck { reason }) => assert!(
            reason.contains("control block storage fault at `root`"),
            "{reason}"
        ),
        other => panic!("expected a storage-fault stop, got {other:?}"),
    }
}

#[test]
fn a_poisoned_stuck_record_says_so() {
    // A stuck record that does not decode must not take recovery down,
    // and must say what is wrong when asked; its instance stays parked.
    let mut sys = chains(&["c1"]);
    sys.register_script("one", common::ONE_TASK, "root")
        .unwrap();
    sys.start("s", "one", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert!(matches!(sys.status("s"), Ok(InstanceStatus::Stuck { .. })));
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    assert!(sys
        .coord_handle_mut(0)
        .get_mut()
        .poison_record("s", "status"));
    common::restart_checked(&mut sys, coordinator);
    sys.run();
    assert_eq!(sys.stats().recovered_instances, 2);
    assert!(sys.outcome("c1").is_some());
    assert_corrupt(sys.status("s"));
}

#[test]
fn a_poisoned_root_output_fails_the_status_read() {
    // A completed instance's outcome objects are its root's output
    // fact: a fact that does not decode is the fault, never a
    // `Completed` with objects missing.
    let mut sys = chains(&["c1", "c2"]);
    sys.run();
    assert!(sys.poison_fact("c1", "root", "done"), "poison lands");
    assert_corrupt(sys.status("c1"));
    assert!(sys.outcome("c1").is_none());
    assert!(sys.outcome("c2").is_some());
}

#[test]
fn forcing_the_root_outcome_completes_the_instance() {
    // An operator forces the root's outcome while `s1` executes. The
    // root block now says `Done`, so the instance reads `Completed`
    // with the forced objects; what still ran below is cancelled with
    // its watchdog, so the run ends at once. (With a status record
    // beside the block, the instance read `Running` here and, once
    // `s1` reported, parked `Stuck`: the root could not terminate
    // twice.)
    let mut sys = chains(&["c1"]);
    sys.run_until(SimTime::from_nanos(30_000_000));
    assert!(sys.task_states("c1")["root/s1"].is_running());
    let forced = [("out", text("Data", "forced"))];
    sys.repair_fact("c1", "root", "done", forced).unwrap();
    let outcome = |sys: &WorkflowSystem| {
        let outcome = sys.outcome("c1").expect("completed");
        let out = &outcome.objects["out"];
        (
            outcome.name,
            out.as_text().to_string(),
            out.produced_by.clone(),
        )
    };
    let expected = ("done".to_string(), "forced".to_string(), "root".to_string());
    assert_eq!(outcome(&sys), expected);
    sys.run();
    assert!(
        sys.now() < SimTime::from_nanos(100_000_000),
        "{}",
        sys.now()
    );
    assert_eq!(outcome(&sys), expected);
    let states = sys.task_states("c1");
    assert_eq!(states["root/s1"], CbState::Cancelled);
    assert_eq!(states["root/s3"], CbState::Cancelled);
    // A restart finds it settled: nothing is re-armed.
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    common::restart_checked(&mut sys, coordinator);
    sys.run();
    assert_eq!(outcome(&sys), expected);
    assert_eq!(sys.stats().dispatches, 2, "s0 and s1, once each");
}

#[test]
fn a_retry_backoff_ends_with_its_scope() {
    // `b` has no implementation bound: its executor reports the error,
    // and its retry waits out a 10 s back-off. Before that is over, `a`
    // completes the root, which cancels `b`: the back-off's timer goes
    // with it, so the run ends when the instance does and no dispatch is
    // dropped.
    let script = r#"
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
        implementation { "code" is "refA" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    task b of taskclass Work {
        implementation { "code" is "refB" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    outputs { outcome done { notification from { task a if output done } } }
}
"#;
    let config = EngineConfig {
        retry_backoff: SimDuration::from_secs(10),
        ..snappy_config()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(3)
        .config(config)
        .build();
    sys.register_script("ab", script, "root").unwrap();
    sys.bind_fn("refA", |_| {
        TaskBehavior::outcome("done").with_work(SimDuration::from_millis(50))
    });
    sys.start("i", "ab", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("i").expect("completes").name, "done");
    assert_eq!(sys.task_states("i")["root/b"], CbState::Cancelled);
    let stats = sys.stats();
    assert_eq!((stats.retries, stats.dropped_dispatches), (1, 0));
    assert!(
        sys.now() < SimTime::from_nanos(1_000_000_000),
        "a back-off outlived its task: the run ended at {}",
        sys.now()
    );
}

/// A restart over a log that does not open serves nothing of what the
/// shard held before the crash: it holds no instance, appends nothing
/// behind the bad frame, drops the late report of an attempt it can no
/// longer name, and answers a start and an operator's request with why
/// the log did not open.
#[test]
fn a_restart_over_a_log_that_does_not_open_serves_nothing() {
    let mut sys = WorkflowSystem::builder().seed(1).build();
    sys.register_script("q", samples::QUICKSTART, "pipeline")
        .unwrap();
    sys.bind_fn("refProduce", |_| {
        TaskBehavior::outcome("produced")
            .with_work(SimDuration::from_millis(50))
            .with_object("message", text("Message", "m"))
    });
    sys.bind_fn("refConsume", |_| {
        TaskBehavior::outcome("consumed").with_object("result", text("Message", "r"))
    });
    sys.start("q1", "q", "main", [("seed", text("Message", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_millis(5));
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    // One bit flipped mid-log, while the shard is down.
    let mut storage = sys.storage();
    let mut log = storage.read_all().unwrap();
    let mid = log.len() / 2;
    log[mid] ^= 1;
    storage.truncate(0).unwrap();
    storage.append(&log).unwrap();
    let reopen = |storage: &StableStore| TxManager::open(0, storage.clone()).map(drop);
    let refused = reopen(&storage).unwrap_err();
    assert!(matches!(refused, TxError::Corrupt(_)), "{refused}");
    let why = EngineError::from(refused.clone());

    // `produce` reports at 50 ms, into the restarted shard.
    common::restart_checked(&mut sys, coordinator);
    sys.run();
    assert_eq!(storage.read_all().unwrap(), log, "nothing appended");
    assert_eq!(
        sys.status("q1"),
        Err(EngineError::UnknownInstance("q1".into()))
    );
    assert_eq!(
        sys.abort_waiting_task("q1", "pipeline/consume", "rejected"),
        Err(why.clone())
    );
    let started = sys.start("q2", "q", "main", [("seed", text("Message", "s"))]);
    assert_eq!(started, Err(EngineError::BadInputs(why.to_string())));
    sys.run();
    assert_eq!(storage.read_all().unwrap(), log, "still nothing appended");
    assert_eq!(reopen(&storage), Err(refused));
}
