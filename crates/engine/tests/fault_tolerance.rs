//! System-level fault tolerance (paper §3): tasks eventually receive
//! their inputs and notifications despite processor crashes and temporary
//! network failures; aborts caused by system problems are retried a
//! finite number of times; the coordinator recovers all state from its
//! write-ahead log.

mod common;

use common::text;
use flowscript_core::samples;
use flowscript_engine::coordinator::EngineConfig;
use flowscript_engine::{CbState, InstanceStatus, ObjectVal, TaskBehavior, WorkflowSystem};
use flowscript_sim::{FaultAction, FaultPlan, SimDuration, SimTime};

/// Binds a chain-of-N workload built by the core builder.
fn chain_system(n: usize, seed: u64, config: EngineConfig) -> WorkflowSystem {
    let script = flowscript_core::builder::chain(n);
    let source = flowscript_core::fmt::format_script(&script);
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .seed(seed)
        .config(config)
        .build();
    sys.register_script("chain", &source, "root").unwrap();
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
    let script = flowscript_core::builder::chain(5);
    let source = flowscript_core::fmt::format_script(&script);
    let mut sys2 = WorkflowSystem::builder()
        .executors(3)
        .seed(13)
        .config(snappy_config())
        .storage(storage)
        .build();
    // Re-register the script and re-bind implementations (the registry is
    // volatile, like redeploying service binaries).
    sys2.register_script("chain", &source, "root").unwrap();
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
    let script = flowscript_core::builder::chain(4);
    let source = flowscript_core::fmt::format_script(&script);
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(14)
        .config(config)
        .build();
    sys.register_script("chain", &source, "root").unwrap();
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
    sys.restart_now(coordinator);
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

#[test]
fn undecodable_status_record_fails_its_instance_alone() {
    // A status record that does not decode must not load as anything —
    // least of all as a stale `Running` — must not take recovery down,
    // and must say what is wrong when asked.
    let mut sys = chain_system(4, 12, snappy_config());
    for name in ["c1", "c2", "c3"] {
        sys.start(name, "chain", "main", [("seed", text("Data", "s"))])
            .unwrap();
    }
    sys.run_until(SimTime::from_nanos(30_000_000));
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    assert!(sys.coord_handle(0).poison_record("c2", "status"));
    sys.restart_now(coordinator);
    sys.run();
    assert_eq!(sys.stats().recovered_instances, 2, "the siblings recover");
    assert_eq!(sys.coord_handle(0).instance_names(), ["c1", "c3"]);
    for name in ["c1", "c3"] {
        assert!(
            sys.outcome(name).is_some(),
            "{name}: {:?}",
            sys.status(name)
        );
    }
    match sys.status("c2") {
        Err(flowscript_engine::EngineError::Tx(why)) => {
            assert!(why.contains("corrupt"), "undiagnosable: {why}")
        }
        other => panic!("a poisoned status record read as {other:?}"),
    }
}
