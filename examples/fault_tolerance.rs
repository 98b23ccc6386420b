//! System-level fault tolerance under a scripted fault plan: executor
//! crashes, a coordinator crash with write-ahead-log recovery, and a
//! healing network partition — the order application completes anyway.
//!
//! ```sh
//! cargo run --example fault_tolerance
//! ```

use flowscript::prelude::*;

fn main() -> Result<(), EngineError> {
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_millis(400),
        retry_backoff: SimDuration::from_millis(25),
        max_retries: 6,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .seed(2024)
        .config(config)
        .build();
    sys.register_script(
        "order",
        flowscript::samples::ORDER_PROCESSING,
        "processOrderApplication",
    )?;

    sys.bind_fn("refPaymentAuthorisation", |_| {
        TaskBehavior::outcome("authorised")
            .with_work(SimDuration::from_millis(60))
            .with_object("paymentInfo", ObjectVal::text("PaymentInfo", "visa-….1234"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable")
            .with_work(SimDuration::from_millis(80))
            .with_object("stockInfo", ObjectVal::text("StockInfo", "warehouse-2"))
    });
    sys.bind_fn("refDispatch", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_work(SimDuration::from_millis(100))
            .with_object("dispatchNote", ObjectVal::text("DispatchNote", "parcel-77"))
    });
    sys.bind_fn("refPaymentCapture", |_| {
        TaskBehavior::outcome("done").with_work(SimDuration::from_millis(40))
    });

    // The fault plan: an executor dies mid-run; the coordinator crashes
    // and recovers; the network partitions briefly.
    let executor0 = sys.executor_nodes()[0];
    let coordinator = sys.coordinator_node();
    let executors = sys.executor_nodes().to_vec();
    let plan = FaultPlan::new()
        .at(
            SimTime::from_nanos(30_000_000),
            FaultAction::Crash(executor0),
        )
        .at(
            SimTime::from_nanos(120_000_000),
            FaultAction::Crash(coordinator),
        )
        .at(
            SimTime::from_nanos(200_000_000),
            FaultAction::Restart(coordinator),
        )
        .at(
            SimTime::from_nanos(250_000_000),
            FaultAction::Partition(vec![coordinator], executors),
        )
        .at(SimTime::from_nanos(600_000_000), FaultAction::HealAll);
    println!("fault plan: {} scheduled failures/repairs", plan.len());
    sys.apply_faults(&plan);

    sys.start(
        "o-1",
        "order",
        "main",
        [("order", ObjectVal::text("Order", "order-42"))],
    )?;
    sys.run();

    let outcome = sys.outcome("o-1").expect("the order survives the faults");
    println!("outcome: {} at {}", outcome.name, sys.now());
    let stats = sys.stats();
    println!(
        "dispatches: {}, retries: {}, recovered instances: {}",
        stats.dispatches, stats.retries, stats.recovered_instances
    );
    let trace = sys.sim_trace();
    println!(
        "trace: {} events, {} deliveries, {} drops to down nodes",
        trace.len(),
        trace.deliveries(),
        trace.drops(flowscript_sim::trace::DropReason::NodeDown)
            + trace.drops(flowscript_sim::trace::DropReason::StaleIncarnation)
            + trace.drops(flowscript_sim::trace::DropReason::Partition)
    );
    assert_eq!(outcome.name, "orderCompleted");
    assert!(stats.recovered_instances >= 1, "recovery must have run");
    Ok(())
}
