//! Sharded coordinators: instance ownership split across four
//! execution-service nodes by rendezvous hash of the instance name.
//! Twelve orders spread over the shards; mid-run, one coordinator node
//! crashes and recovers **its shard alone** from its own write-ahead
//! log while the other three keep committing.
//!
//! ```sh
//! cargo run --example sharded_coordinators
//! ```

use flowscript::prelude::*;

fn main() -> Result<(), EngineError> {
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_millis(400),
        retry_backoff: SimDuration::from_millis(25),
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .coordinators(4)
        .executors(3)
        .seed(1998)
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
            .with_object("paymentInfo", ObjectVal::text("PaymentInfo", "visa"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable")
            .with_work(SimDuration::from_millis(80))
            .with_object("stockInfo", ObjectVal::text("StockInfo", "warehouse-2"))
    });
    sys.bind_fn("refDispatch", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_work(SimDuration::from_millis(40))
            .with_object("dispatchNote", ObjectVal::text("DispatchNote", "sent"))
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));

    // Twelve orders, rendezvous-spread over the four shards.
    let orders: Vec<String> = (0..12).map(|i| format!("order-{i:02}")).collect();
    for name in &orders {
        sys.start(
            name,
            "order",
            "main",
            [("order", ObjectVal::text("Order", name))],
        )?;
        println!("{name} → shard {}", sys.shard_of(name));
    }

    // Crash the shard owning order-00 mid-flight; restart 150ms later.
    let victim = sys.coordinator_node_for(&orders[0]);
    let victim_shard = sys.shard_of(&orders[0]);
    sys.apply_faults(&FaultPlan::crash_restart(
        victim,
        SimTime::from_nanos(70_000_000),
        SimDuration::from_millis(150),
    ));
    println!("\nscheduled crash of shard {victim_shard} at t+70ms …\n");
    sys.run();

    for name in &orders {
        let outcome = sys.outcome(name).expect("order completes");
        assert_eq!(outcome.name, "orderCompleted");
    }
    println!(
        "all {} orders completed (virtual time {})",
        orders.len(),
        sys.now()
    );
    for shard in 0..sys.shard_count() {
        let stats = sys.shard_stats(shard);
        println!(
            "shard {shard}: dispatches {:>2}, recovered instances {}, forwarded {}",
            stats.dispatches, stats.recovered_instances, stats.forwarded
        );
    }
    assert!(sys.shard_stats(victim_shard).recovered_instances > 0);
    assert!((0..sys.shard_count())
        .filter(|&s| s != victim_shard)
        .all(|s| sys.shard_stats(s).recovered_instances == 0));
    println!("shard {victim_shard} replayed its own WAL; the others never ran recovery");
    Ok(())
}
