//! Regression guard for O(1) stuck detection.
//!
//! `stuck_check` used to enumerate every control block by uid prefix
//! after every worklist drain; it now reads what the drain already
//! holds — whether it settled the instance, and its outstanding
//! flights — and even the one-time stuck *report* resolves through
//! dense-key point reads.
//! These tests count actual store prefix scans to pin that down:
//! a run — completed, stuck, repeating or monitored — must not scan.

use flowscript_core::samples;
use flowscript_engine::{EngineConfig, InstanceStatus, ObjectVal, TaskBehavior, WorkflowSystem};
use flowscript_sim::SimDuration;

fn order_sys(seed: u64) -> WorkflowSystem {
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_millis(250),
        retry_backoff: SimDuration::from_millis(10),
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(seed)
        .config(config)
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
            .with_object("stockInfo", ObjectVal::text("StockInfo", "s"))
    });
    sys.bind_fn("refDispatch", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_object("dispatchNote", ObjectVal::text("DispatchNote", "n"))
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
    sys
}

#[test]
fn completed_run_performs_no_prefix_scans() {
    let mut sys = order_sys(1);
    for i in 0..4 {
        sys.start(
            &format!("o{i}"),
            "order",
            "main",
            [("order", ObjectVal::text("Order", "o"))],
        )
        .unwrap();
    }
    let before = sys.metrics_snapshot().counter("tx.prefix_scans");
    sys.run();
    for i in 0..4 {
        assert_eq!(
            sys.outcome(&format!("o{i}")).expect("completes").name,
            "orderCompleted"
        );
    }
    // Monitoring a live instance is scan-free too.
    let states = sys.task_states("o0");
    assert!(states.values().all(flowscript_engine::CbState::is_terminal));
    assert_eq!(
        sys.metrics_snapshot().counter("tx.prefix_scans"),
        before,
        "the run (and live monitoring) must not scan the store by prefix"
    );
}

#[test]
fn stuck_run_performs_no_prefix_scans_and_still_explains_itself() {
    let mut sys = order_sys(2);
    // Starve the dispatch task: retries exhaust, the instance goes
    // stuck — the one-time report must name the failed and waiting
    // tasks without a store scan.
    sys.unbind("refDispatch");
    sys.start(
        "o",
        "order",
        "main",
        [("order", ObjectVal::text("Order", "o"))],
    )
    .unwrap();
    let before = sys.metrics_snapshot().counter("tx.prefix_scans");
    sys.run();
    match sys.status("o").unwrap() {
        InstanceStatus::Stuck { reason } => {
            assert!(reason.contains("failed"), "{reason}");
            assert!(reason.contains("dispatch"), "{reason}");
            assert!(reason.contains("paymentCapture"), "{reason}");
            assert!(reason.contains("non-terminal"), "{reason}");
        }
        other => panic!("expected stuck, got {other:?}"),
    }
    assert_eq!(
        sys.metrics_snapshot().counter("tx.prefix_scans"),
        before,
        "going stuck must not scan the store by prefix"
    );
}

const REPEATER: &str = r#"
class Data;
taskclass Stage {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data }; repeat outcome again { in of class Data } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
    task t of taskclass Stage {
        implementation { "code" is "refT" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    outputs { outcome done { notification from { task t if output done } } }
}
"#;

#[test]
fn repeat_loops_perform_no_prefix_scans() {
    // Leaf repeats and their worklist drains stay scan-free as well.
    let mut sys = WorkflowSystem::builder().executors(2).seed(3).build();
    sys.register_script("r", REPEATER, "root").unwrap();
    sys.bind_fn("refT", |ctx| {
        if ctx.attempt < 3 {
            TaskBehavior::outcome("again")
                .with_object("in", ObjectVal::text("Data", "again"))
                .with_redo_after(SimDuration::from_millis(5))
        } else {
            TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", "d"))
        }
    });
    sys.start("i", "r", "main", [("seed", ObjectVal::text("Data", "s"))])
        .unwrap();
    let before = sys.metrics_snapshot().counter("tx.prefix_scans");
    sys.run();
    assert_eq!(sys.outcome("i").expect("completes").name, "done");
    assert!(sys.stats().repeats >= 3);
    assert_eq!(sys.metrics_snapshot().counter("tx.prefix_scans"), before);
}
