//! Regression guards for the per-object fact layout.
//!
//! A readiness probe must be a **point read**: no uid prefix scan, no
//! fact range scan, no whole-record decode. The store counts both scan
//! families ([`TxManager::prefix_scan_count`],
//! [`TxManager::fact_range_scan_count`]); a clean run must leave both
//! flat. And a *corrupt* fact record must surface as a diagnosable
//! storage fault — never silently read as "fact absent" and
//! mis-evaluate readiness.
//!
//! [`TxManager::prefix_scan_count`]: flowscript_tx::TxManager::prefix_scan_count
//! [`TxManager::fact_range_scan_count`]: flowscript_tx::TxManager::fact_range_scan_count

mod common;

use common::{text, JOIN};
use flowscript_core::samples;
use flowscript_engine::coordinator::EngineConfig;
use flowscript_engine::{InstanceStatus, TaskBehavior, WorkflowSystem};
use flowscript_sim::SimDuration;

fn order_sys(seed: u64) -> WorkflowSystem {
    let mut sys = WorkflowSystem::builder().executors(2).seed(seed).build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    sys.bind_fn("refPaymentAuthorisation", |_| {
        TaskBehavior::outcome("authorised").with_object("paymentInfo", text("PaymentInfo", "p"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable").with_object("stockInfo", text("StockInfo", "s"))
    });
    sys.bind_fn("refDispatch", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_object("dispatchNote", text("DispatchNote", "n"))
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
    sys
}

#[test]
fn per_object_probes_never_scan() {
    // A clean fig. 7 run: every readiness probe and every fact commit
    // is a point access. Subtree cancels, repeats, recovery and
    // reconfiguration are the only legitimate range scanners, and none
    // of them runs here.
    let mut sys = order_sys(1);
    for i in 0..4 {
        sys.start(
            &format!("o{i}"),
            "order",
            "main",
            [("order", text("Order", "o"))],
        )
        .unwrap();
    }
    let prefix_before = sys.store_prefix_scans();
    let range_before = sys.store_fact_range_scans();
    sys.run();
    for i in 0..4 {
        assert_eq!(
            sys.outcome(&format!("o{i}")).expect("completes").name,
            "orderCompleted"
        );
    }
    assert_eq!(
        sys.store_prefix_scans(),
        prefix_before,
        "probes must not scan uids by prefix"
    );
    assert_eq!(
        sys.store_fact_range_scans(),
        range_before,
        "per-object probes must be point reads, never fact range scans"
    );
}

fn poisoned_run(whole_record_facts: bool) -> InstanceStatus {
    let config = EngineConfig {
        whole_record_facts,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(7)
        .config(config)
        .build();
    sys.register_script("join", JOIN, "root").unwrap();
    sys.bind_fn("refFast", |_| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(5))
            .with_object("out", text("Data", "fast"))
    });
    sys.bind_fn("refSlow", |_| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(200))
            .with_object("out", text("Data", "slow"))
    });
    sys.bind_fn("refJoin", |_| TaskBehavior::outcome("done"));
    sys.start("i", "join", "main", [("seed", text("Data", "s"))])
        .unwrap();
    // Let the fast producer commit, then corrupt its output fact while
    // the slow one is still executing.
    sys.run_for(SimDuration::from_millis(50));
    assert!(sys.poison_fact("i", "root/fast", "done"), "poison lands");
    sys.run();
    sys.status("i").unwrap()
}

#[test]
fn corrupt_fact_fails_the_instance_diagnosably() {
    // In both layouts the slow producer's commit re-evaluates the join,
    // whose probe hits the poisoned record: the drain must park the
    // instance with the storage fault — the old behaviour read the
    // corrupt fact as "absent" and left the instance waiting forever
    // with no explanation.
    for whole in [false, true] {
        match poisoned_run(whole) {
            InstanceStatus::Stuck { reason } => {
                assert!(
                    reason.contains("fact storage fault"),
                    "whole={whole}: undiagnosable reason: {reason}"
                );
            }
            other => panic!("whole={whole}: expected a storage-fault stop, got {other:?}"),
        }
    }
}
