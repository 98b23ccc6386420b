//! Administrative operations (the paper's admin applications): forced
//! aborts of waiting tasks (Fig. 3 wait-state abort) and versioned
//! instantiation from the repository.

mod common;

use common::text;
use flowscript_core::samples;
use flowscript_engine::{CbState, EngineError, ObjectVal, TaskBehavior, WorkflowSystem};
use flowscript_sim::{SimDuration, SimTime};

#[test]
fn forced_abort_of_waiting_dispatch_cancels_order() {
    let mut sys = WorkflowSystem::builder().executors(3).seed(81).build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    // Authorisation is slow; stock never returns, so dispatch waits.
    sys.bind_fn("refPaymentAuthorisation", |_| {
        TaskBehavior::outcome("authorised")
            .with_work(SimDuration::from_secs(5))
            .with_object("paymentInfo", ObjectVal::text("PaymentInfo", "p"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable")
            .with_work(SimDuration::from_secs(60))
            .with_object("stockInfo", ObjectVal::text("StockInfo", "s"))
    });
    sys.bind_fn("refDispatch", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_object("dispatchNote", ObjectVal::text("DispatchNote", "n"))
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
    sys.start("o1", "order", "main", [("order", text("Order", "o"))])
        .unwrap();
    // Let the instance get going; dispatch is still waiting for stock.
    sys.run_for(SimDuration::from_secs(1));
    let states = sys.task_states("o1");
    assert_eq!(states["processOrderApplication/dispatch"], CbState::Waiting);
    // A user forces the abort (Fig. 3's wait-state abort).
    sys.abort_waiting_task("o1", "processOrderApplication/dispatch", "dispatchFailed")
        .unwrap();
    sys.run();
    // The abort outcome notified orderCancelled.
    let outcome = sys.outcome("o1").expect("instance settles");
    assert_eq!(outcome.name, "orderCancelled");
    let states = sys.task_states("o1");
    assert_eq!(
        states["processOrderApplication/dispatch"],
        CbState::Aborted {
            outcome: "dispatchFailed".into()
        }
    );
    // The cancelled scope's two queries stop where they run: the world
    // is quiet well before the minute the stock check would have taken.
    assert_eq!(sys.stats().cancels, 2);
    assert!(
        sys.now() < SimTime::from_nanos(2_000_000_000),
        "{:?}",
        sys.now()
    );
}

#[test]
fn forced_abort_validates_outcome_kind_and_state() {
    let mut sys = WorkflowSystem::builder().executors(2).seed(82).build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    sys.bind_fn("refPaymentAuthorisation", |_| {
        TaskBehavior::outcome("authorised")
            .with_work(SimDuration::from_secs(60))
            .with_object("paymentInfo", ObjectVal::text("PaymentInfo", "p"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable")
            .with_work(SimDuration::from_secs(60))
            .with_object("stockInfo", ObjectVal::text("StockInfo", "s"))
    });
    sys.start("o1", "order", "main", [("order", text("Order", "o"))])
        .unwrap();
    // `authorised` is not an abort outcome.
    let err = sys
        .abort_waiting_task("o1", "processOrderApplication/dispatch", "authorised")
        .unwrap_err();
    assert!(err.to_string().contains("not an abort outcome"), "{err}");
    // checkStock is Executing, not Waiting.
    let err = sys
        .abort_waiting_task("o1", "processOrderApplication/checkStock", "dispatchFailed")
        .unwrap_err();
    assert!(
        err.to_string().contains("not an abort outcome") || err.to_string().contains("not waiting")
    );
    // Unknown task.
    assert!(matches!(
        sys.abort_waiting_task("o1", "processOrderApplication/ghost", "x"),
        Err(EngineError::UnknownTask(_))
    ));
}

/// `second` waits for `first`; inside it `fallback` runs only once
/// `work` was skipped.
const STAGED: &str = r#"
class Data;
taskclass App {
    inputs { input main { seed of class Data } };
    outputs { outcome done { }; outcome skipped { } }
}
taskclass Stage {
    inputs { input main { seed of class Data } };
    outputs { outcome done { out of class Data }; abort outcome skipped { } }
}
taskclass Fallback { inputs { input main { } }; outputs { outcome done { } } }
compoundtask app of taskclass App {
    task first of taskclass Stage {
        implementation { "code" is "refFirst" };
        inputs { input main { inputobject seed from { seed of task app if input main } } }
    };
    compoundtask second of taskclass App {
        inputs { input main { inputobject seed from { out of task first if output done } } };
        task work of taskclass Stage {
            implementation { "code" is "refWork" };
            inputs { input main { inputobject seed from { seed of task second if input main } } }
        };
        task fallback of taskclass Fallback {
            implementation { "code" is "refFallback" };
            inputs { input main { notification from { task work if output skipped } } }
        };
        outputs {
            outcome done { notification from { task work if output done } };
            outcome skipped { notification from { task fallback if output done } }
        }
    };
    outputs {
        outcome done { notification from { task second if output done } };
        outcome skipped { notification from { task second if output skipped } }
    }
}
"#;

#[test]
fn an_abort_forced_below_a_waiting_scope_is_seen_when_the_scope_activates() {
    // A compound's activation enables only the constituents that can
    // start off an empty subtree — unless an operator published below
    // it beforehand: `fallback` must then be looked at too.
    let mut sys = WorkflowSystem::builder().executors(2).seed(83).build();
    sys.register_script("staged", STAGED, "app").unwrap();
    sys.bind_fn("refFirst", |_| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_secs(5))
            .with_object("out", text("Data", "d"))
    });
    sys.bind_fn("refWork", |_| panic!("`work` was skipped"));
    sys.bind_fn("refFallback", |_| TaskBehavior::outcome("done"));
    sys.start("s1", "staged", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_secs(1));
    assert_eq!(sys.task_states("s1")["app/second"], CbState::Waiting);
    sys.abort_waiting_task("s1", "app/second/work", "skipped")
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("s1").expect("settles").name, "skipped");
    let states = sys.task_states("s1");
    let done = |outcome: &str| CbState::Done {
        outcome: outcome.into(),
    };
    assert_eq!(states["app/second/fallback"], done("done"));
    assert_eq!(states["app/second"], done("skipped"));
}

#[test]
fn a_completion_forced_onto_a_waiting_task_is_rejected_and_changes_nothing() {
    // `repair_fact` force-completes a task that has not terminated, as if
    // its executor had replied — but fig. 3 has no `Waiting → Done` edge:
    // `second` has bound no inputs to complete on. The call used to
    // panic in `TaskCb::transition`.
    let mut sys = WorkflowSystem::builder().executors(2).seed(84).build();
    sys.register_script("staged", STAGED, "app").unwrap();
    sys.bind_fn("refFirst", |_| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_secs(5))
            .with_object("out", text("Data", "d"))
    });
    sys.bind_fn("refWork", |_| panic!("`work` was skipped"));
    sys.bind_fn("refFallback", |_| TaskBehavior::outcome("done"));
    sys.start("s1", "staged", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_secs(1));
    let before = (sys.task_states("s1"), sys.status("s1").ok(), sys.log_size());
    assert_eq!(before.0["app/second"], CbState::Waiting);
    let refused = sys.repair_fact("s1", "app/second", "done", [] as [(&str, ObjectVal); 0]);
    assert!(
        matches!(&refused, Err(EngineError::ReconfigRejected(why)) if why.contains("Waiting")),
        "{refused:?}"
    );
    let after = (sys.task_states("s1"), sys.status("s1").ok(), sys.log_size());
    assert_eq!(
        before, after,
        "a rejected repair leaves the instance untouched"
    );
    assert!(sys.output_fact("s1", "app/second", "done").is_none());
    // The wait-state *abort* is an edge: forcing one is allowed.
    sys.repair_fact(
        "s1",
        "app/second/work",
        "skipped",
        [] as [(&str, ObjectVal); 0],
    )
    .expect("`Waiting → Aborted` is fig. 3's wait-state abort");
    sys.run();
    assert_eq!(sys.outcome("s1").expect("settles").name, "skipped");
}

#[test]
fn versioned_instantiation_uses_the_requested_script() {
    // v1's pipeline root is `pipeline`; v2 is a different script whose
    // root differs — version selection must pick the right one.
    let mut sys = WorkflowSystem::builder().executors(2).seed(83).build();
    sys.register_script("app", samples::QUICKSTART, "pipeline")
        .unwrap();
    sys.register_script("app", samples::FIG1_DIAMOND, "diamond")
        .unwrap();

    sys.bind_fn("refProduce", |_| {
        TaskBehavior::outcome("produced").with_object("message", ObjectVal::text("Message", "m"))
    });
    sys.bind_fn("refConsume", |_| {
        TaskBehavior::outcome("consumed").with_object("result", ObjectVal::text("Message", "r"))
    });
    for t in ["refT1", "refT2", "refT3", "refT4"] {
        sys.bind_fn(t, |_| {
            TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", "d"))
        });
    }

    // Explicit v1 runs the pipeline…
    sys.start_version("v1-run", "app", 1, "main", [("seed", text("Message", "s"))])
        .unwrap();
    // …while the latest (v2) runs the diamond.
    sys.start("latest-run", "app", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("v1-run").unwrap().name, "done");
    assert!(sys.task_states("v1-run").contains_key("pipeline/produce"));
    assert!(sys.task_states("latest-run").contains_key("diamond/t4"));

    // Unknown version is rejected.
    let err = sys
        .start_version("v9-run", "app", 9, "main", [("seed", text("Message", "s"))])
        .unwrap_err();
    assert!(err.to_string().contains("v9"), "{err}");
}
