//! Per-object / whole-record fact storage equivalence.
//!
//! Splitting dependency facts into per-object sub-keys is only allowed
//! to be a *layout* of the same execution — never a different one. For
//! the fig. 7 (order processing) and fig. 8 (business trip, compound
//! repeat) workloads, 1 and 4 coordinator shards, a one-shard crash
//! with recovery, a mid-run reconfiguration, and randomized generated
//! workflows, a `whole_record_facts` system and a per-object system
//! must produce **byte-identical per-instance outcomes, dispatch
//! traces and task states**.

mod common;

use std::cell::Cell;
use std::rc::Rc;

use common::{det_link, fingerprints, generated_config, generated_script, run_generated, text};
use flowscript_core::samples;
use flowscript_engine::coordinator::EngineConfig;
use flowscript_engine::{
    CbState, InstanceStatus, ObjectVal, Reconfig, TaskBehavior, WorkflowSystem,
};
use flowscript_sim::SimDuration;
use proptest::prelude::*;

fn config(whole_record: bool) -> EngineConfig {
    EngineConfig {
        whole_record_facts: whole_record,
        ..generated_config()
    }
}

fn builder(whole_record: bool, shards: usize, seed: u64) -> WorkflowSystem {
    WorkflowSystem::builder()
        .executors(3)
        .coordinators(shards)
        .seed(seed)
        .link(det_link())
        .config(config(whole_record))
        .build()
}

// ---------------------------------------------------------------------
// Fig. 7 order processing (wide join on checkStock + authorisation).
// ---------------------------------------------------------------------

fn order_sys(whole_record: bool, shards: usize) -> WorkflowSystem {
    let mut sys = builder(whole_record, shards, 42);
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    sys.bind_fn("refPaymentAuthorisation", |_| {
        TaskBehavior::outcome("authorised")
            .with_work(SimDuration::from_millis(30))
            .with_object("paymentInfo", text("PaymentInfo", "p"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable")
            .with_work(SimDuration::from_millis(30))
            .with_object("stockInfo", text("StockInfo", "s"))
    });
    sys.bind_fn("refDispatch", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_work(SimDuration::from_millis(30))
            .with_object("dispatchNote", text("DispatchNote", "n"))
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
    sys
}

// ---------------------------------------------------------------------
// Fig. 8 business trip (alternatives, compensation, compound repeat).
// ---------------------------------------------------------------------

fn trip_sys(whole_record: bool, shards: usize, hotel_failures: u32) -> WorkflowSystem {
    let mut sys = builder(whole_record, shards, 43);
    sys.register_script("trip", samples::BUSINESS_TRIP, "tripReservation")
        .unwrap();
    sys.bind_fn("refDataAcquisition", |_| {
        TaskBehavior::outcome("acquired").with_object("tripData", text("TripData", "t"))
    });
    sys.bind_fn("refAirlineQueryA", |_| {
        TaskBehavior::outcome("notFound").with_work(SimDuration::from_millis(5))
    });
    sys.bind_fn("refAirlineQueryB", |_| {
        TaskBehavior::outcome("found")
            .with_work(SimDuration::from_millis(12))
            .with_object("flightList", text("FlightList", "fl"))
    });
    sys.bind_fn("refAirlineQueryC", |_| {
        TaskBehavior::outcome("found")
            .with_work(SimDuration::from_millis(30))
            .with_object("flightList", text("FlightList", "fl2"))
    });
    sys.bind_fn("refFlightReservation", |_| {
        TaskBehavior::outcome("reserved")
            .with_object("plane", text("Plane", "p"))
            .with_object("cost", text("Cost", "c"))
    });
    let remaining = Rc::new(Cell::new(hotel_failures));
    sys.bind_fn("refHotelReservation", move |_| {
        if remaining.get() > 0 {
            remaining.set(remaining.get() - 1);
            TaskBehavior::outcome("failed")
        } else {
            TaskBehavior::outcome("hotelBooked").with_object("hotel", text("Hotel", "h"))
        }
    });
    sys.bind_fn("refFlightCancellation", |_| {
        TaskBehavior::outcome("cancelled")
    });
    sys.bind_fn("refPrintTickets", |_| {
        TaskBehavior::outcome("printed").with_object("tickets", text("Tickets", "tk"))
    });
    sys
}

#[test]
fn fig7_fig8_match_whole_record_baseline_across_shard_counts() {
    let names: Vec<String> = (0..6).map(|i| format!("wf{i}")).collect();
    for shards in [1usize, 4] {
        // Fig. 7.
        let run_order = |whole: bool| {
            let mut sys = order_sys(whole, shards);
            for name in &names {
                sys.start(name, "order", "main", [("order", text("Order", "o"))])
                    .unwrap();
            }
            sys.run();
            fingerprints(&sys, &names)
        };
        let baseline = run_order(true);
        let per_object = run_order(false);
        assert_eq!(per_object, baseline, "fig7, {shards} shards");
        for (name, (status, trace, _)) in &per_object {
            assert!(
                matches!(status, InstanceStatus::Completed(o) if o.name == "orderCompleted"),
                "{name}: {status:?}"
            );
            assert!(!trace.is_empty());
        }
        // Fig. 8 with two hotel failures (two compound repeats, subtree
        // resets range-deleting per-object facts).
        let run_trip = |whole: bool| {
            let mut sys = trip_sys(whole, shards, 2);
            sys.start("t0", "trip", "main", [("user", text("User", "u"))])
                .unwrap();
            sys.run();
            assert!(sys.stats().repeats >= 2, "fig8 must repeat");
            fingerprints(&sys, &["t0".to_string()])
        };
        let baseline = run_trip(true);
        let per_object = run_trip(false);
        assert_eq!(per_object, baseline, "fig8, {shards} shards");
        assert!(matches!(&per_object["t0"].0, InstanceStatus::Completed(o) if o.name == "booked"));
    }
}

#[test]
fn one_shard_crash_recovery_matches_whole_record_baseline() {
    let names: Vec<String> = (0..8).map(|i| format!("wf{i}")).collect();
    let run = |whole: bool| {
        let mut sys = order_sys(whole, 4);
        for name in &names {
            sys.start(name, "order", "main", [("order", text("Order", "o"))])
                .unwrap();
        }
        // Crash the shard owning wf0 while work is in flight, let the
        // others keep committing, then recover it from its own WAL.
        let victim = sys.coordinator_node_for("wf0");
        sys.run_for(SimDuration::from_millis(45));
        sys.crash_now(victim);
        sys.run_for(SimDuration::from_millis(100));
        sys.restart_now(victim);
        sys.run();
        assert!(sys.stats().recovered_instances > 0, "recovery must run");
        fingerprints(&sys, &names)
    };
    let baseline = run(true);
    let per_object = run(false);
    assert_eq!(per_object, baseline);
    for (name, (status, _, _)) in &per_object {
        assert!(
            matches!(status, InstanceStatus::Completed(o) if o.name == "orderCompleted"),
            "{name}: {status:?}"
        );
    }
}

#[test]
fn midrun_reconfiguration_matches_whole_record_baseline() {
    // The paper's §2 scenario: add t5 to a running Fig. 1 diamond. The
    // reconfiguration remaps every persisted fact onto the re-lowered
    // plan's ids — task ids shift, and per-object sub-keys move with
    // their parent fact.
    let run = |whole: bool| {
        let mut sys = builder(whole, 1, 61);
        sys.register_script("diamond", samples::FIG1_DIAMOND, "diamond")
            .unwrap();
        for code in ["refT1", "refT2", "refT3", "refT4"] {
            sys.bind_fn(code, |ctx| {
                TaskBehavior::outcome("done")
                    .with_work(SimDuration::from_millis(10))
                    .with_object(
                        "out",
                        ObjectVal::text("Data", format!("{}:{}", ctx.path, ctx.attempt)),
                    )
            });
        }
        sys.bind_fn("refT5", |ctx| {
            TaskBehavior::outcome("done").with_object(
                "out",
                ObjectVal::text(
                    "Data",
                    format!("t5({},{})", ctx.input_text("left"), ctx.input_text("right")),
                ),
            )
        });
        sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
            .unwrap();
        sys.run_for(SimDuration::from_millis(15));
        sys.reconfigure(
            "d1",
            Reconfig::AddTask {
                scope_path: "diamond".into(),
                task_source: r#"
                    task t5 of taskclass Join {
                        implementation { "code" is "refT5" };
                        inputs {
                            input main {
                                inputobject left from { out of task t2 if output done };
                                inputobject right from { out of task t4 if output done }
                            }
                        }
                    }
                "#
                .into(),
            },
        )
        .unwrap();
        sys.run();
        assert_eq!(sys.stats().reconfigs, 1);
        fingerprints(&sys, &["d1".to_string()])
    };
    let baseline = run(true);
    let per_object = run(false);
    assert_eq!(per_object, baseline);
    let (status, trace, states) = &per_object["d1"];
    assert!(status.is_terminal(), "{status:?}");
    assert!(trace.iter().any(|(path, _)| path == "diamond/t5"));
    // t5 either finishes or is cancelled by the root terminating first
    // — identically in both layouts either way.
    assert!(
        matches!(
            states["diamond/t5"],
            CbState::Done { .. } | CbState::Cancelled
        ),
        "t5 state: {:?}",
        states["diamond/t5"]
    );
}

// ---------------------------------------------------------------------
// Randomized workflows (same generator shape as the sharding
// equivalence proptest: repeat loops, AnyOf alternatives, aborts, a
// nested compound).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn per_object_storage_matches_whole_record_baseline(
        shards in prop_oneof![Just(1usize), Just(4usize)],
        n in 1usize..4,
        seed in any::<u64>(),
        salts in proptest::collection::vec(any::<u64>(), 2..5),
    ) {
        let script = generated_script(n, seed);
        let names: Vec<String> = salts
            .iter()
            .enumerate()
            .map(|(i, salt)| format!("wf{i}-{salt:016x}"))
            .collect();
        let baseline = run_generated(shards, config(true), n, seed, &script, &names);
        let per_object = run_generated(shards, config(false), n, seed, &script, &names);
        prop_assert_eq!(&per_object, &baseline, "shards={} n={} seed={}", shards, n, seed);
        for (name, (status, trace, _)) in &per_object {
            prop_assert!(status.is_terminal(), "{}: {:?}", name, status);
            prop_assert!(!trace.is_empty(), "{} never dispatched", name);
        }
    }
}
