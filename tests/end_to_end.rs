//! Whole-stack end-to-end tests through the umbrella crate: many
//! instances, interleaved scripts, generated topologies and a
//! repeat-until-converged property under random seeds.

use flowscript::prelude::*;
use flowscript::samples;
use proptest::prelude::*;

fn text(class: &str, value: &str) -> ObjectVal {
    ObjectVal::text(class, value)
}

#[test]
fn many_concurrent_instances_of_different_scripts() {
    let mut sys = WorkflowSystem::builder().executors(4).seed(77).build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    sys.register_script("si", samples::SERVICE_IMPACT, "serviceImpactApplication")
        .unwrap();

    sys.bind_fn("refPaymentAuthorisation", |ctx| {
        TaskBehavior::outcome("authorised").with_object(
            "paymentInfo",
            ObjectVal::text("PaymentInfo", ctx.input_text("order")),
        )
    });
    sys.bind_fn("refCheckStock", |ctx| {
        TaskBehavior::outcome("stockAvailable").with_object(
            "stockInfo",
            ObjectVal::text("StockInfo", ctx.input_text("order")),
        )
    });
    sys.bind_fn("refDispatch", |ctx| {
        TaskBehavior::outcome("dispatchCompleted").with_object(
            "dispatchNote",
            ObjectVal::text(
                "DispatchNote",
                format!("note-{}", ctx.input_text("stockInfo")),
            ),
        )
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
    sys.bind_fn("refAlarmCorrelator", |_| {
        TaskBehavior::outcome("foundFault").with_object("faultReport", text("FaultReport", "f"))
    });
    sys.bind_fn("refServiceImpactAnalysis", |_| {
        TaskBehavior::outcome("foundImpacts")
            .with_object("serviceImpactReports", text("ServiceImpactReports", "i"))
    });
    sys.bind_fn("refServiceImpactResolution", |_| {
        TaskBehavior::outcome("foundResolution")
            .with_object("resolutionReport", text("ResolutionReport", "r"))
    });

    for i in 0..10 {
        sys.start(
            &format!("order-{i}"),
            "order",
            "main",
            [("order", text("Order", &format!("o{i}")))],
        )
        .unwrap();
        sys.start(
            &format!("incident-{i}"),
            "si",
            "main",
            [("alarmsSource", text("AlarmsSource", &format!("a{i}")))],
        )
        .unwrap();
    }
    sys.run();
    for i in 0..10 {
        let order = sys.outcome(&format!("order-{i}")).expect("order completes");
        assert_eq!(order.name, "orderCompleted");
        assert_eq!(
            order.objects["dispatchNote"].as_text(),
            format!("note-o{i}")
        );
        let incident = sys.outcome(&format!("incident-{i}")).expect("si completes");
        assert_eq!(incident.name, "resolved");
    }
}

#[test]
fn wide_fan_out_fan_in_topology() {
    let width = 24;
    let mut sys = WorkflowSystem::builder().executors(6).seed(78).build();
    sys.register_script("fan", &samples::fan(width), "root")
        .unwrap();
    sys.bind_fn("refSource", |ctx| {
        TaskBehavior::outcome("done")
            .with_object("out", ObjectVal::text("Data", ctx.input_text("in")))
    });
    for i in 0..width {
        sys.bind_fn(
            &format!("refW{i}"),
            move |ctx: &flowscript::engine::InvokeCtx| {
                TaskBehavior::outcome("done").with_object(
                    "out",
                    ObjectVal::text("Data", format!("{}:{i}", ctx.input_text("in"))),
                )
            },
        );
    }
    sys.bind_fn("refJoin", |ctx| {
        let joined = ctx.inputs().count();
        TaskBehavior::outcome("done")
            .with_object("out", ObjectVal::text("Data", format!("{joined} joined")))
    });
    sys.start("f1", "fan", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    let outcome = sys.outcome("f1").expect("fan completes");
    assert_eq!(outcome.objects["out"].as_text(), format!("{width} joined"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The business trip converges for any bounded number of hotel
    /// failures and any seed — the Fig. 8 loop always terminates.
    #[test]
    fn business_trip_converges(seed: u64, failures in 0u32..6) {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let mut sys = WorkflowSystem::builder().executors(4).seed(seed).build();
        sys.register_script("trip", samples::BUSINESS_TRIP, "tripReservation").unwrap();
        sys.bind_fn("refDataAcquisition", |_| {
            TaskBehavior::outcome("acquired")
                .with_object("tripData", ObjectVal::text("TripData", "t"))
        });
        sys.bind_fn("refAirlineQueryA", |_| TaskBehavior::outcome("notFound"));
        sys.bind_fn("refAirlineQueryB", |_| {
            TaskBehavior::outcome("found")
                .with_object("flightList", ObjectVal::text("FlightList", "fl"))
        });
        sys.bind_fn("refAirlineQueryC", |_| TaskBehavior::outcome("notFound"));
        sys.bind_fn("refFlightReservation", |_| {
            TaskBehavior::outcome("reserved")
                .with_object("plane", ObjectVal::text("Plane", "p"))
                .with_object("cost", ObjectVal::text("Cost", "c"))
        });
        let remaining = Arc::new(AtomicU32::new(failures));
        sys.bind_fn("refHotelReservation", move |_| {
            if remaining.load(Ordering::Relaxed) > 0 {
                remaining.fetch_sub(1, Ordering::Relaxed);
                TaskBehavior::outcome("failed")
            } else {
                TaskBehavior::outcome("hotelBooked")
                    .with_object("hotel", ObjectVal::text("Hotel", "h"))
            }
        });
        sys.bind_fn("refFlightCancellation", |_| TaskBehavior::outcome("cancelled"));
        sys.bind_fn("refPrintTickets", |_| {
            TaskBehavior::outcome("printed")
                .with_object("tickets", ObjectVal::text("Tickets", "tk"))
        });
        sys.start("t", "trip", "main", [("user", text("User", "u"))]).unwrap();
        sys.run();
        let outcome = sys.outcome("t");
        prop_assert!(outcome.is_some(), "status: {:?}", sys.status("t"));
        prop_assert_eq!(outcome.unwrap().name, "booked");
        prop_assert_eq!(sys.stats().repeats as u32, failures);
    }

    /// Chains of any small length complete and preserve dataflow order
    /// for any seed.
    #[test]
    fn chains_complete_for_any_seed(seed: u64, n in 1usize..12) {
        let mut sys = WorkflowSystem::builder().executors(3).seed(seed).build();
        sys.register_script("chain", &samples::chain(n), "root").unwrap();
        for i in 0..n {
            sys.bind_fn(&format!("ref{i}"), move |ctx: &flowscript::engine::InvokeCtx| {
                TaskBehavior::outcome("done").with_object(
                    "out",
                    ObjectVal::text("Data", format!("{}{i}", ctx.input_text("in"))),
                )
            });
        }
        sys.start("c", "chain", "main", [("seed", text("Data", "·"))]).unwrap();
        sys.run();
        let expected: String =
            std::iter::once("·".to_string()).chain((0..n).map(|i| i.to_string())).collect();
        let outcome = sys.outcome("c");
        prop_assert!(outcome.is_some());
        prop_assert_eq!(outcome.unwrap().objects["out"].as_text(), expected);
    }
}
