//! End-to-end reproductions of the paper's three example applications
//! (§5.1 network management, §5.2 order processing, §5.3 business trip)
//! plus the Fig. 1 dependency diamond, the Fig. 2 input-set and
//! alternative-source semantics and Fig. 5's nested compounds.

mod common;

use common::text;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use flowscript_core::samples;
use flowscript_engine::{
    CbState, EngineConfig, InstanceStatus, InvokeCtx, ObjectVal, ObsEventKind, ObserveLevel,
    TaskBehavior, WorkflowSystem,
};
use flowscript_sim::net::LinkConfig;
use flowscript_sim::SimDuration;

// ---------------------------------------------------------------------
// Fig. 1: the four-task diamond.
// ---------------------------------------------------------------------

fn bind_diamond(sys: &WorkflowSystem) {
    sys.bind_fn("refT1", |ctx| {
        TaskBehavior::outcome("done").with_object(
            "out",
            ObjectVal::text("Data", format!("{}+t1", ctx.input_text("seed"))),
        )
    });
    sys.bind_fn("refT2", |_| {
        TaskBehavior::outcome("done").with_object("out", text("Data", "t2"))
    });
    sys.bind_fn("refT3", |ctx| {
        TaskBehavior::outcome("done").with_object(
            "out",
            ObjectVal::text("Data", format!("{}+t3", ctx.input_text("in"))),
        )
    });
    sys.bind_fn("refT4", |ctx| {
        TaskBehavior::outcome("done").with_object(
            "out",
            ObjectVal::text(
                "Data",
                format!("{}|{}", ctx.input_text("left"), ctx.input_text("right")),
            ),
        )
    });
}

#[test]
fn fig1_diamond_ordering_and_dataflow() {
    let mut sys = WorkflowSystem::builder().executors(3).seed(11).build();
    sys.register_script("diamond", samples::FIG1_DIAMOND, "diamond")
        .unwrap();
    bind_diamond(&sys);
    sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    let outcome = sys.outcome("d1").expect("diamond completes");
    assert_eq!(outcome.name, "done");
    // t4 joined t2's (notification-started) output with t3's dataflow.
    assert_eq!(outcome.objects["out"].as_text(), "t2|s+t1+t3");
    // All four tasks done.
    let states = sys.task_states("d1");
    for task in ["t1", "t2", "t3", "t4"] {
        assert!(
            matches!(states[&format!("diamond/{task}")], CbState::Done { .. }),
            "{task}: {:?}",
            states[&format!("diamond/{task}")]
        );
    }
}

#[test]
fn fig1_determinism_same_seed_same_trace() {
    fn run(seed: u64) -> String {
        let mut sys = WorkflowSystem::builder().executors(3).seed(seed).build();
        sys.register_script("diamond", samples::FIG1_DIAMOND, "diamond")
            .unwrap();
        bind_diamond(&sys);
        sys.start("d1", "diamond", "main", [("seed", text("Data", "s"))])
            .unwrap();
        sys.run();
        sys.sim_trace().render()
    }
    assert_eq!(run(42), run(42));
}

// ---------------------------------------------------------------------
// Fig. 2 semantics: alternative input sets with a timer.
// ---------------------------------------------------------------------

const TIMEOUT_SCRIPT: &str = r#"
class Data;
class Tick;

taskclass Slow {
    inputs { input main { seed of class Data } };
    outputs { outcome done { out of class Data } }
}

taskclass Timer {
    inputs { input main { seed of class Data } };
    outputs { outcome fired { } }
}

taskclass Consumer {
    inputs {
        input main { in of class Data };
        input fallback { }
    };
    outputs { outcome fromData { }; outcome fromTimeout { } }
}

taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome viaData { }; outcome viaTimeout { } }
}

compoundtask root of taskclass Root {
    task slow of taskclass Slow {
        implementation { "code" is "refSlow" };
        inputs { input main { inputobject seed from { seed of task root if input main } } }
    };
    task timeout of taskclass Timer {
        implementation { "code" is "builtin:timer"; "duration_ms" is "100" };
        inputs { input main { inputobject seed from { seed of task root if input main } } }
    };
    task consumer of taskclass Consumer {
        implementation { "code" is "refConsumer" };
        inputs {
            input main {
                inputobject in from { out of task slow if output done }
            };
            input fallback {
                notification from { task timeout if output fired }
            }
        }
    };
    outputs {
        outcome viaData { notification from { task consumer if output fromData } };
        outcome viaTimeout { notification from { task consumer if output fromTimeout } }
    }
}
"#;

#[test]
fn fig2_timer_set_wins_when_producer_is_slow() {
    let mut sys = WorkflowSystem::builder().executors(2).seed(5).build();
    sys.register_script("t", TIMEOUT_SCRIPT, "root").unwrap();
    // The slow producer takes 10 simulated seconds; the timer fires at
    // 100ms — the fallback set must win.
    sys.bind_fn("refSlow", |_| {
        TaskBehavior::outcome("done")
            .with_object("out", ObjectVal::text("Data", "late"))
            .with_work(SimDuration::from_secs(10))
    });
    sys.bind_fn("refConsumer", |ctx| {
        if ctx.set == "main" {
            TaskBehavior::outcome("fromData")
        } else {
            TaskBehavior::outcome("fromTimeout")
        }
    });
    sys.start("t1", "t", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("t1").unwrap().name, "viaTimeout");
}

#[test]
fn fig2_declared_set_order_wins_when_both_ready() {
    let mut sys = WorkflowSystem::builder().executors(2).seed(6).build();
    sys.register_script("t", TIMEOUT_SCRIPT, "root").unwrap();
    // Fast producer (1ms) against a 100ms timer: main set wins.
    sys.bind_fn("refSlow", |_| {
        TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", "early"))
    });
    sys.bind_fn("refConsumer", |ctx| {
        if ctx.set == "main" {
            TaskBehavior::outcome("fromData")
        } else {
            TaskBehavior::outcome("fromTimeout")
        }
    });
    sys.start("t1", "t", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("t1").unwrap().name, "viaData");
}

/// A consumer whose one input object has `k` alternative sources
/// (redundant data sources, §3), each a producer fed the root's seed.
fn alternatives_source(k: usize) -> String {
    let producers: String = (0..k)
        .map(|i| {
            format!(
                r#"    task p{i} of taskclass Stage {{
        implementation {{ "code" is "refP{i}" }};
        inputs {{ input main {{ inputobject in from {{ in of task root if input main }} }} }}
    }};
"#
            )
        })
        .collect();
    let sources: Vec<String> = (0..k)
        .map(|i| format!("out of task p{i} if output done"))
        .collect();
    format!(
        r#"
class Data;
taskclass Stage {{
    inputs {{ input main {{ in of class Data }} }};
    outputs {{ outcome done {{ out of class Data }}; outcome failed {{ }} }}
}}
compoundtask root of taskclass Stage {{
{producers}    task consumer of taskclass Stage {{
        implementation {{ "code" is "refEcho" }};
        inputs {{ input main {{ inputobject in from {{ {} }} }} }}
    }};
    outputs {{ outcome done {{ outputobject out from {{ out of task consumer if output done }} }} }}
}}
"#,
        sources.join("; ")
    )
}

fn echo(ctx: &InvokeCtx) -> TaskBehavior {
    TaskBehavior::outcome("done").with_object("out", text("Data", &ctx.input_text("in")))
}

#[test]
fn fig2_the_one_alternative_source_that_succeeds_feeds_the_consumer() {
    for k in [1usize, 2, 4, 8] {
        let mut sys = WorkflowSystem::builder().executors(3).seed(20).build();
        sys.register_script("alts", &alternatives_source(k), "root")
            .unwrap();
        // Every producer but the last fails; the last takes its time.
        for i in 0..k {
            sys.bind_fn(&format!("refP{i}"), move |_| match i + 1 == k {
                false => TaskBehavior::outcome("failed"),
                true => TaskBehavior::outcome("done")
                    .with_work(SimDuration::from_millis(5))
                    .with_object("out", text("Data", &format!("from-p{i}"))),
            });
        }
        sys.bind_fn("refEcho", echo);
        sys.start("a1", "alts", "main", [("in", text("Data", "s"))])
            .unwrap();
        sys.run();
        let outcome = sys.outcome("a1").expect("one good source is enough");
        let winner = format!("from-p{}", k - 1);
        assert_eq!(outcome.objects["out"].as_text(), winner, "k={k}");
    }
}

// ---------------------------------------------------------------------
// Fig. 5: compound tasks nest.
// ---------------------------------------------------------------------

/// One leaf under `depth` compound scopes (fig. 5 generalised): the
/// root's input reaches it, and its output the root's outcome, through
/// every level.
fn nested_source(depth: usize) -> String {
    let scope = |level: usize| match level {
        0 => "root".to_string(),
        n => format!("level{n}"),
    };
    let wired = |kind: &str, name: &str, parent: &str, body: &str| {
        format!(
            r#"{kind} {name} of taskclass Stage {{
    inputs {{ input main {{ inputobject in from {{ in of task {parent} if input main }} }} }};
    {body}
}};
outputs {{ outcome done {{ outputobject out from {{ out of task {name} if output done }} }} }}"#
        )
    };
    let code = r#"implementation { "code" is "refEcho" }"#;
    let mut body = wired("task", "leaf", &scope(depth - 1), code);
    for level in (1..depth).rev() {
        body = wired("compoundtask", &scope(level), &scope(level - 1), &body);
    }
    format!(
        r#"
class Data;
taskclass Stage {{
    inputs {{ input main {{ in of class Data }} }};
    outputs {{ outcome done {{ out of class Data }} }}
}}
compoundtask root of taskclass Stage {{
{body}
}}
"#
    )
}

#[test]
fn fig5_a_leaf_runs_under_any_depth_of_compound_scopes() {
    for depth in [1usize, 2, 4, 8] {
        let source = nested_source(depth);
        let schema = flowscript_core::schema::compile_source(&source, "root")
            .unwrap_or_else(|d| panic!("depth {depth}: {d}\n{source}"));
        assert_eq!(schema.leaf_count(), 1, "depth {depth}");

        let mut sys = WorkflowSystem::builder().executors(2).seed(30).build();
        sys.register_script("nested", &source, "root").unwrap();
        sys.bind_fn("refEcho", echo);
        sys.start("n1", "nested", "main", [("in", text("Data", "x"))])
            .unwrap();
        sys.run();
        let outcome = sys.outcome("n1").expect("the leaf's outcome surfaces");
        assert_eq!(outcome.objects["out"].as_text(), "x", "depth {depth}");
        let levels: String = (1..depth).map(|l| format!("level{l}/")).collect();
        let leaf = &sys.task_states("n1")[&format!("root/{levels}leaf")];
        assert!(
            matches!(leaf, CbState::Done { .. }),
            "depth {depth}: {leaf:?}"
        );
    }
}

// ---------------------------------------------------------------------
// §5.1 / Fig. 6: the service impact application.
// ---------------------------------------------------------------------

fn bind_service_impact(sys: &WorkflowSystem, resolvable: bool, analysis_fails: bool) {
    sys.bind_fn("refAlarmCorrelator", |ctx| {
        TaskBehavior::outcome("foundFault").with_object(
            "faultReport",
            ObjectVal::text(
                "FaultReport",
                format!("fault-from-{}", ctx.input_text("alarmSource")),
            ),
        )
    });
    if analysis_fails {
        sys.bind_fn("refServiceImpactAnalysis", |_| {
            TaskBehavior::outcome("serviceImpactAnalysisFailure")
        });
    } else {
        sys.bind_fn("refServiceImpactAnalysis", |ctx| {
            TaskBehavior::outcome("foundImpacts").with_object(
                "serviceImpactReports",
                ObjectVal::text(
                    "ServiceImpactReports",
                    format!("impacts({})", ctx.input_text("faultReport")),
                ),
            )
        });
    }
    if resolvable {
        sys.bind_fn("refServiceImpactResolution", |ctx| {
            TaskBehavior::outcome("foundResolution").with_object(
                "resolutionReport",
                ObjectVal::text(
                    "ResolutionReport",
                    format!("resolve({})", ctx.input_text("serviceImpactReports")),
                ),
            )
        });
    } else {
        sys.bind_fn("refServiceImpactResolution", |_| {
            TaskBehavior::outcome("foundNoResolution")
        });
    }
}

#[test]
fn fig6_service_impact_resolved_path() {
    let mut sys = WorkflowSystem::builder().executors(3).seed(21).build();
    sys.register_script("si", samples::SERVICE_IMPACT, "serviceImpactApplication")
        .unwrap();
    bind_service_impact(&sys, true, false);
    sys.start(
        "net1",
        "si",
        "main",
        [("alarmsSource", text("AlarmsSource", "linkdown-alarms"))],
    )
    .unwrap();
    sys.run();
    let outcome = sys.outcome("net1").expect("resolved");
    assert_eq!(outcome.name, "resolved");
    assert_eq!(
        outcome.objects["resolutionReport"].as_text(),
        "resolve(impacts(fault-from-linkdown-alarms))"
    );
}

#[test]
fn fig6_service_impact_not_resolved_path() {
    let mut sys = WorkflowSystem::builder().executors(3).seed(22).build();
    sys.register_script("si", samples::SERVICE_IMPACT, "serviceImpactApplication")
        .unwrap();
    bind_service_impact(&sys, false, false);
    sys.start(
        "net1",
        "si",
        "main",
        [("alarmsSource", text("AlarmsSource", "a"))],
    )
    .unwrap();
    sys.run();
    assert_eq!(sys.outcome("net1").unwrap().name, "notResolved");
}

#[test]
fn fig6_service_impact_failure_path() {
    let mut sys = WorkflowSystem::builder().executors(3).seed(23).build();
    sys.register_script("si", samples::SERVICE_IMPACT, "serviceImpactApplication")
        .unwrap();
    bind_service_impact(&sys, true, true);
    sys.start(
        "net1",
        "si",
        "main",
        [("alarmsSource", text("AlarmsSource", "a"))],
    )
    .unwrap();
    sys.run();
    let outcome = sys.outcome("net1").unwrap();
    assert_eq!(outcome.name, "serviceImpactApplicationFailure");
    // Resolution never ran: it was cancelled with the scope.
    let states = sys.task_states("net1");
    assert_eq!(
        states["serviceImpactApplication/serviceImpactResolution"],
        CbState::Cancelled
    );
}

// ---------------------------------------------------------------------
// §5.2 / Fig. 7: order processing.
// ---------------------------------------------------------------------

// File-local: the §5.2 scenarios steer the authorisation and stock
// outcomes, which `common::bind_order` fixes to the happy path.
fn bind_order(sys: &WorkflowSystem, authorised: bool, in_stock: bool) {
    if authorised {
        sys.bind_fn("refPaymentAuthorisation", |ctx| {
            TaskBehavior::outcome("authorised").with_object(
                "paymentInfo",
                ObjectVal::text("PaymentInfo", format!("pay({})", ctx.input_text("order"))),
            )
        });
    } else {
        sys.bind_fn("refPaymentAuthorisation", |_| {
            TaskBehavior::outcome("notAuthorised")
        });
    }
    if in_stock {
        sys.bind_fn("refCheckStock", |ctx| {
            TaskBehavior::outcome("stockAvailable").with_object(
                "stockInfo",
                ObjectVal::text("StockInfo", format!("stock({})", ctx.input_text("order"))),
            )
        });
    } else {
        sys.bind_fn("refCheckStock", |_| {
            TaskBehavior::outcome("stockNotAvailable")
        });
    }
    sys.bind_fn("refDispatch", |ctx| {
        TaskBehavior::outcome("dispatchCompleted").with_object(
            "dispatchNote",
            ObjectVal::text(
                "DispatchNote",
                format!("note({})", ctx.input_text("stockInfo")),
            ),
        )
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
}

#[test]
fn fig7_order_completes() {
    let mut sys = WorkflowSystem::builder().executors(4).seed(31).build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    bind_order(&sys, true, true);
    sys.start("o1", "order", "main", [("order", text("Order", "order-7"))])
        .unwrap();
    sys.run();
    let outcome = sys.outcome("o1").expect("completes");
    assert_eq!(outcome.name, "orderCompleted");
    assert_eq!(
        outcome.objects["dispatchNote"].as_text(),
        "note(stock(order-7))"
    );
    // The full causal chain: all four tasks terminated.
    let states = sys.task_states("o1");
    for task in [
        "paymentAuthorisation",
        "checkStock",
        "dispatch",
        "paymentCapture",
    ] {
        assert!(matches!(
            states[&format!("processOrderApplication/{task}")],
            CbState::Done { .. }
        ));
    }
}

#[test]
fn fig7_order_cancelled_on_no_stock() {
    let mut sys = WorkflowSystem::builder().executors(4).seed(32).build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    bind_order(&sys, true, false);
    sys.start("o1", "order", "main", [("order", text("Order", "order-8"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("o1").unwrap().name, "orderCancelled");
    // Dispatch and capture never ran.
    let states = sys.task_states("o1");
    assert_eq!(
        states["processOrderApplication/dispatch"],
        CbState::Cancelled
    );
    assert_eq!(
        states["processOrderApplication/paymentCapture"],
        CbState::Cancelled
    );
}

#[test]
fn fig7_order_cancelled_on_payment_refusal() {
    let mut sys = WorkflowSystem::builder().executors(4).seed(33).build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    bind_order(&sys, false, true);
    sys.start("o1", "order", "main", [("order", text("Order", "order-9"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("o1").unwrap().name, "orderCancelled");
}

// ---------------------------------------------------------------------
// §5.3 / Figs. 8–9: the business trip with loop, compensation and mark.
// ---------------------------------------------------------------------

/// Binds the trip implementations. The hotel fails `hotel_failures`
/// times before succeeding; airline A never finds a flight, B and C do.
/// (File-local: `common::bind_trip` fails the hotel at most once, keyed
/// on the instance's input text.)
fn bind_trip(sys: &WorkflowSystem, hotel_failures: u32) {
    sys.bind_fn("refDataAcquisition", |ctx| {
        TaskBehavior::outcome("acquired").with_object(
            "tripData",
            ObjectVal::text("TripData", format!("trip({})", ctx.input_text("user"))),
        )
    });
    sys.bind_fn("refAirlineQueryA", |_| {
        TaskBehavior::outcome("notFound").with_work(SimDuration::from_millis(5))
    });
    sys.bind_fn("refAirlineQueryB", |ctx| {
        TaskBehavior::outcome("found")
            .with_work(SimDuration::from_millis(12))
            .with_object(
                "flightList",
                ObjectVal::text(
                    "FlightList",
                    format!("fl-B({})", ctx.input_text("tripData")),
                ),
            )
    });
    sys.bind_fn("refAirlineQueryC", |ctx| {
        TaskBehavior::outcome("found")
            .with_work(SimDuration::from_millis(30))
            .with_object(
                "flightList",
                ObjectVal::text(
                    "FlightList",
                    format!("fl-C({})", ctx.input_text("tripData")),
                ),
            )
    });
    sys.bind_fn("refFlightReservation", |ctx| {
        TaskBehavior::outcome("reserved")
            .with_object(
                "plane",
                ObjectVal::text("Plane", format!("plane({})", ctx.input_text("flightList"))),
            )
            .with_object("cost", ObjectVal::text("Cost", "420"))
    });
    let failures = Arc::new(AtomicU32::new(hotel_failures));
    sys.bind_fn("refHotelReservation", move |_| {
        if failures.load(Ordering::Relaxed) > 0 {
            failures.fetch_sub(1, Ordering::Relaxed);
            TaskBehavior::outcome("failed")
        } else {
            TaskBehavior::outcome("hotelBooked")
                .with_object("hotel", ObjectVal::text("Hotel", "grand-hotel"))
        }
    });
    sys.bind_fn("refFlightCancellation", |_| {
        TaskBehavior::outcome("cancelled")
    });
    sys.bind_fn("refPrintTickets", |ctx| {
        TaskBehavior::outcome("printed").with_object(
            "tickets",
            ObjectVal::text(
                "Tickets",
                format!(
                    "tickets({}, {})",
                    ctx.input_text("plane"),
                    ctx.input_text("hotel")
                ),
            ),
        )
    });
}

#[test]
fn fig8_fig9_trip_books_first_time() {
    let mut sys = WorkflowSystem::builder().executors(4).seed(41).build();
    sys.register_script("trip", samples::BUSINESS_TRIP, "tripReservation")
        .unwrap();
    bind_trip(&sys, 0);
    sys.start("trip1", "trip", "main", [("user", text("User", "kim"))])
        .unwrap();
    sys.run();
    let outcome = sys.outcome("trip1").expect("booked");
    assert_eq!(outcome.name, "booked");
    assert!(outcome.objects["tickets"]
        .as_text()
        .contains("plane(fl-B(trip(kim)))"));
    // The redundant-source race: B (12ms) beat C (30ms), A found nothing.
    // The toPay mark was released.
    let mark = sys
        .output_fact("trip1", "tripReservation", "toPay")
        .expect("toPay mark");
    assert_eq!(mark["cost"].as_text(), "420");
    // No compensation was needed.
    let states = sys.task_states("trip1");
    assert!(matches!(
        states["tripReservation/businessReservation/flightCancellation"],
        CbState::Cancelled
    ));
}

#[test]
fn fig8_fig9_hotel_failures_compensate_and_retry() {
    let mut sys = WorkflowSystem::builder().executors(4).seed(42).build();
    sys.register_script("trip", samples::BUSINESS_TRIP, "tripReservation")
        .unwrap();
    bind_trip(&sys, 2);
    sys.start("trip1", "trip", "main", [("user", text("User", "kim"))])
        .unwrap();
    sys.run();
    let outcome = sys.outcome("trip1").expect("booked after retries");
    assert_eq!(outcome.name, "booked");
    // Two hotel failures ⇒ two compensations ⇒ two compound repeats.
    assert_eq!(sys.stats().repeats, 2, "stats: {:?}", sys.stats());
    // The mark from the final (successful) incarnation survives.
    assert!(sys
        .output_fact("trip1", "tripReservation", "toPay")
        .is_some());
}

/// Fig. 8's `checkFlightReservation` takes the first airline to answer
/// `found` and cancels the others. The cancel reaches the executor that
/// runs airline C's 30 ms query, so nothing of the trip outlives its
/// root's outcome by more than one link hop: the world is quiescent
/// then, not when C's abandoned query would have finished.
#[test]
fn fig8_a_cancelled_query_stops_where_it_runs() {
    let config = EngineConfig {
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(4)
        .seed(44)
        .config(config)
        .build();
    sys.register_script("trip", samples::BUSINESS_TRIP, "tripReservation")
        .unwrap();
    bind_trip(&sys, 0);
    sys.start("trip1", "trip", "main", [("user", text("User", "kim"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("trip1").expect("booked").name, "booked");
    let trace = sys.trace("trip1");
    let terminal = trace
        .iter()
        .find(|event| matches!(event.kind, ObsEventKind::Terminal { .. }))
        .expect("the root's outcome is traced");
    let hop = LinkConfig::default();
    let hop = (hop.base_latency + hop.jitter).as_nanos();
    let quiet_after = sys.now().as_nanos() - terminal.at_ns;
    assert!(
        quiet_after <= hop,
        "the world went quiet {quiet_after} ns after the root's outcome"
    );
    assert!(sys.stats().cancels >= 1, "{:?}", sys.stats());
}

#[test]
fn fig8_trip_fails_when_no_flight_exists() {
    let mut sys = WorkflowSystem::builder().executors(4).seed(43).build();
    sys.register_script("trip", samples::BUSINESS_TRIP, "tripReservation")
        .unwrap();
    bind_trip(&sys, 0);
    // Override all three airlines to find nothing.
    for reference in ["refAirlineQueryA", "refAirlineQueryB", "refAirlineQueryC"] {
        sys.bind_fn(reference, |_| TaskBehavior::outcome("notFound"));
    }
    sys.start("trip1", "trip", "main", [("user", text("User", "kim"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("trip1").unwrap().name, "notBooked");
    // No mark: nothing to pay.
    assert!(sys
        .output_fact("trip1", "tripReservation", "toPay")
        .is_none());
}

#[test]
fn fig8_repeat_limit_bounds_infinite_hotel_failures() {
    let config = EngineConfig {
        max_repeats: 4,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(4)
        .seed(44)
        .config(config)
        .build();
    sys.register_script("trip", samples::BUSINESS_TRIP, "tripReservation")
        .unwrap();
    bind_trip(&sys, u32::MAX); // the hotel never confirms
    sys.start("trip1", "trip", "main", [("user", text("User", "kim"))])
        .unwrap();
    sys.run();
    match sys.status("trip1").unwrap() {
        InstanceStatus::Stuck { reason } => {
            assert!(reason.contains("repeat limit"), "{reason}");
        }
        other => panic!("expected stuck on repeat limit, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// §4.3: a script as a task implementation.
// ---------------------------------------------------------------------

/// A one-task script of class `Produce`: its leaf, bound under
/// `refBracket`, produces the root's message.
const BRACKET: &str = r#"
class Message;

taskclass Produce {
    inputs { input main { seed of class Message } };
    outputs { outcome produced { message of class Message } }
}

compoundtask bracket of taskclass Produce {
    task leaf of taskclass Produce {
        implementation { "code" is "refBracket" };
        inputs {
            input main {
                inputobject seed from { seed of task bracket if input main }
            }
        }
    };
    outputs {
        outcome produced {
            outputobject message from { message of task leaf if output produced }
        }
    }
}
"#;

/// QUICKSTART's producer is a nested world: `refProduce` names the
/// one-task `BRACKET` script, whose leaf is a closure under another
/// code. The outer consumer sees what the inner leaf made.
#[test]
fn script_bound_as_implementation_runs_nested_workflow() {
    let mut sys = WorkflowSystem::builder().executors(2).seed(51).build();
    sys.register_script("q", samples::QUICKSTART, "pipeline")
        .unwrap();
    sys.bind_script("refProduce", BRACKET, "bracket");
    sys.bind_fn("refBracket", |ctx| {
        TaskBehavior::outcome("produced").with_object(
            "message",
            ObjectVal::text("Message", format!("[{}]", ctx.input_text("seed"))),
        )
    });
    sys.bind_fn("refConsume", |ctx| {
        TaskBehavior::outcome("consumed").with_object(
            "result",
            ObjectVal::text("Message", ctx.input_text("message")),
        )
    });
    sys.start("i1", "q", "main", [("seed", text("Message", "x"))])
        .unwrap();
    sys.run();
    let outcome = sys.outcome("i1").expect("completed");
    assert_eq!(outcome.objects["result"].as_text(), "[x]");
}

/// A binding cycle — QUICKSTART's producer bound to QUICKSTART itself —
/// stops at the nesting limit, and the instance says so: a nested
/// world retries nothing, and its stuck reason is carried up, so the
/// cycle costs one world per level and attempt, not a tree of retries.
#[test]
fn a_binding_cycle_stops_at_the_nesting_limit_and_names_it() {
    let mut sys = WorkflowSystem::builder().executors(2).seed(52).build();
    sys.register_script("q", samples::QUICKSTART, "pipeline")
        .unwrap();
    sys.bind_script("refProduce", samples::QUICKSTART, "pipeline");
    sys.bind_fn("refConsume", |_| TaskBehavior::outcome("rejected"));
    sys.start("i1", "q", "main", [("seed", text("Message", "x"))])
        .unwrap();
    sys.run();
    match sys.status("i1").unwrap() {
        InstanceStatus::Stuck { reason } => {
            assert!(reason.contains("script nesting deeper than 8"), "{reason}");
            // The innermost cause is carried once, with its depth, not
            // each level's summary wrapped in the next.
            assert!(reason.len() <= 256, "{} B: {reason}", reason.len());
            assert!(reason.contains("stuck at depth 8: "), "{reason}");
        }
        other => panic!("expected stuck on the nesting limit, got {other:?}"),
    }
}
