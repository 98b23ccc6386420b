//! Shared workloads for the per-figure benchmark harness.
//!
//! Each bench target regenerates the behaviour of one figure of the
//! ICDCS'98 paper (see DESIGN.md §4 for the experiment index). This crate
//! holds the workload builders: fully-bound workflow systems for the
//! paper's applications and parameterised generators (chains, fans,
//! nesting depths, redundant-source counts, random scripts).

use std::cell::Cell;
use std::rc::Rc;

use flowscript_core::builder;
use flowscript_core::fmt::format_script;
use flowscript_core::samples;
use flowscript_engine::coordinator::EngineConfig;
use flowscript_engine::{InvokeCtx, ObjectVal, TaskBehavior, WorkflowSystem};
use flowscript_sim::SimDuration;

/// A workflow system with benchmarking defaults (trace off).
pub fn bench_system(seed: u64, executors: usize) -> WorkflowSystem {
    WorkflowSystem::builder()
        .executors(executors)
        .seed(seed)
        .trace(false)
        .build()
}

/// A system with a custom engine config (trace off).
pub fn bench_system_with(seed: u64, executors: usize, config: EngineConfig) -> WorkflowSystem {
    WorkflowSystem::builder()
        .executors(executors)
        .seed(seed)
        .config(config)
        .trace(false)
        .build()
}

fn text(class: &str, value: &str) -> ObjectVal {
    ObjectVal::text(class, value)
}

// ---------------------------------------------------------------------
// Paper applications, fully bound.
// ---------------------------------------------------------------------

/// Registers and binds the Fig. 1 diamond; returns the ready system.
pub fn diamond_system(seed: u64) -> WorkflowSystem {
    let mut sys = bench_system(seed, 3);
    sys.register_script("diamond", samples::FIG1_DIAMOND, "diamond")
        .expect("sample valid");
    sys.bind_fn("refT1", |_| {
        TaskBehavior::outcome("done").with_object("out", text("Data", "1"))
    });
    sys.bind_fn("refT2", |_| {
        TaskBehavior::outcome("done").with_object("out", text("Data", "2"))
    });
    sys.bind_fn("refT3", |_| {
        TaskBehavior::outcome("done").with_object("out", text("Data", "3"))
    });
    sys.bind_fn("refT4", |_| {
        TaskBehavior::outcome("done").with_object("out", text("Data", "4"))
    });
    sys
}

/// Runs one diamond instance to completion; panics unless it completes.
pub fn run_diamond(sys: &mut WorkflowSystem, instance: &str) {
    sys.start(instance, "diamond", "main", [("seed", text("Data", "s"))])
        .expect("starts");
    sys.run();
    assert!(sys.outcome(instance).is_some());
}

/// Registers and binds §5.1's service impact application.
pub fn service_impact_system(seed: u64) -> WorkflowSystem {
    let mut sys = bench_system(seed, 3);
    sys.register_script("si", samples::SERVICE_IMPACT, "serviceImpactApplication")
        .expect("sample valid");
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
    sys
}

/// Runs one service-impact incident; asserts `resolved`.
pub fn run_service_impact(sys: &mut WorkflowSystem, instance: &str) {
    sys.start(
        instance,
        "si",
        "main",
        [("alarmsSource", text("AlarmsSource", "a"))],
    )
    .expect("starts");
    sys.run();
    assert_eq!(sys.outcome(instance).expect("completes").name, "resolved");
}

/// Registers and binds §5.2's order processing application.
pub fn order_system(seed: u64) -> WorkflowSystem {
    let mut sys = bench_system(seed, 4);
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .expect("sample valid");
    sys.bind_fn("refPaymentAuthorisation", |_| {
        TaskBehavior::outcome("authorised").with_object("paymentInfo", text("PaymentInfo", "p"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable").with_object("stockInfo", text("StockInfo", "st"))
    });
    sys.bind_fn("refDispatch", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_object("dispatchNote", text("DispatchNote", "n"))
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
    sys
}

/// Runs one order; asserts `orderCompleted`.
pub fn run_order(sys: &mut WorkflowSystem, instance: &str) {
    sys.start(instance, "order", "main", [("order", text("Order", "o"))])
        .expect("starts");
    sys.run();
    assert_eq!(
        sys.outcome(instance).expect("completes").name,
        "orderCompleted"
    );
}

/// Registers and binds §5.3's business trip; the hotel fails
/// `hotel_failures` times before confirming (each failure costs one
/// compensation plus one compound repeat).
pub fn trip_system(seed: u64, hotel_failures: u32) -> WorkflowSystem {
    let mut sys = bench_system(seed, 4);
    sys.register_script("trip", samples::BUSINESS_TRIP, "tripReservation")
        .expect("sample valid");
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

/// Runs one trip; asserts `booked`.
pub fn run_trip(sys: &mut WorkflowSystem, instance: &str) {
    sys.start(instance, "trip", "main", [("user", text("User", "u"))])
        .expect("starts");
    sys.run();
    assert_eq!(sys.outcome(instance).expect("completes").name, "booked");
}

// ---------------------------------------------------------------------
// Generated topologies.
// ---------------------------------------------------------------------

/// Canonical source of an `n`-stage chain.
pub fn chain_source(n: usize) -> String {
    format_script(&builder::chain(n))
}

/// Canonical source of a `width`-way fan-out/fan-in.
pub fn fan_source(width: usize) -> String {
    format_script(&builder::fan(width))
}

/// Binds the chain implementations onto `sys`.
pub fn bind_chain(sys: &WorkflowSystem, n: usize) {
    for i in 0..n {
        sys.bind_fn(&format!("ref{i}"), |ctx: &InvokeCtx| {
            TaskBehavior::outcome("done")
                .with_object("out", ObjectVal::text("Data", ctx.input_text("in")))
        });
    }
}

/// Binds the fan implementations onto `sys`.
pub fn bind_fan(sys: &WorkflowSystem, width: usize) {
    sys.bind_fn("refSource", |ctx: &InvokeCtx| {
        TaskBehavior::outcome("done")
            .with_object("out", ObjectVal::text("Data", ctx.input_text("in")))
    });
    for i in 0..width {
        sys.bind_fn(&format!("refW{i}"), |ctx: &InvokeCtx| {
            TaskBehavior::outcome("done")
                .with_object("out", ObjectVal::text("Data", ctx.input_text("in")))
        });
    }
    sys.bind_fn("refJoin", |_| {
        TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", "joined"))
    });
}

/// A compound nested `depth` scopes deep with one leaf at the bottom
/// (Fig. 5 generalised). Root compound is named `root`.
pub fn nested_source(depth: usize) -> String {
    let mut source = String::from(
        r#"
class Data;
taskclass Leaf {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
}
taskclass Wrap {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
}
"#,
    );
    // Innermost first: build nested compound text inside-out.
    let mut inner = String::from(
        r#"
        task leaf of taskclass Leaf {
            implementation { "code" is "refLeaf" };
            inputs { input main { inputobject in from { in of task LEVEL if input main } } }
        };
        outputs { outcome done { outputobject out from { out of task leaf if output done } } }
"#,
    );
    for level in (0..depth).rev() {
        let name = if level == 0 {
            "root".to_string()
        } else {
            format!("level{level}")
        };
        let body = inner.replace("LEVEL", &name);
        if level == 0 {
            source.push_str(&format!(
                "compoundtask root of taskclass Wrap {{\n{body}\n}}\n"
            ));
        } else {
            let parent = if level == 1 {
                "root".to_string()
            } else {
                format!("level{}", level - 1)
            };
            inner = format!(
                r#"
        compoundtask {name} of taskclass Wrap {{
            inputs {{ input main {{ inputobject in from {{ in of task {parent} if input main }} }} }};
            {body}
        }};
        outputs {{ outcome done {{ outputobject out from {{ out of task {name} if output done }} }} }}
"#
            );
        }
    }
    source
}

/// A script whose consumer has `k` alternative sources; only producer
/// `k-1` succeeds, the rest abort (redundant data sources, §3).
pub fn alternatives_source(k: usize) -> String {
    let mut source = String::from(
        r#"
class Data;
taskclass Producer {
    inputs { input main { in of class Data } };
    outputs { outcome ok { out of class Data }; outcome failed { } }
}
taskclass Consumer {
    inputs { input main { in of class Data } };
    outputs { outcome done { } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
"#,
    );
    for i in 0..k {
        source.push_str(&format!(
            r#"    task p{i} of taskclass Producer {{
        implementation {{ "code" is "refP{i}" }};
        inputs {{ input main {{ inputobject in from {{ seed of task root if input main }} }} }}
    }};
"#
        ));
    }
    source.push_str(
        r#"    task consumer of taskclass Consumer {
        implementation { "code" is "refConsumer" };
        inputs { input main { inputobject in from {
"#,
    );
    for i in 0..k {
        let sep = if i + 1 < k { ";" } else { "" };
        source.push_str(&format!("            out of task p{i} if output ok{sep}\n"));
    }
    source.push_str(
        r#"        } } }
    };
    outputs { outcome done { notification from { task consumer if output done } } }
}
"#,
    );
    source
}

/// Binds the alternatives workload: producers `0..k-1` fail, `k-1`
/// succeeds after `winner_delay`.
pub fn bind_alternatives(sys: &WorkflowSystem, k: usize, winner_delay: SimDuration) {
    for i in 0..k {
        if i + 1 == k {
            sys.bind_fn(&format!("refP{i}"), move |_: &InvokeCtx| {
                TaskBehavior::outcome("ok")
                    .with_work(winner_delay)
                    .with_object("out", ObjectVal::text("Data", "good"))
            });
        } else {
            sys.bind_fn(&format!("refP{i}"), |_: &InvokeCtx| {
                TaskBehavior::outcome("failed")
            });
        }
    }
    sys.bind_fn("refConsumer", |_: &InvokeCtx| TaskBehavior::outcome("done"));
}

/// Generates a valid script with `n` chained tasks (each also falling
/// back to the root input) for parser/sema/compile throughput
/// measurements.
pub fn generated_script(n: usize) -> String {
    let mut source = String::from("class Data;\n");
    source.push_str(
        r#"taskclass Stage {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data }; abort outcome failed { } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
"#,
    );
    for i in 0..n {
        let from = if i == 0 {
            "inputobject in from { seed of task root if input main }".to_string()
        } else {
            format!(
                "inputobject in from {{ out of task t{} if output done; seed of task root if input main }}",
                i - 1
            )
        };
        source.push_str(&format!(
            r#"    task t{i} of taskclass Stage {{
        implementation {{ "code" is "ref{i}"; "priority" is "{p}" }};
        inputs {{ input main {{ {from} }} }}
    }};
"#,
            p = i % 7
        ));
    }
    source.push_str(&format!(
        "    outputs {{ outcome done {{ notification from {{ task t{} if output done }} }} }}\n}}\n",
        n.saturating_sub(1)
    ));
    source
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workloads_run() {
        let mut sys = diamond_system(1);
        run_diamond(&mut sys, "d");
        let mut sys = service_impact_system(2);
        run_service_impact(&mut sys, "s");
        let mut sys = order_system(3);
        run_order(&mut sys, "o");
        let mut sys = trip_system(4, 1);
        run_trip(&mut sys, "t");
    }

    #[test]
    fn nested_source_compiles_at_depths() {
        for depth in [1, 2, 5] {
            let source = nested_source(depth);
            let schema = flowscript_core::schema::compile_source(&source, "root")
                .unwrap_or_else(|d| panic!("depth {depth}: {d}\n{source}"));
            assert_eq!(schema.leaf_count(), 1, "depth {depth}");
        }
    }

    #[test]
    fn nested_workload_runs() {
        let source = nested_source(4);
        let mut sys = bench_system(9, 2);
        sys.register_script("nested", &source, "root").unwrap();
        sys.bind_fn("refLeaf", |ctx: &InvokeCtx| {
            TaskBehavior::outcome("done")
                .with_object("out", ObjectVal::text("Data", ctx.input_text("in")))
        });
        sys.start(
            "n1",
            "nested",
            "main",
            [("in", ObjectVal::text("Data", "x"))],
        )
        .unwrap();
        sys.run();
        assert!(sys.outcome("n1").is_some(), "{:?}", sys.status("n1"));
    }

    #[test]
    fn alternatives_workload_runs() {
        for k in [1, 3, 6] {
            let source = alternatives_source(k);
            let mut sys = bench_system(10 + k as u64, 3);
            sys.register_script("alts", &source, "root").unwrap();
            bind_alternatives(&sys, k, SimDuration::from_millis(5));
            sys.start(
                "a1",
                "alts",
                "main",
                [("seed", ObjectVal::text("Data", "s"))],
            )
            .unwrap();
            sys.run();
            assert!(sys.outcome("a1").is_some(), "k={k}: {:?}", sys.status("a1"));
        }
    }

    #[test]
    fn generated_script_compiles() {
        for n in [1, 10, 50] {
            let source = generated_script(n);
            let schema = flowscript_core::schema::compile_source(&source, "root")
                .unwrap_or_else(|d| panic!("n={n}: {d}"));
            assert_eq!(schema.leaf_count(), n);
        }
    }
}
