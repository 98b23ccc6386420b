//! The one harness the engine's integration suites share: the fig. 7 /
//! fig. 8 bindings and populations, the randomized-script generator,
//! and the per-instance fingerprint every equivalence suite (and the
//! golden files) compares.

#![allow(dead_code)]

use std::collections::BTreeMap;

use flowscript_core::samples;
use flowscript_engine::{
    CbState, EngineConfig, InstanceStatus, ObjectVal, ObserveLevel, Reconfig, TaskBehavior,
    WorkflowSystem,
};
use flowscript_sim::net::LinkConfig;
use flowscript_sim::{NodeId, SimDuration};
use flowscript_tx::{LogRecord, StableStore, StoreKey, Wal};

pub fn text(class: &str, value: &str) -> ObjectVal {
    ObjectVal::text(class, value)
}

/// Crashes `sys`'s coordinator and every executor at once, and brings
/// them back, the executors first and empty: the shard's restart census
/// finds nothing running, so it re-sends every attempt its log says is
/// executing.
pub fn restart_with_executors(sys: &mut WorkflowSystem) {
    let coordinator = sys.coordinator_node();
    let executors = sys.executor_nodes().to_vec();
    sys.crash_now(coordinator);
    for &executor in &executors {
        sys.crash_now(executor);
    }
    for &executor in &executors {
        sys.restart_now(executor);
    }
    restart_checked(sys, coordinator);
}

/// A fully deterministic link: equivalence runs must not depend on the
/// shared RNG (jitter draws), only on the topology.
pub fn det_link() -> LinkConfig {
    LinkConfig {
        base_latency: SimDuration::from_micros(200),
        jitter: SimDuration::ZERO,
        drop_prob: 0.0,
    }
}

/// The default pipeline with tight watchdogs and the dispatch trace on.
pub fn det_config() -> EngineConfig {
    EngineConfig {
        dispatch_timeout: SimDuration::from_millis(400),
        retry_backoff: SimDuration::from_millis(20),
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    }
}

// ---------------------------------------------------------------------
// Fig. 7 order processing and fig. 8 business trip.
// ---------------------------------------------------------------------

/// Fig. 7 bindings: pure functions of the invocation (per-instance
/// behaviour must not leak across instances through shared state), with
/// enough simulated work (~100ms per order) that a mid-run crash, drain
/// or rebalance catches instances with tasks genuinely executing.
pub fn bind_order(sys: &WorkflowSystem) {
    sys.bind_fn("refPaymentAuthorisation", |_| {
        TaskBehavior::outcome("authorised")
            .with_work(SimDuration::from_millis(30))
            .with_object("paymentInfo", ObjectVal::text("PaymentInfo", "p"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable")
            .with_work(SimDuration::from_millis(45))
            .with_object("stockInfo", ObjectVal::text("StockInfo", "s"))
    });
    sys.bind_fn("refDispatch", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_work(SimDuration::from_millis(25))
            .with_object("dispatchNote", ObjectVal::text("DispatchNote", "n"))
    });
    sys.bind_fn("refDispatchAlt", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_work(SimDuration::from_millis(25))
            .with_object("dispatchNote", ObjectVal::text("DispatchNote", "alt-note"))
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
}

/// Fig. 8 bindings, all pure functions of the invocation. The
/// instance's `user` input text is threaded through the dataflow chain
/// (tripData → flightList → plane); a `retry` marker in it makes the
/// hotel fail in incarnation 0, driving the Fig. 8
/// compensate-and-repeat loop exactly once per instance.
pub fn bind_trip(sys: &WorkflowSystem) {
    sys.bind_fn("refDataAcquisition", |ctx| {
        TaskBehavior::outcome("acquired").with_object(
            "tripData",
            ObjectVal::text("TripData", ctx.input_text("user")),
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
                ObjectVal::text("FlightList", ctx.input_text("tripData")),
            )
    });
    sys.bind_fn("refAirlineQueryC", |ctx| {
        TaskBehavior::outcome("found")
            .with_work(SimDuration::from_millis(30))
            .with_object(
                "flightList",
                ObjectVal::text("FlightList", ctx.input_text("tripData")),
            )
    });
    sys.bind_fn("refFlightReservation", |ctx| {
        TaskBehavior::outcome("reserved")
            .with_object(
                "plane",
                ObjectVal::text("Plane", ctx.input_text("flightList")),
            )
            .with_object("cost", ObjectVal::text("Cost", "c"))
    });
    sys.bind_fn("refHotelReservation", |ctx| {
        let wants_retry = ctx.input_text("plane").contains("retry");
        if wants_retry && ctx.incarnation == 0 {
            TaskBehavior::outcome("failed")
        } else {
            TaskBehavior::outcome("hotelBooked").with_object("hotel", ObjectVal::text("Hotel", "h"))
        }
    });
    sys.bind_fn("refFlightCancellation", |_| {
        TaskBehavior::outcome("cancelled")
    });
    sys.bind_fn("refPrintTickets", |_| {
        TaskBehavior::outcome("printed").with_object("tickets", ObjectVal::text("Tickets", "tk"))
    });
}

/// A 3-executor system on the deterministic link with fig. 7 registered
/// and bound.
pub fn build_orders(coordinators: usize, config: EngineConfig) -> WorkflowSystem {
    build_orders_on(coordinators, config, Vec::new())
}

/// [`build_orders`] journaling shard `i` to `storages[i]` (fresh
/// storage for the shards past its end).
pub fn build_orders_on(
    coordinators: usize,
    config: EngineConfig,
    storages: Vec<StableStore>,
) -> WorkflowSystem {
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .coordinators(coordinators)
        .seed(7)
        .link(det_link())
        .config(config)
        .shard_storages(storages)
        .build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    bind_order(&sys);
    sys
}

/// [`build_orders`] plus fig. 8.
pub fn build(coordinators: usize, config: EngineConfig) -> WorkflowSystem {
    let mut sys = build_orders(coordinators, config);
    sys.register_script("trip", samples::BUSINESS_TRIP, "tripReservation")
        .unwrap();
    bind_trip(&sys);
    sys
}

/// The mixed fig. 7 / fig. 8 population, including one fig. 8 instance
/// that takes the compensate-and-repeat loop. Names are varied so
/// rendezvous hashing spreads them across shards.
pub fn population() -> Vec<String> {
    let mut all: Vec<String> = (0..8).map(|i| format!("order-{i}")).collect();
    all.extend((0..3).map(|i| format!("trip-{i}")));
    all.push("trip-retry-x".to_string());
    all
}

/// 24 fig. 7 orders (the hand-off suites' population).
pub fn order_population() -> Vec<String> {
    (0..24).map(|i| format!("order-{i}")).collect()
}

/// Starts every `order-…` name as a fig. 7 order and every other name
/// as a fig. 8 trip, each with its own name as the input text.
pub fn start_population(sys: &mut WorkflowSystem, names: &[String]) {
    for name in names {
        if name.starts_with("order-") {
            sys.start(name, "order", "main", [("order", text("Order", name))])
        } else {
            sys.start(name, "trip", "main", [("user", text("User", name))])
        }
        .unwrap();
    }
}

// ---------------------------------------------------------------------
// Fig. 1 diamonds, in a burst.
// ---------------------------------------------------------------------

/// Fig. 1's diamond registered, every task bound to a quick `done`.
pub fn bind_diamond(sys: &mut WorkflowSystem) {
    sys.register_script("diamond", samples::FIG1_DIAMOND, "diamond")
        .unwrap();
    for code in ["refT1", "refT2", "refT3", "refT4"] {
        sys.bind_fn(code, |_| {
            TaskBehavior::outcome("done").with_object("out", text("Data", "d"))
        });
    }
}

/// How many diamonds [`diamond_burst`] starts.
pub const BURST: usize = 50;

/// [`BURST`] diamonds, `d0`…, started at once on `shards` shards and run
/// to the end: the `wave` workload's shape, whose logs the anatomy
/// golden (four shards) and the byte budget read. It observes metrics,
/// which write nothing, so the counters golden reads filled histograms.
pub fn diamond_burst(shards: usize) -> WorkflowSystem {
    let mut sys = diamond_burst_system(shards);
    run_diamond_burst(&mut sys);
    for i in 0..BURST {
        assert!(sys.outcome(&format!("d{i}")).is_some(), "d{i} completes");
    }
    sys
}

/// [`diamond_burst`]'s system, built and bound, nothing started.
pub fn diamond_burst_system(shards: usize) -> WorkflowSystem {
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .coordinators(shards)
        .seed(1)
        .observe(ObserveLevel::Metrics)
        .build();
    bind_diamond(&mut sys);
    sys
}

/// Starts [`diamond_burst`]'s [`BURST`] diamonds and runs them to
/// quiescence.
pub fn run_diamond_burst(sys: &mut WorkflowSystem) {
    for i in 0..BURST {
        let name = format!("d{i}");
        sys.start(&name, "diamond", "main", [("seed", text("Data", "s"))])
            .unwrap();
    }
    sys.run();
}

// ---------------------------------------------------------------------
// Small scripts.
// ---------------------------------------------------------------------

/// One leaf (`refWork`) under a root.
pub const ONE_TASK: &str = r#"
class Data;
taskclass Work {
    inputs { input main { in of class Data } };
    outputs { outcome done { } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
    task w of taskclass Work {
        implementation { "code" is "refWork" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    outputs { outcome done { notification from { task w if output done } } }
}
"#;

/// A join of one fast and one slow producer: the window between their
/// completions is where fault injection can corrupt the fast fact.
pub const JOIN: &str = r#"
class Data;
taskclass Work {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
}
taskclass Join {
    inputs { input main { left of class Data; right of class Data } };
    outputs { outcome done { } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
    task fast of taskclass Work {
        implementation { "code" is "refFast" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    task slow of taskclass Work {
        implementation { "code" is "refSlow" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    task join of taskclass Join {
        implementation { "code" is "refJoin" };
        inputs { input main {
            inputobject left from { out of task fast if output done };
            inputobject right from { out of task slow if output done }
        } }
    };
    outputs { outcome done { notification from { task join if output done } } }
}
"#;

/// Four leaves the root waits on, all started off the seed, each
/// reporting something else (see [`bind_misreports`]): a plain outcome,
/// a repeat outcome, an execution error (`refUnbound` is never bound)
/// and an output its class does not declare. The last two fail for
/// good, so the instance ends `Stuck` — in the step of the last failure.
pub const MISREPORTS: &str = r#"
class Data;
taskclass Work {
    inputs { input main { in of class Data } };
    outputs { outcome done { }; repeat outcome again { p of class Data } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
    task plain of taskclass Work {
        implementation { "code" is "refPlain" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    task again of taskclass Work {
        implementation { "code" is "refAgain" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    task unbound of taskclass Work {
        implementation { "code" is "refUnbound" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    task rogue of taskclass Work {
        implementation { "code" is "refRogue" };
        inputs { input main { inputobject in from { seed of task root if input main } } }
    };
    outputs { outcome done {
        notification from { task plain if output done };
        notification from { task again if output done };
        notification from { task unbound if output done };
        notification from { task rogue if output done }
    } }
}
"#;

/// Registers [`MISREPORTS`] as `misreports` and binds its leaves: after
/// `[plain, again, rogue]` ms of work `plain` is `done`, `again` takes
/// its repeat outcome once (redone 20 ms later) and `rogue` reports
/// `bogus`; `unbound`'s executor answers with an error at once.
pub fn bind_misreports(sys: &mut WorkflowSystem, work_ms: [u64; 3]) {
    sys.register_script("misreports", MISREPORTS, "root")
        .unwrap();
    let [plain, again, rogue] = work_ms.map(SimDuration::from_millis);
    sys.bind_fn("refPlain", move |_| {
        TaskBehavior::outcome("done").with_work(plain)
    });
    sys.bind_fn("refAgain", move |ctx| match ctx.attempt {
        0 => TaskBehavior::outcome("again")
            .with_work(again)
            .with_object("p", text("Data", "once"))
            .with_redo_after(SimDuration::from_millis(20)),
        _ => TaskBehavior::outcome("done").with_work(again),
    });
    sys.bind_fn("refRogue", move |_| {
        TaskBehavior::outcome("bogus").with_work(rogue)
    });
}

/// A `width`-way fan of leaves `w{i}` (code `refW{i}`, declaring
/// `duration_ms(i)` when it gives one) joined by an AND of
/// notifications: the outcome is independent of completion order, so
/// any capacity-induced serialization is observationally silent, and
/// load imbalance shows up directly as virtual makespan.
pub fn fan_join_source(width: usize, duration_ms: impl Fn(usize) -> Option<u64>) -> String {
    let mut source = String::from(
        r#"
class Data;
taskclass Work {
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
    for i in 0..width {
        let hint = duration_ms(i)
            .map(|ms| format!(r#"; "duration_ms" is "{ms}""#))
            .unwrap_or_default();
        source.push_str(&format!(
            r#"    task w{i} of taskclass Work {{
        implementation {{ "code" is "refW{i}"{hint} }};
        inputs {{ input main {{ inputobject in from {{ seed of task root if input main }} }} }}
    }};
"#
        ));
    }
    source.push_str("    outputs { outcome done {\n");
    for i in 0..width {
        let sep = if i + 1 < width { ";" } else { "" };
        source.push_str(&format!(
            "        notification from {{ task w{i} if output done }}{sep}\n"
        ));
    }
    source.push_str("    } }\n}\n");
    source
}

/// Runs `wave` instances `fan-{i}` of a 6-way fan (leaf `i` works
/// 40 + 30·i ms) to quiescence on two unbounded executors — or, with
/// `capacities`, on one executor per entry offering that many slots
/// (0 = unbounded).
pub fn run_fan(capacities: Option<Vec<u32>>, wave: usize) -> (WorkflowSystem, Vec<String>) {
    let width = 6;
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_secs(3600),
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut builder = WorkflowSystem::builder()
        .executors(2)
        .seed(9)
        .config(config);
    if let Some(caps) = capacities {
        builder = builder.executors_weighted(caps);
    }
    let mut sys = builder.build();
    sys.register_script("fan", &fan_join_source(width, |_| None), "root")
        .unwrap();
    for i in 0..width {
        let work = SimDuration::from_millis(40 + 30 * i as u64);
        sys.bind_fn(&format!("refW{i}"), move |_| {
            TaskBehavior::outcome("done").with_work(work)
        });
    }
    let names: Vec<String> = (0..wave).map(|i| format!("fan-{i}")).collect();
    for name in &names {
        sys.start(name, "fan", "main", [("seed", text("Data", "s"))])
            .unwrap();
    }
    sys.run();
    (sys, names)
}

/// The paper's §2 reconfiguration: `t5` joins the fig. 1 diamond, fed
/// by `t2` and `t4`.
pub fn add_t5() -> Reconfig {
    Reconfig::AddTask {
        scope_path: "diamond".into(),
        task_source: r#"
            task t5 of taskclass Join {
                implementation { "code" is "refT5" };
                inputs { input main {
                    inputobject left from { out of task t2 if output done };
                    inputobject right from { out of task t4 if output done }
                } }
            }"#
        .into(),
    }
}

// ---------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------

/// Everything observable about one finished instance: terminal status
/// (outcome objects included), the ordered `(path, attempt)` dispatch
/// trace, and every task's final state.
pub type Fingerprint = (
    InstanceStatus,
    Vec<(String, u32)>,
    BTreeMap<String, CbState>,
);

/// The books balance: a shard that is serving (up, unfenced) and whose
/// every resident instance is terminal holds no executor load and no
/// parked dispatch; and once the world has no event left, no serving
/// shard holds a timer that neither went off nor was cancelled, nor a
/// commit window that thinks its timer is armed, nor an instance that
/// is not settled — nothing is left that could move it — and no
/// executor that is up holds an attempt running. And every running
/// instance a serving shard holds is quiescent ([`assert_quiescent`]).
/// Every suite runs this through [`fingerprint`]: it is the harness's
/// teardown.
pub fn assert_books_balance(sys: &mut WorkflowSystem) {
    assert_quiescent(sys, "at teardown");
    if sys.is_quiescent() {
        for (node, running) in sys.running_attempts() {
            assert_eq!(
                running, 0,
                "executor {node:?}: {running} attempts running past quiescence"
            );
        }
    }
    for shard in sys.serving_shards() {
        let coord = sys.coord_handle(shard);
        let terminal = |name: &String| {
            coord
                .get()
                .status(name)
                .is_ok_and(|status| status.is_terminal())
        };
        let names = coord.get().instance_names();
        let settled = names.iter().all(terminal);
        if sys.is_quiescent() {
            let armed = coord.armed_timers();
            assert_eq!(
                armed, 0,
                "shard {shard}: {armed} timers leaked past quiescence"
            );
            assert!(
                !coord.get().window_armed(),
                "shard {shard}: a commit window's timer is armed past quiescence"
            );
            assert!(
                settled,
                "shard {shard}: an instance is left unsettled past quiescence: {names:?}"
            );
        }
        if !settled {
            continue;
        }
        let loads = coord.get().executor_loads();
        assert!(
            loads.iter().all(|s| s.in_flight == 0 && s.remaining == 0),
            "shard {shard}: every instance is terminal, load is still charged: {loads:?}"
        );
        assert_eq!(
            coord.get().ready_queue_len(),
            0,
            "shard {shard}: ready queue"
        );
    }
}

/// The invariant a restart relies on, checked in every build: each
/// running instance a serving shard holds is quiescent in its committed
/// state — no task startable, no scope output satisfied and not yet
/// taken (`Coordinator::quiescence_misses`, a full scan). `when` names
/// the check in a failure.
pub fn assert_quiescent(sys: &mut WorkflowSystem, when: &str) {
    for shard in sys.serving_shards() {
        let misses = sys.coord_handle(shard).get().quiescence_misses();
        assert!(misses.is_empty(), "{when}: shard {shard}: {misses:?}");
    }
}

/// Restarts `node` ([`WorkflowSystem::restart_now`]) and checks what the
/// restart relied on: every running instance it reloaded is quiescent.
pub fn restart_checked(sys: &mut WorkflowSystem, node: NodeId) {
    sys.restart_now(node);
    assert_quiescent(sys, &format!("after the restart of {node:?}"));
}

pub fn fingerprint(sys: &mut WorkflowSystem, instance: &str) -> Fingerprint {
    let status = sys.status(instance).expect("instance known");
    assert!(status.is_terminal(), "{instance} not terminal: {status:?}");
    assert_books_balance(sys);
    // The dispatch trace is read off the flight recorders: a ring that
    // evicted would truncate it and let a comparison pass vacuously.
    for shard in 0..sys.shard_count() {
        let dropped = sys.coord_handle(shard).get().recorder().dropped();
        assert_eq!(dropped, 0, "shard {shard}'s recorder evicted events");
    }
    let trace = sys
        .dispatch_trace_of(instance)
        .into_iter()
        .map(|d| (d.path, d.attempt))
        .collect();
    (status, trace, sys.task_states(instance))
}

pub fn fingerprints(sys: &mut WorkflowSystem, names: &[String]) -> BTreeMap<String, Fingerprint> {
    names
        .iter()
        .map(|name| (name.clone(), fingerprint(sys, name)))
        .collect()
}

/// [`fingerprint`] without the dispatch trace, for suites that change
/// the fleet mid-run: placement legitimately differs once membership
/// does — attempts still count, via the task states.
pub fn settled(
    sys: &mut WorkflowSystem,
    instance: &str,
) -> (InstanceStatus, BTreeMap<String, CbState>) {
    let (status, _trace, states) = fingerprint(sys, instance);
    (status, states)
}

// ---------------------------------------------------------------------
// What a run, and a hand-off round, leave in a shard's log.
// ---------------------------------------------------------------------

/// Every frame of a shard's log, oldest first.
pub fn log_frames(storage: &StableStore) -> Vec<LogRecord> {
    Wal::new(storage.clone()).scan().expect("log scans")
}

/// Every after-image a frame's commit carries, in log order, as `(key,
/// value)` (`None`: a delete).
pub fn frame_writes(frame: &LogRecord) -> Vec<(&StoreKey, Option<&[u8]>)> {
    let images = match frame {
        LogRecord::Commit { writes, .. } => writes.as_slice(),
        _ => &[],
    };
    images
        .iter()
        .map(|(key, value)| (key, value.as_deref()))
        .collect()
}

/// The value the last commit in a shard's log wrote under the string
/// key `uid` (`None`: none wrote it, or the last one deleted it).
pub fn last_write(storage: &StableStore, uid: &str) -> Option<Vec<u8>> {
    let frames = log_frames(storage);
    let writes = frames.iter().flat_map(frame_writes);
    let mut named = writes.filter(|(key, _)| key.as_uid().is_some_and(|key| key.as_str() == uid));
    named.next_back()?.1.map(<[u8]>::to_vec)
}

/// Where a source keeps its rounds' move records.
const MOVE_PREFIX: &str = "sys/move/";
/// Where a destination keeps the receipts of the claims it landed.
const CLAIMED_PREFIX: &str = "sys/claimed/";

/// The keys under `prefix` a frame's commit touches: `(uid, true)` for
/// a write, `(uid, false)` for a delete.
fn writes_under(frame: &LogRecord, prefix: &str) -> Vec<(String, bool)> {
    let touched = frame_writes(frame)
        .into_iter()
        .map(|(key, value)| (key.to_string(), value.is_some()));
    touched.filter(|(uid, _)| uid.starts_with(prefix)).collect()
}

/// The frames of a shard's log the hand-off protocol put there: a
/// commit that touches a move record (the source's decision, landing,
/// refusal, re-addressing, and the flip's clean-up) or a claim's receipt
/// (the destination's landing, and the flip's clean-up). Every other
/// frame is the instances' own work, which keeps landing while a round
/// runs.
pub fn handoff_frames(storage: &StableStore) -> Vec<LogRecord> {
    let mut frames = log_frames(storage);
    frames.retain(|frame| {
        !writes_under(frame, MOVE_PREFIX).is_empty()
            || !writes_under(frame, CLAIMED_PREFIX).is_empty()
    });
    frames
}

/// Every write and delete of a move record in a shard's log, in order.
pub fn move_record_history(storage: &StableStore) -> Vec<(String, bool)> {
    let frames = log_frames(storage);
    frames
        .iter()
        .flat_map(|frame| writes_under(frame, MOVE_PREFIX))
        .collect()
}

/// The one-owner invariant: no instance of `names` has two owners among
/// the shards serving (up, unfenced) — an owner being a shard it is
/// resident on, or one holding it frozen in an unlanded move round — and
/// while every shard serves, each has exactly one. `when` names the
/// check in a failure.
pub fn assert_one_owner(sys: &mut WorkflowSystem, names: &[String], when: &str) {
    let serving = sys.serving_shards();
    let everyone = serving.len() == sys.shard_count();
    let holders: Vec<(usize, Vec<String>)> = serving
        .into_iter()
        .map(|shard| {
            let coord = sys.coord_handle(shard);
            let coord = coord.get();
            let mut held = coord.instance_names();
            held.extend(coord.frozen_instance_names());
            (shard, held)
        })
        .collect();
    for name in names {
        let copies: Vec<usize> = holders
            .iter()
            .flat_map(|(shard, held)| held.iter().filter(|n| *n == name).map(move |_| *shard))
            .collect();
        assert!(
            copies.len() <= 1 && (copies.len() == 1 || !everyone),
            "{when}: {name} has {} owners among the serving shards: {copies:?}",
            copies.len()
        );
    }
}

// ---------------------------------------------------------------------
// Randomized scripts.
// ---------------------------------------------------------------------

/// Per-stage behaviour parameters, derived from the case seed.
#[derive(Debug, Clone, Copy)]
pub struct StageParams {
    /// Leaf repeat outcomes taken before completing.
    pub repeats: u32,
    /// Use an unconditioned source (compiles to `AnyOf` alternatives).
    pub any_of: bool,
    /// Complete with the `alt` outcome instead of `done`.
    pub alt: bool,
    /// Abort instead of completing (downstream falls back to the root
    /// seed source; the final notification can leave the run stuck —
    /// both arms of a comparison must agree on that too).
    pub abort: bool,
}

pub fn stage_params(seed: u64, i: usize) -> StageParams {
    let bits = seed >> ((i * 6) % 58);
    StageParams {
        repeats: (bits & 0b11) as u32 % 3,
        any_of: bits & 0b100 != 0,
        alt: bits & 0b1000 != 0,
        abort: bits & 0b11_0000 == 0b11_0000, // 1-in-4 per stage
    }
}

/// A chain of `n` stages plus a nested compound, all feeding the root's
/// `done` notification. Per-stage, the upstream source is either
/// conditioned (`if output done`) or unconditioned — the latter
/// compiles to `AnyOf` alternatives over every Stage outcome carrying
/// `out` (`done` and `alt`).
pub fn generated_script(n: usize, seed: u64) -> String {
    let mut source = String::from(
        r#"class Data;
taskclass Stage {
    inputs { input main { in of class Data } };
    outputs {
        outcome done { out of class Data };
        outcome alt { out of class Data };
        abort outcome failed { };
        repeat outcome again { p of class Data }
    }
}
taskclass Inner {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
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
        } else if stage_params(seed, i).any_of {
            format!(
                "inputobject in from {{ out of task t{prev}; seed of task root if input main }}",
                prev = i - 1
            )
        } else {
            format!(
                "inputobject in from {{ out of task t{prev} if output done; seed of task root if input main }}",
                prev = i - 1
            )
        };
        source.push_str(&format!(
            "    task t{i} of taskclass Stage {{\n        implementation {{ \"code\" is \"ref{i}\" }};\n        inputs {{ input main {{ {from} }} }}\n    }};\n"
        ));
    }
    source.push_str(&format!(
        r#"    compoundtask comp of taskclass Inner {{
        inputs {{ input main {{ inputobject in from {{ seed of task root if input main }} }} }};
        task inner of taskclass Inner {{
            implementation {{ "code" is "refInner" }};
            inputs {{ input main {{ inputobject in from {{ in of task comp if input main }} }} }}
        }};
        outputs {{
            outcome done {{ outputobject out from {{ out of task inner if output done }} }}
        }}
    }};
    outputs {{ outcome done {{ notification from {{ task t{last} if output done }}; notification from {{ task comp if output done }} }} }}
}}
"#,
        last = n - 1
    ));
    source
}

/// Binds every stage as a **pure** function of the invocation: repeat
/// loops key on `ctx.attempt`, everything else on the case parameters.
pub fn bind_stages(sys: &WorkflowSystem, n: usize, seed: u64) {
    for i in 0..n {
        let params = stage_params(seed, i);
        sys.bind_fn(&format!("ref{i}"), move |ctx| {
            if ctx.attempt < params.repeats {
                TaskBehavior::outcome("again")
                    .with_object("p", ObjectVal::text("Data", ctx.attempt.to_string()))
                    .with_redo_after(SimDuration::from_millis(20))
            } else if params.abort {
                TaskBehavior::outcome("failed")
            } else if params.alt {
                TaskBehavior::outcome("alt").with_object("out", ObjectVal::text("Data", "alt"))
            } else {
                TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", "done"))
            }
        });
    }
    sys.bind_fn("refInner", |ctx| {
        TaskBehavior::outcome("done")
            .with_object("out", ObjectVal::text("Data", ctx.input_text("in")))
    });
}

/// The randomized suites' base config: the default pipeline with tight
/// watchdogs and the dispatch trace on.
pub fn generated_config() -> EngineConfig {
    EngineConfig {
        dispatch_timeout: SimDuration::from_millis(500),
        retry_backoff: SimDuration::from_millis(10),
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    }
}

/// Runs `names` as instances of one generated script on `coordinators`
/// shards (identical virtual worlds — variation comes from `seed`) and
/// fingerprints every instance.
pub fn run_generated(
    coordinators: usize,
    config: EngineConfig,
    n: usize,
    seed: u64,
    script: &str,
    names: &[String],
) -> BTreeMap<String, Fingerprint> {
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .coordinators(coordinators)
        .seed(42)
        .link(det_link())
        .config(config)
        .build();
    sys.register_script("g", script, "root")
        .expect("generated script compiles");
    bind_stages(&sys, n, seed);
    for name in names {
        sys.start(name, "g", "main", [("seed", text("Data", "s"))])
            .expect("instance starts");
    }
    sys.run();
    fingerprints(&mut sys, names)
}

// ---------------------------------------------------------------------
// One generated instance with an optional mid-run reconfiguration (the
// worklist suites).
// ---------------------------------------------------------------------

/// The reconfiguration a worklist case applies 30 ms into the run.
fn reconfig_op(choice: usize, n: usize) -> Option<Reconfig> {
    match choice {
        1 => Some(Reconfig::Rebind {
            code: "ref0".into(),
            to: "refExtra".into(),
        }),
        2 => Some(Reconfig::AddTask {
            scope_path: "root".into(),
            task_source: concat!(
                "task extra of taskclass Stage {\n",
                "    implementation { \"code\" is \"refExtra\" };\n",
                "    inputs { input main { inputobject in from { seed of task root if input main } } }\n",
                "}"
            )
            .into(),
        }),
        // Removing t0 shifts every later dense task id — the fact-key
        // remap must carry the committed facts across.
        3 if n >= 2 => Some(Reconfig::RemoveTask {
            task_path: "root/t0".into(),
        }),
        _ => None,
    }
}

/// Runs instance `i1` of `generated_script(n, seed)` on one shard to
/// quiescence, applying `reconfig_op(reconfig, n)` mid-run. Bit 40 of
/// `seed` makes the nested compound's constituent produce an output its
/// class does not declare, which fails it for good.
pub fn run_worklist_case(
    n: usize,
    seed: u64,
    reconfig: usize,
    config: EngineConfig,
) -> WorkflowSystem {
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .seed(42) // identical virtual worlds; variation comes from `seed`
        .config(config)
        .build();
    sys.register_script("g", &generated_script(n, seed), "root")
        .expect("generated script compiles");
    bind_stages(&sys, n, seed);
    let inner_fails = (seed >> 40) & 1 == 1;
    sys.bind_fn("refInner", move |_| {
        if inner_fails {
            TaskBehavior::outcome("failed")
        } else {
            TaskBehavior::outcome("done").with_object("out", text("Data", "inner"))
        }
    });
    sys.bind_fn("refExtra", |_| {
        TaskBehavior::outcome("done").with_object("out", text("Data", "extra"))
    });
    sys.start("i1", "g", "main", [("seed", text("Data", "s"))])
        .expect("instance starts");
    if let Some(op) = reconfig_op(reconfig, n) {
        sys.run_for(SimDuration::from_millis(30));
        // A removal can be validly rejected depending on progress.
        let _ = sys.reconfigure("i1", op);
    }
    sys.run();
    assert_books_balance(&mut sys);
    sys
}
