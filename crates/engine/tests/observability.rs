//! The flight recorder and per-shard metrics, end to end: trace
//! completeness on the paper's fig. 7 (order processing) and fig. 8
//! (business trip) workloads across shard counts, trace and metric
//! history surviving one-shard crash recovery, ring-buffer eviction
//! semantics, retry/forward cause pairing under chaos, the
//! `repair_fact` escape hatch for `Stuck{fact storage fault}`
//! instances, and exactly-once stats accounting for forwarded
//! one-way messages.

mod common;

use common::{build, det_link, text, JOIN};
use flowscript_engine::{
    CbState, EngineConfig, InstanceStatus, ObjectVal, ObsEvent, ObsEventKind, ObserveLevel,
    TaskBehavior, WorkflowSystem,
};
use flowscript_sim::{FaultPlan, SimDuration, SimTime};

fn det_config() -> EngineConfig {
    EngineConfig {
        observe: ObserveLevel::Trace,
        ..common::det_config()
    }
}

/// A trace is a *complete lifecycle*: it opens with the instance start,
/// closes with the root terminal, every event names this instance, and
/// virtual time never goes backwards.
fn assert_lifecycle(instance: &str, events: &[ObsEvent]) {
    assert!(!events.is_empty(), "{instance}: empty trace");
    assert!(
        matches!(events[0].kind, ObsEventKind::InstanceStart),
        "{instance}: trace must open with the start event, got {}",
        events[0]
    );
    assert!(
        matches!(events.last().unwrap().kind, ObsEventKind::Terminal { .. }),
        "{instance}: trace must close with the terminal event, got {}",
        events.last().unwrap()
    );
    for window in events.windows(2) {
        assert!(
            window[0].at_ns <= window[1].at_ns,
            "{instance}: trace went backwards in time: {} then {}",
            window[0],
            window[1]
        );
    }
    for event in events {
        assert_eq!(event.instance, instance, "foreign event in trace: {event}");
    }
}

#[test]
fn trace_reconstructs_fig7_and_fig8_lifecycles_across_shard_counts() {
    for shards in [1usize, 4] {
        let mut sys = build(shards, det_config());
        sys.start("order-t", "order", "main", [("order", text("Order", "o"))])
            .unwrap();
        sys.start("trip-t", "trip", "main", [("user", text("User", "u"))])
            .unwrap();
        sys.run();
        let mut traced_dispatches = 0;
        for instance in ["order-t", "trip-t"] {
            assert!(
                matches!(sys.status(instance).unwrap(), InstanceStatus::Completed(_)),
                "{instance} must complete"
            );
            let events = sys.trace(instance);
            assert_lifecycle(instance, &events);
            // Every dispatch shows up as a traced event (checked against
            // the always-on counter below), each matched by a commit of
            // the task's outcome.
            let dispatches = events
                .iter()
                .filter(|e| matches!(e.kind, ObsEventKind::Dispatch { .. }))
                .count();
            traced_dispatches += dispatches as u64;
            let commits = events
                .iter()
                .filter(|e| matches!(e.kind, ObsEventKind::Commit { .. }))
                .count();
            assert!(
                commits >= dispatches,
                "{instance}: each dispatched task commits at least once \
                 ({commits} commits vs {dispatches} dispatches)"
            );
            // Correctly routed requests never forward.
            assert!(
                !events
                    .iter()
                    .any(|e| matches!(e.kind, ObsEventKind::Forward { .. })),
                "{instance}: correctly routed requests must not forward"
            );
        }
        assert_eq!(
            traced_dispatches,
            sys.stats().dispatches,
            "{shards} shards: every dispatch must be traced"
        );
    }
}

#[test]
fn trace_spans_one_shard_crash_and_recovery() {
    let mut sys = build(4, det_config());
    let instance = "order-crash";
    sys.start(instance, "order", "main", [("order", text("Order", "x"))])
        .unwrap();
    let victim = sys.coordinator_node_for(instance);
    // Crash the owner mid-flight (the order takes ~100ms of virtual
    // time), restart shortly after; recovery replays the WAL and
    // re-dispatches whatever was executing.
    FaultPlan::crash_restart(
        victim,
        SimTime::from_nanos(40_000_000),
        SimDuration::from_millis(120),
    )
    .apply(sys.world_mut());
    sys.run();
    assert!(
        matches!(sys.status(instance).unwrap(), InstanceStatus::Completed(_)),
        "the instance completes through recovery"
    );
    let events = sys.trace(instance);
    assert_lifecycle(instance, &events);
    let recovery_at = events
        .iter()
        .position(|e| matches!(e.kind, ObsEventKind::Recovery { .. }))
        .expect("the trace must contain the recovery event");
    assert!(
        recovery_at > 0 && recovery_at < events.len() - 1,
        "recovery sits between pre-crash events and the terminal"
    );
    assert!(
        events[..recovery_at]
            .iter()
            .any(|e| matches!(e.kind, ObsEventKind::Dispatch { .. })),
        "pre-crash dispatches survive in the recorder (it models an \
         external telemetry sink, not shard-local volatile state)"
    );
    assert!(
        events[recovery_at..]
            .iter()
            .any(|e| matches!(e.kind, ObsEventKind::Dispatch { .. })),
        "recovery re-dispatches the in-flight work"
    );
}

/// A shard's metrics are values it owns, and its restart reopens the
/// store with the old store's metrics moved in: their history, like the
/// recorder's, spans the crash, under the same names as a run that
/// never crashed.
#[test]
fn metric_history_spans_one_shard_crash_and_recovery() {
    let names = |sys: &WorkflowSystem| -> Vec<String> {
        sys.metrics_snapshot().entries.into_keys().collect()
    };
    let start = |sys: &mut WorkflowSystem| {
        sys.start(
            "order-metrics",
            "order",
            "main",
            [("order", text("Order", "m"))],
        )
        .unwrap();
    };
    let mut calm = build(1, det_config());
    start(&mut calm);
    calm.run();

    let mut sys = build(1, det_config());
    start(&mut sys);
    sys.run_until(SimTime::from_nanos(40_000_000));
    let before = sys.metrics_snapshot();
    assert!(before.counter("tx.commits") >= 2, "{}", before.to_json());
    let node = sys.coordinator_node();
    sys.crash_now(node);
    sys.restart_now(node);
    let restarted = sys.metrics_snapshot();
    sys.run();
    assert!(
        matches!(
            sys.status("order-metrics").unwrap(),
            InstanceStatus::Completed(_)
        ),
        "the instance completes through recovery"
    );
    for after in [&restarted, &sys.metrics_snapshot()] {
        for name in ["tx.commits", "coord.dispatches"] {
            assert!(
                after.counter(name) >= before.counter(name),
                "{name}: {} before the crash, {} after",
                before.counter(name),
                after.counter(name)
            );
        }
    }
    assert_eq!(names(&sys), names(&calm));
}

#[test]
fn ring_buffer_evicts_oldest_and_keeps_newest() {
    let mut config = det_config();
    config.recorder_capacity = 16; // far below the run's event count
    let mut sys = build(1, config);
    for i in 0..4 {
        sys.start(
            &format!("order-{i}"),
            "order",
            "main",
            [("order", text("Order", &format!("o{i}")))],
        )
        .unwrap();
    }
    sys.run();
    let events: Vec<ObsEvent> = (0..4)
        .flat_map(|i| sys.trace(&format!("order-{i}")))
        .collect();
    assert!(
        !events.is_empty() && events.len() <= 16,
        "retained events must respect the ring bound, got {}",
        events.len()
    );
    // Eviction is oldest-first: the retained events are exactly the
    // newest contiguous slice of the recorded sequence.
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    for pair in seqs.windows(2) {
        assert_eq!(pair[1], pair[0] + 1, "retained seqs must be contiguous");
    }
    // The run recorded far more than 16 events, so every instance's
    // start event (recorded first) has been evicted…
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, ObsEventKind::InstanceStart)),
        "the oldest events (the starts) must have been evicted"
    );
    // …while the newest event overall — the last root terminal — is
    // still there.
    let newest = events.iter().max_by_key(|e| e.seq).unwrap();
    assert!(
        matches!(newest.kind, ObsEventKind::Terminal { .. }),
        "the newest retained event is the final terminal, got {newest}"
    );
}

#[test]
fn chaos_trace_pairs_every_retry_with_its_cause() {
    // An executor crash mid-run forces watchdog timeouts and retries;
    // the trace must explain each one.
    let mut config = det_config();
    config.max_retries = 6;
    config.dispatch_timeout = SimDuration::from_millis(250);
    config.retry_backoff = SimDuration::from_millis(10);
    let mut sys = build(2, config);
    for i in 0..4 {
        sys.start(
            &format!("chaos-{i}"),
            "order",
            "main",
            [("order", text("Order", &format!("c{i}")))],
        )
        .unwrap();
    }
    let executor = sys.executor_nodes()[0];
    FaultPlan::crash_restart(
        executor,
        SimTime::from_nanos(20_000_000),
        SimDuration::from_millis(300),
    )
    .apply(sys.world_mut());
    sys.run();
    let mut retries_seen = 0;
    for i in 0..4 {
        let instance = format!("chaos-{i}");
        assert!(
            matches!(sys.status(&instance).unwrap(), InstanceStatus::Completed(_)),
            "{instance} completes despite the executor crash: {:?}",
            sys.status(&instance)
        );
        let events = sys.trace(&instance);
        assert_lifecycle(&instance, &events);
        for (at, event) in events.iter().enumerate() {
            if let ObsEventKind::Retry { reason } = &event.kind {
                retries_seen += 1;
                assert!(!reason.is_empty(), "a retry must carry its cause");
                // The attempt being retried (attempt - 1) must have been
                // dispatched earlier in this trace — the cause event the
                // retry pairs with.
                let task = event.task.as_deref().expect("retries are task-scoped");
                let cause = events[..at].iter().any(|prior| {
                    prior.task.as_deref() == Some(task)
                        && prior.attempt + 1 == event.attempt
                        && matches!(prior.kind, ObsEventKind::Dispatch { .. })
                });
                assert!(
                    cause,
                    "{instance}: retry of `{task}` attempt {} has no earlier \
                     dispatch of attempt {}",
                    event.attempt,
                    event.attempt - 1
                );
            }
        }
    }
    assert!(
        retries_seen >= 1,
        "the executor crash must force at least one traced retry"
    );
    assert_eq!(
        sys.stats().retries,
        retries_seen,
        "traced retries and the metrics snapshot must agree"
    );
}

fn join_system(config: EngineConfig, slow_work: SimDuration) -> WorkflowSystem {
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(11)
        .link(det_link())
        .config(config)
        .build();
    sys.register_script("join", JOIN, "root").unwrap();
    sys.bind_fn("refFast", |_| {
        TaskBehavior::outcome("done")
            .with_work(SimDuration::from_millis(5))
            .with_object("out", ObjectVal::text("Data", "fast"))
    });
    sys.bind_fn("refSlow", move |_| {
        TaskBehavior::outcome("done")
            .with_work(slow_work)
            .with_object("out", ObjectVal::text("Data", "slow"))
    });
    sys.bind_fn("refJoin", |ctx| {
        assert!(!ctx.input_text("left").is_empty());
        assert!(!ctx.input_text("right").is_empty());
        TaskBehavior::outcome("done")
    });
    sys
}

#[test]
fn repair_fact_revives_a_storage_fault_stuck_instance() {
    let mut sys = join_system(det_config(), SimDuration::from_millis(200));
    sys.start("r1", "join", "main", [("seed", text("Data", "s"))])
        .unwrap();
    // Let the fast producer commit, then corrupt its output fact while
    // the slow one is still executing: the slow commit re-evaluates the
    // join, whose probe hits the poisoned record and parks the instance.
    sys.run_for(SimDuration::from_millis(50));
    assert!(
        sys.poison_fact("r1", "root/fast", "done"),
        "the fact must exist to be poisoned"
    );
    sys.run();
    let status = sys.status("r1").unwrap();
    let InstanceStatus::Stuck { reason } = &status else {
        panic!("expected Stuck, got {status:?}");
    };
    assert!(
        reason.contains("fact storage fault"),
        "diagnosis must name the fault: {reason}"
    );
    // The flight recorder explains the parking.
    assert!(
        sys.trace("r1").iter().any(|e| matches!(
            &e.kind,
            ObsEventKind::Stuck { reason } if reason.contains("fact storage fault")
        )),
        "the trace must carry the stuck diagnosis"
    );

    // Administrative repair: re-publish the fact, revive, complete.
    sys.repair_fact("r1", "root/fast", "done", [("out", text("Data", "fast"))])
        .unwrap();
    sys.run();
    assert!(
        matches!(sys.status("r1").unwrap(), InstanceStatus::Completed(_)),
        "the repaired instance completes: {:?}",
        sys.status("r1")
    );
    let events = sys.trace("r1");
    assert_lifecycle("r1", &events);
    let stuck_at = events
        .iter()
        .position(|e| matches!(e.kind, ObsEventKind::Stuck { .. }))
        .expect("the stuck event must be traced");
    let repair_at = events
        .iter()
        .position(|e| {
            matches!(
                &e.kind,
                ObsEventKind::Repair { what } if what.contains("republished")
            )
        })
        .expect("the repair event must be traced");
    assert!(stuck_at < repair_at, "stuck precedes repair");
}

#[test]
fn repair_fact_can_force_a_hung_tasks_outcome() {
    // The slow producer hangs "forever" (an hour of virtual time) and
    // the watchdog is configured to wait even longer, so the instance
    // sits Running with the task Executing. An operator forces the
    // outcome the executor never delivered.
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_secs(7200),
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut sys = join_system(config, SimDuration::from_secs(3600));
    sys.start("r2", "join", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_millis(100));
    assert!(
        matches!(
            sys.task_states("r2")["root/slow"],
            CbState::Executing { .. }
        ),
        "the slow producer must be hung mid-execution"
    );
    sys.repair_fact("r2", "root/slow", "done", [("out", text("Data", "forced"))])
        .unwrap();
    // The hung dispatch is written off with the outcome it never
    // delivered: only the join the repair unblocked is charged now.
    let charged: u32 = sys.executor_loads(0).iter().map(|s| s.in_flight).sum();
    assert_eq!(charged, 1, "{:?}", sys.executor_loads(0));
    sys.run();
    assert!(
        matches!(sys.status("r2").unwrap(), InstanceStatus::Completed(_)),
        "the forced outcome unblocks the join: {:?}",
        sys.status("r2")
    );
    assert!(
        sys.trace("r2").iter().any(|e| matches!(
            &e.kind,
            ObsEventKind::Repair { what } if what.contains("forced")
        )),
        "the trace must mark the forced completion"
    );
}

#[test]
fn metrics_snapshot_aggregates_shards_and_exports() {
    let mut sys = build(4, det_config());
    for i in 0..6 {
        sys.start(
            &format!("snap-{i}"),
            "order",
            "main",
            [("order", text("Order", &format!("s{i}")))],
        )
        .unwrap();
    }
    sys.run();
    let snapshot = sys.metrics_snapshot();
    // Counters aggregate across shards and agree with the stats view.
    assert_eq!(
        snapshot.counter("coord.dispatches"),
        sys.stats().dispatches,
        "the snapshot and CoordStats must agree"
    );
    let per_shard: u64 = (0..4)
        .map(|s| {
            sys.coord_handle(s)
                .get()
                .snapshot()
                .counter("coord.dispatches")
        })
        .sum();
    assert_eq!(snapshot.counter("coord.dispatches"), per_shard);
    // The hot-path histograms sampled.
    let drain = snapshot
        .histogram("coord.commit_drain_len")
        .expect("commit-drain histogram present");
    assert!(drain.count > 0, "drains must have been sampled");
    let latency = snapshot
        .histogram("coord.dispatch_latency_ns")
        .expect("dispatch-latency histogram present");
    assert_eq!(
        latency.count,
        sys.stats().dispatches,
        "every clean dispatch completes and samples its latency"
    );
    assert!(latency.min > 0, "virtual dispatch latency is nonzero");
    // Each shard's snapshot carries its transaction manager's metrics.
    assert!(
        snapshot.counter("tx.commits") > 0,
        "tx commits flow into the snapshot"
    );
    assert!(
        snapshot
            .histogram("wal.writes_per_commit")
            .is_some_and(|h| h.count > 0),
        "WAL writes-per-commit histogram sampled"
    );
    // Export formats.
    let json = snapshot.to_json();
    assert!(json.contains("\"coord.dispatches\""));
    assert!(json.contains("\"wal.writes_per_commit\""));
    let csv = snapshot.to_csv();
    assert!(csv.starts_with("metric,kind,"));
    assert!(csv.contains("coord.dispatches,counter"));
}

#[test]
fn forwarded_marks_count_exactly_once_on_the_owner() {
    const MARK_SCRIPT: &str = r#"
class Data;
class Cost;

taskclass LongRunner {
    inputs { input main { in of class Data } };
    outputs {
        outcome finished { out of class Data };
        mark estimate { cost of class Cost }
    }
}

taskclass EagerConsumer {
    inputs { input main { cost of class Cost } };
    outputs { outcome billed { } }
}

taskclass Root {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data } }
}

compoundtask root of taskclass Root {
    task runner of taskclass LongRunner {
        implementation { "code" is "refRunner" };
        inputs { input main { inputobject in from { in of task root if input main } } }
    };
    task biller of taskclass EagerConsumer {
        implementation { "code" is "refBiller" };
        inputs { input main { inputobject cost from { cost of task runner if output estimate } } }
    };
    outputs {
        outcome done {
            outputobject out from { out of task runner if output finished };
            notification from { task biller if output billed }
        }
    }
}
"#;
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .coordinators(2)
        .seed(5)
        .link(det_link())
        .config(det_config())
        .build();
    sys.register_script("m", MARK_SCRIPT, "root").unwrap();
    sys.bind_fn("refRunner", |ctx| {
        TaskBehavior::outcome("finished")
            .with_work(SimDuration::from_millis(200))
            .with_object("out", ObjectVal::text("Data", ctx.input_text("in")))
    });
    sys.bind_fn("refBiller", |_| TaskBehavior::outcome("billed"));
    // Find an instance owned by shard 1 so a message sent via shard 0
    // must be forwarded.
    let name = (0..32)
        .map(|i| format!("fwd-mark-{i}"))
        .find(|name| sys.shard_of(name) == 1)
        .expect("some name lands on shard 1");
    sys.start(&name, "m", "main", [("in", text("Data", "x"))])
        .unwrap();
    // Let the runner reach Executing, then deliver its mark through the
    // *wrong* shard: the relay must forward it verbatim, and only the
    // owner may count (and commit) the mark.
    sys.run_for(SimDuration::from_millis(50));
    sys.send_mark_via_shard(
        0,
        &name,
        "root/runner",
        0,
        0,
        "estimate",
        [("cost", text("Cost", "42"))],
    );
    sys.run();
    assert_eq!(
        sys.outcome(&name).expect("completes").name,
        "done",
        "the forwarded mark feeds the biller and the instance completes"
    );
    assert_eq!(
        sys.shard_stats(1).marks,
        1,
        "the owner commits and counts the mark exactly once"
    );
    assert_eq!(
        sys.shard_stats(0).marks,
        0,
        "the relay must not count the operation it only forwarded"
    );
    assert!(
        sys.shard_stats(0).forwarded >= 1,
        "the relay counts the forward itself"
    );
    assert_eq!(sys.stats().marks, 1, "aggregate counts it once");
    // The trace shows the relay-side forward followed by the owner-side
    // mark commit (the event's `shard`/`to` fields carry node indices).
    let events = sys.trace(&name);
    let (forward_at, owner_node) = events
        .iter()
        .enumerate()
        .find_map(|(at, e)| match e.kind {
            ObsEventKind::Forward { to, .. } => Some((at, to)),
            _ => None,
        })
        .expect("the relay records the forward");
    assert!(
        events[forward_at + 1..].iter().any(|e| {
            e.shard == owner_node
                && matches!(&e.kind, ObsEventKind::Commit { what, .. } if what.contains("mark"))
        }),
        "the owner commits the forwarded mark after the relay event"
    );
}

#[test]
fn observe_off_records_nothing() {
    let mut config = det_config();
    config.observe = ObserveLevel::Off;
    let mut sys = build(1, config);
    sys.start("quiet", "order", "main", [("order", text("Order", "q"))])
        .unwrap();
    sys.run();
    assert!(
        matches!(sys.status("quiet").unwrap(), InstanceStatus::Completed(_)),
        "the workload itself is unaffected"
    );
    assert!(sys.trace("quiet").is_empty(), "no trace events below Trace");
    let snapshot = sys.metrics_snapshot();
    // Counters stay always-on (they back `CoordStats`)…
    assert!(snapshot.counter("coord.dispatches") > 0);
    // …but the gated histograms never sample.
    for name in [
        "coord.commit_drain_len",
        "coord.dispatch_latency_ns",
        "sched.pick_load",
        "wal.writes_per_commit",
    ] {
        assert_eq!(
            snapshot.histogram(name).map(|h| h.count).unwrap_or(0),
            0,
            "histogram {name} must not sample with observe=Off"
        );
    }
}
