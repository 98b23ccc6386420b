//! Regression guards for the per-object fact layout.
//!
//! A readiness probe must be a **point read**: no uid prefix scan, no
//! fact range scan, no whole-record decode. The store counts both scan
//! families (`tx.prefix_scans`, `tx.fact_range_scans` in
//! [`WorkflowSystem::metrics_snapshot`]); a clean run must leave both
//! flat. And a *corrupt* fact record must surface as a diagnosable
//! storage fault — never silently read as "fact absent" and
//! mis-evaluate readiness.
//!
//!
//! And the log has a **byte budget**: what an instance writes besides
//! its control blocks and facts is a small header, and a stuck record
//! only while it is parked — the script's source is logged once per
//! shard, never per instance, never per status change.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{
    bind_diamond, bind_misreports, build, det_config, det_link, diamond_burst, fan_join_source,
    frame_writes, generated_script, log_frames, population, restart_with_executors,
    start_population, text, BURST, JOIN, ONE_TASK,
};
use flowscript_core::samples;
use flowscript_core::schema::compile_source;
use flowscript_engine::{
    CbState, CommitBatch, EngineConfig, InstanceStatus, TaskBehavior, WorkflowSystem,
};
use flowscript_plan::Plan;
use flowscript_sim::{SimDuration, SimTime};
use flowscript_tx::{FactKind, LogRecord, StoreKey};

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
    let prefix_before = sys.metrics_snapshot().counter("tx.prefix_scans");
    let range_before = sys.metrics_snapshot().counter("tx.fact_range_scans");
    sys.run();
    assert_eq!(
        sys.metrics_snapshot().counter("tx.prefix_scans"),
        prefix_before,
        "probes must not scan uids by prefix"
    );
    assert_eq!(
        sys.metrics_snapshot().counter("tx.fact_range_scans"),
        range_before,
        "per-object probes must be point reads, never fact range scans"
    );
    // Monitoring is a whole-fact consumer: an outcome's objects are the
    // root's output fact, one range scan each.
    for i in 0..4 {
        assert_eq!(
            sys.outcome(&format!("o{i}")).expect("completes").name,
            "orderCompleted"
        );
    }
    assert_eq!(
        sys.metrics_snapshot().counter("tx.fact_range_scans"),
        range_before + 4
    );
}

#[test]
fn corrupt_fact_fails_the_instance_diagnosably() {
    // The slow producer's commit re-evaluates the join, whose probe
    // hits the poisoned record: the drain must park the instance with
    // the storage fault — the old behaviour read the corrupt fact as
    // "absent" and left the instance waiting forever with no
    // explanation.
    let mut sys = WorkflowSystem::builder().executors(2).seed(7).build();
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
    assert_storage_fault_stop(&sys, "i");
}

/// Asserts `instance` stopped with the diagnosable storage-fault reason.
fn assert_storage_fault_stop(sys: &WorkflowSystem, instance: &str) {
    match sys.status(instance).unwrap() {
        InstanceStatus::Stuck { reason } => assert!(
            reason.contains("fact storage fault"),
            "undiagnosable reason: {reason}"
        ),
        other => panic!("expected a storage-fault stop, got {other:?}"),
    }
}

#[test]
fn corrupt_bound_input_stops_the_recovery_redispatch() {
    // Recovery re-dispatches an `Executing` task from its bound-input
    // fact. A corrupt one used to read as "absent" and the task re-ran
    // on empty inputs; it must park the instance instead.
    let mut sys = WorkflowSystem::builder().executors(2).seed(3).build();
    sys.register_script("one", ONE_TASK, "root").unwrap();
    let starved = Arc::new(AtomicBool::new(false));
    let saw = starved.clone();
    sys.bind_fn("refWork", move |ctx| {
        saw.fetch_or(ctx.inputs().next().is_none(), Ordering::Relaxed);
        TaskBehavior::outcome("done").with_work(SimDuration::from_millis(200))
    });
    sys.start("i", "one", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_millis(50));
    assert!(matches!(
        sys.task_states("i")["root/w"],
        CbState::Executing { .. }
    ));
    assert!(sys.poison_fact("i", "root/w", "main"), "poison lands");
    // The executors crash too: no census claims the attempt, so the
    // restart re-sends it.
    restart_with_executors(&mut sys);
    sys.run();
    assert_storage_fault_stop(&sys, "i");
    assert!(
        !starved.load(Ordering::Relaxed),
        "the task ran on empty inputs"
    );
}

#[test]
fn corrupt_repeat_fact_stops_the_watchdog_retry() {
    // A watchdog retry re-reads the objects of the repeat outcome the
    // task took from its `again` fact. Attempt 0 repeats, attempt 1
    // hangs past the watchdog, and the fact is corrupted in between.
    let config = EngineConfig {
        dispatch_timeout: SimDuration::from_millis(400),
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(5)
        .config(config)
        .build();
    sys.register_script("g", &generated_script(1, 0), "root")
        .unwrap();
    let starved = Arc::new(AtomicBool::new(false));
    let saw = starved.clone();
    sys.bind_fn("ref0", move |ctx| match ctx.attempt {
        0 => TaskBehavior::outcome("again").with_object("p", text("Data", "first")),
        attempt => {
            saw.fetch_or(ctx.repeat_objects().next().is_none(), Ordering::Relaxed);
            let hang = if attempt == 1 { 10_000 } else { 1 };
            TaskBehavior::outcome("done").with_work(SimDuration::from_millis(hang))
        }
    });
    sys.bind_fn("refInner", |_| {
        TaskBehavior::outcome("done").with_object("out", text("Data", "inner"))
    });
    sys.start("i", "g", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_millis(100));
    assert_eq!(sys.stats().repeats, 1, "attempt 0 took the repeat");
    assert!(sys.poison_fact("i", "root/t0", "again"), "poison lands");
    sys.run();
    assert_eq!(sys.stats().retries, 1, "the watchdog retried attempt 1");
    assert_storage_fault_stop(&sys, "i");
    assert!(
        !starved.load(Ordering::Relaxed),
        "the task ran without its repeat objects"
    );
}

/// Whether a frame is one commit record and nothing else.
fn is_bare_commit(frame: &LogRecord) -> bool {
    matches!(frame, LogRecord::Commit { .. })
}

#[test]
fn every_step_of_the_paper_population_is_one_bare_commit() {
    // Fig. 7 orders and fig. 8 trips, batched, on four shards: a start
    // and a window each write one frame holding one commit record —
    // the step — whatever they cascade into.
    let mut sys = build(4, det_config());
    let names = population();
    start_population(&mut sys, &names);
    sys.run();
    for name in &names {
        assert!(sys.status(name).unwrap().is_terminal(), "{name} ends");
    }
    let frames: Vec<LogRecord> = sys.shard_storages().iter().flat_map(log_frames).collect();
    assert!(frames.len() > names.len(), "starts and windows");
    let grouped = frames.iter().filter(|frame| !is_bare_commit(frame)).count();
    assert_eq!(grouped, 0, "of {} frames", frames.len());
}

/// The control blocks a frame writes, as `(instance id, task id)`.
fn blocks_written(frame: &LogRecord) -> Vec<(u32, u32)> {
    let keys = frame_writes(frame).into_iter();
    let facts = keys.filter_map(|(key, _)| key.as_fact());
    let blocks = facts.filter(|key| key.kind == FactKind::Control);
    blocks.map(|key| (key.instance, key.task)).collect()
}

#[test]
fn a_window_of_errors_repeats_and_misreports_is_one_bare_commit() {
    // Two instances whose leaves report, into one 50 ms window, an
    // execution error, a plain outcome, a repeat outcome and an
    // undeclared output each: eight reports, one step, one commit record
    // in one frame — no report waits for the window to commit and then
    // commits alone behind it. The eighth is the last report the shard
    // awaits, so the window closes on it, not 50 ms on.
    let config = EngineConfig {
        commit_batch: CommitBatch {
            max_events: 64,
            max_window: SimDuration::from_millis(50),
        },
        ..det_config()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(1)
        .link(det_link())
        .config(config)
        .build();
    bind_misreports(&mut sys, [10, 5, 15]);
    for name in ["a", "b"] {
        sys.start(name, "misreports", "main", [("seed", text("Data", "s"))])
            .unwrap();
    }
    // The window opens on the first error (~0.4 ms) and closes on the
    // last `rogue`'s report (~15 ms).
    sys.run_for(SimDuration::from_millis(15));
    assert_eq!(log_frames(&sys.storage()).len(), 2, "the two starts");
    assert_eq!(sys.metrics_snapshot().counter("tx.commits"), 2);
    sys.run_for(SimDuration::from_millis(1));
    let frames = log_frames(&sys.storage());
    assert_eq!(frames.len(), 3, "and the window");
    assert!(is_bare_commit(&frames[2]), "{:?}", frames[2]);
    assert_eq!(sys.metrics_snapshot().counter("tx.commits"), 3);
    // The four leaves are tasks 1–4 of instances 0 and 1.
    let mut blocks = blocks_written(&frames[2]);
    blocks.sort_unstable();
    let expected: Vec<(u32, u32)> = (0..2).flat_map(|i| (1..=4).map(move |t| (i, t))).collect();
    assert_eq!(blocks, expected);
    let stats = sys.stats();
    assert_eq!((stats.retries, stats.repeats, stats.failures), (2, 2, 2));
    sys.run();
    let frames = log_frames(&sys.storage());
    assert!(frames.iter().all(is_bare_commit), "to the end");
    for name in ["a", "b"] {
        assert!(matches!(
            sys.status(name).unwrap(),
            InstanceStatus::Stuck { .. }
        ));
    }
}

#[test]
fn an_error_a_repeat_and_a_last_failed_retry_each_commit_once() {
    // The window of one: every report is a step of its own, and the
    // counter reads what each cost. None of these commits its one block
    // first and evaluates in a second action.
    let config = EngineConfig {
        commit_batch: CommitBatch::disabled(),
        ..det_config()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(1)
        .link(det_link())
        .config(config)
        .build();
    bind_misreports(&mut sys, [10, 5, 15]);
    sys.start("i", "misreports", "main", [("seed", text("Data", "s"))])
        .unwrap();
    let commits = |sys: &WorkflowSystem| sys.metrics_snapshot().counter("tx.commits");
    assert_eq!(commits(&sys), 1, "the start");
    // What the run up to `ms` committed.
    let spent_by = |sys: &mut WorkflowSystem, ms: u64| {
        let before = commits(sys);
        sys.run_until(SimTime::from_nanos(ms * 1_000_000));
        commits(sys) - before
    };
    assert_eq!(spent_by(&mut sys, 3), 1, "`unbound` errs: the attempt bump");
    assert_eq!(sys.stats().retries, 1);
    assert_eq!(spent_by(&mut sys, 8), 1, "`again` repeats: block and fact");
    assert_eq!(sys.stats().repeats, 1);
    assert_eq!(spent_by(&mut sys, 13), 1, "`plain` is done");
    assert_eq!(spent_by(&mut sys, 18), 1, "`rogue` misreports: `Failed`");
    assert_eq!(sys.stats().failures, 1);
    // `again` is redone and done, `unbound` errs twice more.
    assert_eq!(spent_by(&mut sys, 100), 3);
    assert_eq!(sys.status("i").unwrap(), InstanceStatus::Running);
    // Its last retry errs too: `Failed`, and the instance — nothing in
    // flight, the root unable to end — parks `Stuck` in the same step.
    assert_eq!(spent_by(&mut sys, 200), 1);
    assert_eq!((sys.stats().retries, sys.stats().failures), (3, 2));
    assert!(matches!(
        sys.status("i").unwrap(),
        InstanceStatus::Stuck { .. }
    ));
    let frames = log_frames(&sys.storage());
    assert_eq!(frames.len() as u64, commits(&sys), "a frame per commit");
    assert!(frames.iter().all(is_bare_commit));
}

/// The uids a frame's commit writes, in log order.
fn uids_written(frame: &LogRecord) -> Vec<&str> {
    let keys = frame_writes(frame).into_iter();
    keys.filter_map(|(key, _)| Some(key.as_uid()?.as_str()))
        .collect()
}

#[test]
fn a_restart_rearms_an_instance_in_one_frame() {
    // Four leaves of one instance are executing when the coordinator
    // crashes, and both executors with it: the census finds none of them
    // running, and the re-send ships the four attempts as committed in
    // one step. It bumps no block: its frame holds only the shard-life
    // key, which moves the log past this life's ticket base.
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(1)
        .link(det_link())
        .config(det_config())
        .build();
    let width = 4;
    sys.register_script("fan", &fan_join_source(width, |_| None), "root")
        .unwrap();
    for i in 0..width {
        sys.bind_fn(&format!("refW{i}"), |_| {
            TaskBehavior::outcome("done").with_work(SimDuration::from_millis(100))
        });
    }
    sys.start("f", "fan", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run_for(SimDuration::from_millis(20));
    let before = log_frames(&sys.storage()).len();
    restart_with_executors(&mut sys);
    assert_eq!(log_frames(&sys.storage()).len(), before, "the census first");
    // Both executors answer within a round trip.
    sys.run_for(SimDuration::from_millis(1));
    let frames = log_frames(&sys.storage());
    assert_eq!(frames.len(), before + 1, "one step for the instance");
    let rearm = frames.last().unwrap();
    assert!(is_bare_commit(rearm), "{rearm:?}");
    assert_eq!(uids_written(rearm), ["sys/life"]);
    assert_eq!(blocks_written(rearm), []);
    let attempts = |sys: &WorkflowSystem| -> Vec<u32> {
        let blocks = sys.coord_handle(0).get().task_blocks("f");
        (0..width)
            .map(|i| blocks[&format!("root/w{i}")].attempt)
            .collect()
    };
    assert_eq!(attempts(&sys), [0, 0, 0, 0]);
    sys.run();
    assert_eq!(sys.outcome("f").expect("completes").name, "done");
    // Each leaf shipped twice, both times attempt 0: before the crash,
    // and re-sent. The re-sent report of each was applied.
    let sent = sys.dispatch_trace_of("f");
    assert!(sent.iter().all(|record| record.attempt == 0), "{sent:?}");
    let leaves = sent
        .iter()
        .filter(|record| record.path.starts_with("root/w"));
    assert_eq!(leaves.count(), 2 * width);
    assert_eq!(sys.stats().retries, 0);
    assert_eq!((sys.stats().resent, sys.stats().census_claimed), (4, 0));
}

/// How [`a_restart_rearms_every_running_instance_in_one_frame`]'s
/// coordinator restarts, if at all.
#[derive(Clone, Copy)]
enum Crash {
    None,
    /// Alone: its executors run on, and the census claims every attempt.
    Shard,
    /// With both executors: the census claims nothing.
    WithExecutors,
}

#[test]
fn a_restart_rearms_every_running_instance_in_one_frame() {
    // One shard, `n` two-leaf fans with both leaves executing when the
    // coordinator crashes. With its executors up, the census claims
    // every attempt where it runs: the restart writes and re-sends
    // nothing, and the attempts the crash left on the wire report and
    // are applied. With its executors crashed too, the restart re-sends
    // every executing attempt, of every instance, in one step — one
    // frame, which bumps no block — and the re-sent attempts report and
    // are applied. Either way every instance ends as it does in a run
    // that never crashed.
    let (width, work_ms) = (2, 100);
    let work = SimDuration::from_millis(work_ms);
    let fans = |n: usize, crash: Crash| {
        let mut sys = WorkflowSystem::builder()
            .executors(2)
            .seed(1)
            .link(det_link())
            .config(det_config())
            .build();
        sys.register_script("fan", &fan_join_source(width, |_| None), "root")
            .unwrap();
        for i in 0..width {
            sys.bind_fn(&format!("refW{i}"), move |_| {
                TaskBehavior::outcome("done").with_work(work)
            });
        }
        let names: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
        for name in &names {
            sys.start(name, "fan", "main", [("seed", text("Data", "s"))])
                .unwrap();
        }
        sys.run_for(SimDuration::from_millis(20));
        let before = log_frames(&sys.storage()).len();
        let coordinator = sys.coordinator_node();
        match crash {
            Crash::None => {}
            Crash::Shard => {
                sys.crash_now(coordinator);
                sys.restart_now(coordinator);
            }
            Crash::WithExecutors => restart_with_executors(&mut sys),
        }
        // The census answers within a round trip.
        sys.run_for(SimDuration::from_millis(1));
        let frames = log_frames(&sys.storage());
        let (claimed, resent) = (sys.stats().census_claimed, sys.stats().resent);
        let leaves = (n * width) as u64;
        match crash {
            Crash::None => {}
            Crash::Shard => {
                assert_eq!(frames.len(), before, "{n} instances: nothing written");
                assert_eq!((claimed, resent), (leaves, 0), "{n} instances");
            }
            Crash::WithExecutors => {
                assert_eq!(frames.len(), before + 1, "{n} instances: one step");
                let rearm = frames.last().unwrap();
                assert!(is_bare_commit(rearm), "{rearm:?}");
                assert_eq!(uids_written(rearm), ["sys/life"], "{n} instances");
                assert_eq!(blocks_written(rearm), [], "{n} instances");
                assert_eq!((claimed, resent), (0, leaves), "{n} instances");
            }
        }
        if !matches!(crash, Crash::None) {
            // Every attempt running after the restart has reported by
            // now: each leaf is done, under attempt 0.
            sys.run_for(work);
            for name in &names {
                let blocks = sys.coord_handle(0).get().task_blocks(name);
                for i in 0..width {
                    let block = &blocks[&format!("root/w{i}")];
                    assert_eq!(block.attempt, 0, "{name}/w{i}");
                    assert!(
                        matches!(block.state, CbState::Done { .. }),
                        "{name}/w{i}: a report dropped"
                    );
                }
            }
        }
        sys.run();
        let ended = names
            .iter()
            .map(|name| (sys.outcome(name), sys.task_states(name)));
        ended.collect::<Vec<_>>()
    };
    for n in [1, 8] {
        let undisturbed = fans(n, Crash::None);
        for crash in [Crash::Shard, Crash::WithExecutors] {
            let ended = fans(n, crash);
            assert!(ended.iter().all(|(outcome, _)| outcome.is_some()));
            assert_eq!(ended, undisturbed, "{n} instances");
        }
    }
}

#[test]
fn a_diamond_burst_logs_what_its_anatomy_golden_says() {
    // The figures below are `tests/golden/diamond_burst.anatomy.txt`'s:
    // a change to any of them is a change to that file too.
    let sys = diamond_burst(4);
    let plan = Plan::lower(&compile_source(samples::FIG1_DIAMOND, "diamond").unwrap());
    // What instances run off is the repository's canonical form.
    let canonical = sys
        .repository()
        .get("diamond", None)
        .unwrap()
        .source
        .clone();
    let source = canonical.as_bytes();
    let (mut headers, mut blocks, mut presences) = (0, 0, 0);
    for storage in sys.shard_storages() {
        let frames = log_frames(&storage);
        let mut shared = Vec::new();
        for (at, frame) in frames.iter().enumerate() {
            let writes = frame_writes(frame);
            let starts = writes.iter().any(|(key, _)| {
                key.as_uid()
                    .is_some_and(|uid| uid.as_str().ends_with("/meta"))
            });
            for (key, value) in writes {
                let Some(value) = value else {
                    panic!("`{key}` deleted: a burst deletes nothing");
                };
                let carries_source = value.windows(source.len()).any(|w| w == source);
                match key {
                    StoreKey::Uid(uid) if uid.as_str().starts_with("inst/") => {
                        // Under its name an instance that never got stuck
                        // logs its header alone: 21 B, nothing the log
                        // says elsewhere.
                        assert!(uid.as_str().ends_with("/meta"), "`{uid}`");
                        assert_eq!(value.len(), 21, "`{uid}`");
                        headers += 1;
                    }
                    StoreKey::Uid(uid) => {
                        assert!(uid.as_str().starts_with("sys/src/"), "`{uid}` logged");
                        assert!(starts && carries_source, "`{uid}` outside a start");
                        shared.push(at);
                    }
                    StoreKey::Fact(key) => {
                        assert!(!carries_source, "`{key}` carries the source");
                        if key.kind == FactKind::Control {
                            assert!(value.len() <= 2, "`{key}` logged {} B", value.len());
                            blocks += 1;
                        } else if key.obj == 0 {
                            // A fact keeps a presence record only when no
                            // declared object can say it fired.
                            let decl = plan.fact_decl_objects(
                                key.task,
                                key.kind == FactKind::Input,
                                key.item,
                            );
                            assert_eq!(decl.map(|d| d.len()), Some(0), "`{key}`");
                            presences += 1;
                        }
                    }
                }
            }
        }
        // The source is pinned once per shard, by the shard's first start,
        // and a start writes no other shard-wide key.
        assert_eq!(shared, [0], "the shard's first start pins the source");
    }
    // Each diamond: its header; 10 control-block writes (two at the start
    // — the root's and `t1`'s, already `Executing`; the three tasks left
    // waiting store none — and two per report); one presence record, for
    // `t2`'s input set, which declares no object.
    assert_eq!(headers, BURST);
    assert_eq!(blocks, BURST * 10);
    assert_eq!(presences, BURST);
    // 381.14 B per diamond.
    assert_eq!(sys.log_size(), 19_057);
}

#[test]
fn no_fact_object_spells_what_its_plan_says() {
    // Fig. 7 orders and fig. 8 trips on one shard: every object a fact
    // holds has its declared class and a producer the plan knows, so a
    // stored object is a tag, a task id at most, and its payload — no
    // class name, no task path.
    let mut sys = build(1, det_config());
    let names = population();
    start_population(&mut sys, &names);
    sys.run();
    let plans = [
        (samples::ORDER_PROCESSING, "processOrderApplication"),
        (samples::BUSINESS_TRIP, "tripReservation"),
    ]
    .map(|(source, root)| Plan::lower(&compile_source(source, root).unwrap()));
    let mut spelled: Vec<&str> = Vec::new();
    for plan in &plans {
        spelled.extend(plan.class_objects.iter().map(|sig| plan.str(sig.class)));
        spelled.extend(plan.tasks.iter().map(|task| plan.str(task.path)));
    }
    let spells = |bytes: &[u8], text: &str| bytes.windows(text.len()).any(|w| w == text.as_bytes());
    // The payloads (the instance names, threaded through fig. 8's
    // dataflow, and the bindings' constants) spell none of them either.
    for name in &names {
        assert!(!spelled.iter().any(|text| spells(name.as_bytes(), text)));
    }
    let mut objects = 0;
    for frame in log_frames(&sys.storage()) {
        for (key, value) in frame_writes(&frame) {
            let (Some(key), Some(value)) = (key.as_fact(), value) else {
                continue;
            };
            if key.kind == FactKind::Control || key.obj == 0 {
                continue;
            }
            objects += 1;
            for text in &spelled {
                assert!(!spells(value, text), "`{key}` spells `{text}`: {value:?}");
            }
        }
    }
    for name in &names {
        assert!(sys.status(name).unwrap().is_terminal(), "{name} ends");
    }
    assert!(objects > 10 * names.len(), "{objects} objects");
}

#[test]
fn no_control_block_spells_what_its_plan_says() {
    // Fig. 7 orders and fig. 8 trips on one shard — marks, an abort, a
    // compound repeat: every block's set, outcome and marks are declared
    // by its task's class, so a stored block holds their ordinals and
    // never a name.
    let mut sys = build(1, det_config());
    let names = population();
    start_population(&mut sys, &names);
    sys.run();
    let plans = [
        (samples::ORDER_PROCESSING, "processOrderApplication"),
        (samples::BUSINESS_TRIP, "tripReservation"),
    ]
    .map(|(source, root)| Plan::lower(&compile_source(source, root).unwrap()));
    let mut declared: Vec<&str> = Vec::new();
    for plan in &plans {
        declared.extend(plan.class_sets.iter().map(|set| plan.str(set.name)));
        declared.extend(
            plan.class_outputs
                .iter()
                .map(|output| plan.str(output.name)),
        );
    }
    let spells = |bytes: &[u8], text: &str| bytes.windows(text.len()).any(|w| w == text.as_bytes());
    let mut blocks = 0;
    for frame in log_frames(&sys.storage()) {
        for (key, value) in frame_writes(&frame) {
            let (Some(key), Some(value)) = (key.as_fact(), value) else {
                continue;
            };
            if key.kind != FactKind::Control {
                continue;
            }
            blocks += 1;
            for text in &declared {
                assert!(!spells(value, text), "`{key}` spells `{text}`: {value:?}");
            }
        }
    }
    for name in &names {
        assert!(sys.status(name).unwrap().is_terminal(), "{name} ends");
    }
    assert!(blocks > 5 * names.len(), "{blocks} blocks");
}

#[test]
fn a_restart_scans_no_prefix_per_instance() {
    // A restart enumerates the stored headers and the hand-off rounds'
    // move records — one prefix scan each — and loads every instance off
    // its header, stuck record and root block: however many there are,
    // the load itself scans nothing.
    for instances in [4, 8] {
        let mut sys = WorkflowSystem::builder().executors(2).seed(1).build();
        bind_diamond(&mut sys);
        for i in 0..instances {
            let name = format!("d{i}");
            sys.start(&name, "diamond", "main", [("seed", text("Data", "s"))])
                .unwrap();
        }
        sys.run_for(SimDuration::from_millis(1));
        let before = sys.metrics_snapshot().counter("tx.prefix_scans");
        let coordinator = sys.coordinator_node();
        sys.crash_now(coordinator);
        sys.restart_now(coordinator);
        let scans = sys.metrics_snapshot().counter("tx.prefix_scans") - before;
        assert_eq!(scans, 2, "a restart over {instances} instances");
        assert_eq!(sys.stats().recovered_instances, instances);
        sys.run();
        for i in 0..instances {
            assert!(sys.outcome(&format!("d{i}")).is_some(), "d{i} completes");
        }
    }
}

#[test]
fn park_then_revive_logs_one_record_and_one_tombstone() {
    // `w` has no implementation bound: it fails, and the instance parks
    // `Stuck` — its one stuck record. The repair that republishes `w`'s
    // outcome revives it — the record's tombstone — and the root
    // completes on it.
    let mut sys = WorkflowSystem::builder().executors(2).seed(3).build();
    sys.register_script("one", ONE_TASK, "root").unwrap();
    sys.start("i", "one", "main", [("seed", text("Data", "s"))])
        .unwrap();
    sys.run();
    assert!(matches!(sys.status("i"), Ok(InstanceStatus::Stuck { .. })));
    sys.repair_fact("i", "root/w", "done", [("unused", text("Data", "x"))])
        .unwrap();
    sys.run();
    assert_eq!(sys.outcome("i").expect("revived, completed").name, "done");
    let frames = log_frames(&sys.storage());
    let status = frames
        .iter()
        .flat_map(frame_writes)
        .filter_map(|(key, value)| {
            let uid = key.as_uid()?;
            (uid.as_str() == "inst/i/status").then_some(value.is_some())
        });
    assert_eq!(status.collect::<Vec<_>>(), [true, false]);
}

#[test]
fn a_diamond_starts_in_one_frame() {
    // The start's records and the first drain's activations are one
    // commit record; with a window of one each of the four reports then
    // commits, cascade included, in a record — and a frame — of its own.
    let config = EngineConfig {
        commit_batch: CommitBatch::disabled(),
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(1)
        .link(det_link())
        .config(config)
        .build();
    bind_diamond(&mut sys);
    sys.start("d", "diamond", "main", [("seed", text("Data", "s"))])
        .unwrap();
    let frames = log_frames(&sys.storage());
    assert_eq!(frames.len(), 1, "the start is durable when it returns");
    sys.run();
    assert!(sys.outcome("d").is_some());
    let frames = log_frames(&sys.storage());
    assert_eq!(frames.len(), 5, "one start and four reports");
    assert!(frames.iter().all(is_bare_commit), "one step, one record");

    let first = frame_writes(&frames[0]);
    let named = |suffix: &str| {
        let ends = |key: &StoreKey| key.as_uid().is_some_and(|uid| uid.as_str() == suffix);
        first.iter().filter(|(key, _)| ends(key)).count()
    };
    assert_eq!(named("inst/d/meta"), 1);
    // No status: the root block, stored `Active`, says the instance runs.
    assert_eq!(named("inst/d/status"), 0);
    // Two blocks — the instance is this shard's first, id 0 — the
    // root's, and t1's written once, as `Executing`, beside the input set
    // it bound; t2–t4 wait, which a block never stored says.
    let blocks: Vec<(u32, &[u8])> = first
        .iter()
        .filter_map(|(key, value)| Some((key.as_fact()?, (*value)?)))
        .filter(|(key, _)| key.kind == FactKind::Control)
        .map(|(key, value)| (key.task, value))
        .collect();
    let tasks: Vec<u32> = blocks.iter().map(|(task, _)| *task).collect();
    assert_eq!(tasks, [0, 1]);
    // `Executing` its class's first set: what `facts.rs`'s unit tests
    // decode these two bytes as.
    assert_eq!(blocks[1].1, [2, 0]);
    let bound_t1 = |key: &StoreKey| {
        key.as_fact()
            .is_some_and(|key| key.task == 1 && key.kind == FactKind::Input)
    };
    assert!(first.iter().any(|(key, _)| bound_t1(key)));
}
