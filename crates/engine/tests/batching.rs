//! The commit window must be **behaviour-preserving and observable**:
//! for the fig. 7 (order processing) and fig. 8 (business trip)
//! workloads across shard counts, per-instance outcomes, dispatch
//! traces and task states must be byte-identical between the default
//! window and the reference arm (`CommitBatch::disabled`, the window of
//! one: every report commits, with its cascade, before the next is
//! looked at); randomized scripts must agree too; the batch metrics
//! (`coord.batch_size`, `wal.bytes_per_frame`) must
//! flow through the metrics snapshot and exports; `Commit` trace events must
//! carry the batch id; and a coordinator crash in the middle of an open
//! window must lose the unflushed window **as a unit** — no partial
//! batch ever visible — while committed frames replay fully.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::{
    bind_misreports, bind_order, build, det_link, fingerprints, generated_config, generated_script,
    population, run_generated, start_population, text, Fingerprint,
};
use flowscript_core::samples;
use flowscript_engine::{
    CbState, CommitBatch, EngineConfig, InstanceStatus, ObsEventKind, ObserveLevel, TaskBehavior,
    WorkflowSystem,
};
use flowscript_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn arm_config(batch: CommitBatch) -> EngineConfig {
    EngineConfig {
        dispatch_timeout: SimDuration::from_millis(400),
        retry_backoff: SimDuration::from_millis(20),
        observe: ObserveLevel::Trace,
        commit_batch: batch,
        ..EngineConfig::default()
    }
}

/// The paper population, plus two instances whose leaves error, repeat
/// and misreport ([`common::MISREPORTS`]) beside a plain outcome.
fn run_arm(coordinators: usize, batch: CommitBatch) -> BTreeMap<String, Fingerprint> {
    let mut sys = build(coordinators, arm_config(batch));
    bind_misreports(&mut sys, [10, 5, 15]);
    let mut population = population();
    start_population(&mut sys, &population);
    for name in ["misreports-a", "misreports-b"] {
        sys.start(name, "misreports", "main", [("seed", text("Data", "s"))])
            .unwrap();
        population.push(name.to_string());
    }
    sys.run();
    fingerprints(&sys, &population)
}

#[test]
fn batched_matches_unbatched_on_fig7_fig8_across_shards() {
    for coordinators in [1usize, 4] {
        let unbatched = run_arm(coordinators, CommitBatch::disabled());
        let batched = run_arm(coordinators, CommitBatch::default());
        // Sanity: the baseline actually ran everything.
        for (name, (status, trace, _)) in &unbatched {
            assert!(!trace.is_empty(), "{name} never dispatched");
            assert!(status.is_terminal());
        }
        let (_, retried, states) = &unbatched["misreports-a"];
        assert_eq!(retried.len(), 4 + 3 + 1, "three retries, one repeat");
        assert!(matches!(states["root/unbound"], CbState::Failed { .. }));
        assert!(matches!(states["root/rogue"], CbState::Failed { .. }));
        assert_eq!(
            unbatched, batched,
            "batched arm diverged at {coordinators} shard(s)"
        );
    }
}

#[test]
fn batch_metrics_flow_through_registry_and_exports() {
    let mut sys = build(1, arm_config(CommitBatch::default()));
    start_population(&mut sys, &population());
    sys.run();
    let snapshot = sys.metrics_snapshot();
    let batch_size = snapshot
        .histogram("coord.batch_size")
        .expect("batch-size histogram present");
    assert!(batch_size.count > 0, "flushes must sample their size");
    assert!(
        batch_size.max > 1,
        "concurrent completions must have coalesced into one flush"
    );
    let frame_bytes = snapshot
        .histogram("wal.bytes_per_frame")
        .expect("frame-size histogram present");
    assert!(frame_bytes.count > 0, "appends must sample frame sizes");
    // Export formats carry the new series.
    let json = snapshot.to_json();
    assert!(json.contains("\"coord.batch_size\""));
    assert!(json.contains("\"wal.bytes_per_frame\""));
    let csv = snapshot.to_csv();
    assert!(csv.contains("tx.commits,counter"));
    assert!(csv.contains("coord.batch_size,histogram"));
}

#[test]
fn reference_arm_flushes_every_report_alone() {
    let mut sys = build(1, arm_config(CommitBatch::disabled()));
    start_population(&mut sys, &population());
    sys.run();
    let snapshot = sys.metrics_snapshot();
    let batch_size = snapshot
        .histogram("coord.batch_size")
        .expect("the window of one flushes through the same pipeline");
    assert_eq!(
        (batch_size.max, batch_size.sum),
        (1, batch_size.count),
        "every window of the reference arm holds exactly one report"
    );
    // One flush per report: every dispatch not cancelled on the wire
    // was answered, and each answer flushed alone (marks, and a
    // cancelled attempt that answered first, only add to the count).
    let stats = sys.stats();
    assert!(
        batch_size.count >= stats.dispatches - stats.cancels,
        "{} flushes for {} dispatches, {} of them cancelled",
        batch_size.count,
        stats.dispatches,
        stats.cancels
    );
}

#[test]
fn commit_trace_events_carry_batch_ids() {
    // The instances whose commits each batch id stamped. A flush stamps
    // the reports it applies and the cascade they trigger.
    let run = |batch: CommitBatch| -> BTreeMap<u64, BTreeSet<String>> {
        let mut config = arm_config(batch);
        config.observe = ObserveLevel::Trace;
        let mut sys = build(1, config);
        start_population(&mut sys, &population());
        sys.run();
        let mut stamped: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
        for event in population().iter().flat_map(|name| sys.trace(name)) {
            if let ObsEventKind::Commit {
                batch: Some(id), ..
            } = event.kind
            {
                stamped.entry(id).or_default().insert(event.instance);
            }
        }
        stamped
    };
    let batched = run(CommitBatch::default());
    assert!(
        !batched.is_empty(),
        "commits must be stamped with their flush's id"
    );
    assert!(
        batched.values().any(|instances| instances.len() > 1),
        "some batch id must cover reports of more than one instance (coalescing visible in traces)"
    );
    let reference = run(CommitBatch::disabled());
    assert!(
        !reference.is_empty(),
        "the window of one stamps its commits like any other"
    );
    assert!(
        reference.values().all(|instances| instances.len() == 1),
        "a window of one holds one report, so its id never spans instances"
    );
}

#[test]
fn crash_mid_window_loses_the_batch_as_a_unit_and_recovers() {
    // A huge window so reports sit buffered: the first fig. 7
    // completion lands at ~30 ms and would not flush until ~5 s.
    let window = CommitBatch {
        max_events: 10_000,
        max_window: SimDuration::from_secs(5),
    };
    let mut sys = build(1, arm_config(window));
    // A sibling's dispatch, 300 ms of work, is still out at the crash:
    // the window closes once every report the shard awaits is in, so
    // without one the order's reports would each commit on arrival.
    sys.register_script("sibling", samples::QUICKSTART, "pipeline")
        .unwrap();
    sys.bind_fn("refProduce", |_| {
        TaskBehavior::outcome("produced")
            .with_work(SimDuration::from_millis(300))
            .with_object("message", text("Message", "m"))
    });
    sys.bind_fn("refConsume", |_| {
        TaskBehavior::outcome("consumed").with_object("result", text("Message", "r"))
    });
    sys.start(
        "sibling",
        "sibling",
        "main",
        [("seed", text("Message", "s"))],
    )
    .unwrap();
    sys.start(
        "crash-order",
        "order",
        "main",
        [("order", text("Order", "crash-order"))],
    )
    .unwrap();
    // Pause mid-window: completions have reported, nothing flushed.
    sys.run_until(SimTime::from_nanos(200 * 1_000_000));
    assert!(
        sys.coord_handle(0).get().window_armed(),
        "the window is open"
    );
    let states = sys.task_states("crash-order");
    assert!(
        !states.is_empty(),
        "dispatch commits (outside the window) must be durable"
    );
    assert!(
        states
            .values()
            .all(|state| !matches!(state, CbState::Done { .. } | CbState::Aborted { .. })),
        "no buffered report may be partially applied before its batch commits: {states:?}"
    );
    // The coordinator dies with the window open: the unflushed reports
    // vanish as a unit, committed frames replay fully.
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    sys.restart_now(coordinator);
    sys.run();
    let status = sys.status("crash-order").expect("instance recovered");
    assert!(
        matches!(status, InstanceStatus::Completed(_)),
        "recovery must re-dispatch and complete: {status:?}"
    );
    // The crashed-and-recovered run converges to the same terminal task
    // states as an undisturbed unbatched run.
    let mut clean = build(1, arm_config(CommitBatch::disabled()));
    clean
        .start(
            "crash-order",
            "order",
            "main",
            [("order", text("Order", "crash-order"))],
        )
        .unwrap();
    clean.run();
    assert_eq!(
        sys.task_states("crash-order"),
        clean.task_states("crash-order"),
        "exactly-once outcome application across the crash"
    );
}

#[test]
fn durable_file_wal_survives_crash_and_replays_group_frames() {
    // Same crash-and-recover contract, but on the file-backed stable
    // store: every flushed frame is an fdatasync'ed write to
    // `shard0.wal`, and recovery replays the on-disk log.
    let dir = std::env::temp_dir().join(format!("fs-batch-durable-{}", std::process::id()));
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .coordinators(1)
        .seed(7)
        .link(det_link())
        .config(arm_config(CommitBatch::default()))
        .wal_dir(&dir)
        .build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    bind_order(&sys);
    sys.start(
        "durable-order",
        "order",
        "main",
        [("order", text("Order", "durable-order"))],
    )
    .unwrap();
    // Crash mid-run: dispatches and early completions are on disk,
    // whatever sat in an open batch window is lost as a unit.
    sys.run_until(SimTime::from_nanos(60 * 1_000_000));
    let coordinator = sys.coordinator_node();
    sys.crash_now(coordinator);
    sys.restart_now(coordinator);
    sys.run();
    let status = sys.status("durable-order").expect("instance recovered");
    assert!(
        matches!(status, InstanceStatus::Completed(_)),
        "recovery over the file log must re-dispatch and complete: {status:?}"
    );
    let wal = std::fs::metadata(dir.join("shard0.wal")).expect("shard log exists on disk");
    assert!(wal.len() > 0, "synced frames must be on disk");
    // Converges to the same terminal states as an undisturbed
    // in-memory unbatched run.
    let mut clean = build(1, arm_config(CommitBatch::disabled()));
    clean
        .start(
            "durable-order",
            "order",
            "main",
            [("order", text("Order", "durable-order"))],
        )
        .unwrap();
    clean.run();
    assert_eq!(
        sys.task_states("durable-order"),
        clean.task_states("durable-order"),
        "file-backed recovery must agree with the in-memory baseline"
    );
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Randomized equivalence: batched vs unbatched on generated scripts.
// ---------------------------------------------------------------------

fn generated_arm(batch: CommitBatch) -> EngineConfig {
    EngineConfig {
        commit_batch: batch,
        ..generated_config()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batched_matches_unbatched_on_generated_scripts(
        k in 1usize..5,
        n in 1usize..4,
        seed in any::<u64>(),
        salts in proptest::collection::vec(any::<u64>(), 2..6),
    ) {
        let script = generated_script(n, seed);
        let names: Vec<String> = salts
            .iter()
            .enumerate()
            .map(|(i, salt)| format!("wf{i}-{salt:016x}"))
            .collect();
        let unbatched =
            run_generated(k, generated_arm(CommitBatch::disabled()), n, seed, &script, &names);
        let batched =
            run_generated(k, generated_arm(CommitBatch::default()), n, seed, &script, &names);
        prop_assert_eq!(&unbatched, &batched, "k={} n={} seed={}", k, n, seed);
        for (name, (status, trace, _)) in &unbatched {
            prop_assert!(status.is_terminal(), "{}: {:?}", name, status);
            prop_assert!(!trace.is_empty(), "{} never dispatched", name);
        }
    }
}
