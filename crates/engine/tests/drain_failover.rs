//! Elastic fleet phase 2: planned drains and crash-driven adoption.
//!
//! A planned drain (`remove_coordinator`) must move the departing
//! shard's whole population to the survivors in *batched* 2PC rounds
//! and leave per-instance results byte-identical to a run that never
//! drained. Crash-driven adoption (`adopt_dead_shard`) must fence the
//! dead shard's storage so a zombie can never commit again, then land
//! every instance on its new owner with zero lost outcomes — even when
//! the chaos harness kills the shard at any point inside the protocol.

mod common;

use std::collections::BTreeMap;

use common::{
    build_orders, det_link, order_population as population, settled, start_population, text,
    ONE_TASK,
};
use flowscript_engine::coordinator::EngineConfig;
use flowscript_engine::{
    InstanceStatus, KillPoint, ObsEventKind, ObserveLevel, TaskBehavior, WorkflowSystem,
};
use flowscript_sim::{SimDuration, SimTime};
use flowscript_tx::{TxError, TxManager};

fn det_config() -> EngineConfig {
    EngineConfig {
        max_retries: 8,
        observe: ObserveLevel::Trace,
        ..common::det_config()
    }
}

fn build(coordinators: usize) -> WorkflowSystem {
    build_orders(coordinators, det_config())
}

/// Outcome-only fingerprint for the crash arms: a kill mid-protocol
/// legitimately costs watchdog retries (attempt bumps), but outcomes
/// are pure functions of the invocation and must match exactly.
fn outcome_print(sys: &WorkflowSystem, instance: &str) -> InstanceStatus {
    settled(sys, instance).0
}

fn baseline<F: Fn(&WorkflowSystem, &str) -> T, T>(print: F) -> BTreeMap<String, T> {
    let mut sys = build(3);
    start_population(&mut sys, &population());
    sys.run();
    population()
        .into_iter()
        .map(|name| {
            let p = print(&sys, &name);
            (name, p)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Planned drains.
// ---------------------------------------------------------------------

#[test]
fn planned_drain_preserves_every_outcome() {
    let expected = baseline(settled);

    // Live run: drain a shard mid-flight (~20ms into ~100ms orders).
    let mut sys = build(3);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    let departing = sys.coord_handle(1);
    let drained_count = departing.instance_names().len();
    assert!(drained_count > 0, "the drain must have work to move");

    let rounds_before = sys.metrics_snapshot().counter("tx.two_pc_rounds");
    let report = sys.remove_coordinator("coordinator1").expect("drain");
    assert_eq!(report.moved, drained_count, "the whole population moves");
    // Per round: one intent batch, one prepare, one resolve — plus a
    // decision frame per instance.
    assert_eq!(
        sys.metrics_snapshot().counter("tx.two_pc_rounds") - rounds_before,
        (3 * report.rounds + report.moved) as u64,
        "the protocol's durable steps per round must not move"
    );
    assert!(
        report.rounds < report.moved,
        "batching must amortize: {} rounds for {} instances",
        report.rounds,
        report.moved
    );
    assert_eq!(report.rounds, report.pause_ns.len());
    assert_eq!(report.epoch, 2, "one membership change after epoch 1");
    assert_eq!(sys.shard_count(), 2);
    assert!(
        !sys.coordinator_nodes()
            .iter()
            .any(|&n| n == departing.node()),
        "the drained node must leave the map"
    );
    assert_eq!(
        sys.stats().handoffs,
        report.moved as u64,
        "every move counted exactly once, at its commit decision"
    );

    sys.run();

    // No outcome, task state or attempt count may differ from the
    // never-drained run: the retired relay forwarded every late reply.
    for name in population() {
        assert_eq!(
            settled(&sys, &name),
            expected[&name],
            "{name} diverged from the no-drain run"
        );
    }
    assert_eq!(sys.stats().forward_loops, 0);

    // Observability: the system-level drain events and the pause
    // histogram both recorded.
    let kinds: Vec<ObsEventKind> = sys
        .trace("coordinator1")
        .into_iter()
        .map(|e| e.kind)
        .collect();
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, ObsEventKind::DrainBegin { remaining } if *remaining == drained_count as u64)),
        "DrainBegin must record the population: {kinds:?}"
    );
    assert!(
        kinds.iter().any(|k| matches!(
            k,
            ObsEventKind::DrainEnd { moved, rounds }
                if *moved == report.moved as u64 && *rounds == report.rounds as u64
        )),
        "DrainEnd must record the tally: {kinds:?}"
    );
    let snapshot = sys.metrics_snapshot();
    let pauses = snapshot
        .histogram("coord.drain_pause_ns")
        .expect("histogram");
    assert_eq!(pauses.count, report.rounds as u64);
}

#[test]
fn drain_refuses_the_last_coordinator() {
    let mut sys = build(1);
    let err = sys.remove_coordinator("coordinator").expect_err("refuse");
    assert!(err.to_string().contains("last coordinator"), "{err}");
    let err = sys.remove_coordinator("nonesuch").expect_err("unknown");
    assert!(err.to_string().contains("nonesuch"), "{err}");
}

/// Kill the draining shard at every point inside a batch round: the
/// call errors mid-protocol, the restarted node recovers (presumed
/// abort before the decision, committed verdict re-announcement after
/// it), and a re-run drains what is left. Zero lost outcomes.
#[test]
fn drain_killed_at_any_point_converges_on_rerun() {
    let expected = baseline(outcome_print);
    for point in [
        KillPoint::BeforeBegin,
        KillPoint::AfterBegin,
        KillPoint::AfterPrepare,
        KillPoint::AfterDecision,
    ] {
        let mut sys = build(3);
        start_population(&mut sys, &population());
        sys.run_until(SimTime::from_nanos(20_000_000));
        let victim = sys.coord_handle(1).node();

        sys.arm_chaos_kill(point, 0);
        let err = sys
            .remove_coordinator("coordinator1")
            .expect_err("the armed kill must abort the drain");
        assert!(err.to_string().contains("chaos"), "{point:?}: {err}");
        assert_eq!(
            sys.shard_count(),
            3,
            "{point:?}: a failed drain must not retire the shard"
        );

        // The operator brings the node back and retries the drain.
        sys.restart_now(victim);
        sys.run_for(SimDuration::from_millis(100));
        let report = sys
            .remove_coordinator("coordinator1")
            .unwrap_or_else(|e| panic!("{point:?}: re-drain failed: {e}"));
        assert_eq!(sys.shard_count(), 2);
        // After the decision the first attempt's batch already moved:
        // the re-run only carries the remainder.
        if point == KillPoint::AfterDecision {
            assert!(report.moved < expected.len(), "{point:?}");
        }
        sys.run();

        for name in population() {
            assert_eq!(
                outcome_print(&sys, &name),
                expected[&name],
                "{point:?}: {name} lost or changed its outcome"
            );
        }
        assert_eq!(
            sys.stats().forward_loops,
            0,
            "{point:?}: relays must not loop"
        );
    }
}

// ---------------------------------------------------------------------
// Crash-driven adoption.
// ---------------------------------------------------------------------

#[test]
fn dead_shard_adoption_loses_no_outcomes() {
    let expected = baseline(outcome_print);

    let mut sys = build(3);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    let dead = sys.coord_handle(1);
    let dead_population = dead.instance_names().len();
    assert!(dead_population > 0);

    // The shard dies and never comes back: its instances are adopted
    // straight out of the surviving storage.
    sys.crash_now(dead.node());
    let report = sys.adopt_dead_shard("coordinator1").expect("failover");
    assert_eq!(report.adopted, dead_population);
    assert_eq!(report.epoch, 2);
    assert_eq!(sys.shard_count(), 2);

    sys.run();
    for name in population() {
        assert_eq!(
            outcome_print(&sys, &name),
            expected[&name],
            "{name} lost or changed its outcome in the failover"
        );
    }
    assert_eq!(sys.stats().adoptions, dead_population as u64);
    assert_eq!(
        sys.metrics_snapshot().counter("coord.adoptions"),
        dead_population as u64
    );

    // A formerly dead-shard instance carries the claim + adoption pair
    // in its trace, stamped with the dead shard and the claim epoch.
    let moved = population()
        .into_iter()
        .find(|name| {
            sys.trace(name)
                .iter()
                .any(|e| matches!(e.kind, ObsEventKind::Claim { .. }))
        })
        .expect("some instance was claimed");
    let kinds: Vec<ObsEventKind> = sys.trace(&moved).into_iter().map(|e| e.kind).collect();
    let from = dead.node().index() as u32;
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, ObsEventKind::Claim { from: f, epoch: 2 } if *f == from)),
        "{moved}: {kinds:?}"
    );
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, ObsEventKind::Adopted { from: f, epoch: 2 } if *f == from)),
        "{moved}: {kinds:?}"
    );
}

/// The false-positive scenario: the "dead" shard is actually alive.
/// The fence must muzzle it — it drops every message and timer, its
/// log never grows again, and a manager reopened under its identity is
/// refused on its first append.
#[test]
fn fenced_zombie_cannot_commit_after_storage_is_claimed() {
    let expected = baseline(outcome_print);

    let mut sys = build(3);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    let zombie = sys.coord_handle(0);
    let zombie_node = zombie.node();
    let storage = sys.storage();
    assert!(
        sys.world_mut().is_up(zombie_node),
        "the victim is deliberately alive: failure detection lied"
    );

    sys.adopt_dead_shard("coordinator0").expect("failover");
    let muzzled_at = zombie.log_size();

    // The live zombie keeps receiving executor replies and firing
    // watchdogs for the whole rest of the run — none of it may commit.
    sys.run();
    assert_eq!(
        zombie.log_size(),
        muzzled_at,
        "a fenced shard's log must never grow again"
    );
    for name in population() {
        assert_eq!(
            outcome_print(&sys, &name),
            expected[&name],
            "{name} lost or changed its outcome under the false positive"
        );
    }

    // Even reopening the storage under the zombie's identity is
    // refused: the fence survives in the log.
    let mut mgr = TxManager::open(zombie_node.index() as u32, storage).expect("replay");
    assert!(
        matches!(mgr.write_fence(99), Err(TxError::Fenced { epoch: 2, .. })),
        "a fenced manager must refuse its first append"
    );
}

/// Kill the driver mid-claim: some instances are claimed, the fence is
/// written, nothing was retired. The re-run is idempotent — it skips
/// what was claimed, claims the rest, and sweeps everything home.
#[test]
fn adoption_killed_mid_claim_converges_on_rerun() {
    let expected = baseline(outcome_print);

    let mut sys = build(3);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    let dead = sys.coord_handle(1);
    let dead_population = dead.instance_names().len();
    assert!(dead_population >= 2, "need at least two claims to split");

    sys.crash_now(dead.node());
    sys.arm_chaos_kill(KillPoint::MidClaim, 1);
    let err = sys
        .adopt_dead_shard("coordinator1")
        .expect_err("the armed kill must abort the adoption");
    assert!(err.to_string().contains("chaos"), "{err}");
    assert_eq!(sys.shard_count(), 3, "no retirement on a failed run");

    let report = sys.adopt_dead_shard("coordinator1").expect("re-run");
    assert_eq!(
        report.adopted,
        dead_population - 1,
        "the re-run must skip the already-claimed instance"
    );
    assert_eq!(sys.shard_count(), 2);

    sys.run();
    for name in population() {
        assert_eq!(
            outcome_print(&sys, &name),
            expected[&name],
            "{name} lost or changed its outcome across the interrupted failover"
        );
    }
    assert_eq!(sys.stats().adoptions, dead_population as u64);
}

// ---------------------------------------------------------------------
// Admission occupancy follows hand-offs.
// ---------------------------------------------------------------------

/// Draining into a shard near its admission cap must *queue* later
/// starts, not overrun the cap: adopted instances occupy admission
/// slots on their new shard, and release them when they terminate.
#[test]
fn drain_into_near_capacity_shard_queues_rather_than_overruns() {
    let config = EngineConfig {
        max_inflight_instances: Some(3),
        admission_queue_limit: 4,
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .coordinators(2)
        .seed(8)
        .link(det_link())
        .config(config)
        .build();
    sys.register_script("one", ONE_TASK, "root").unwrap();
    sys.bind_fn("refWork", |_| {
        TaskBehavior::outcome("done").with_work(SimDuration::from_millis(500))
    });

    // Stage occupancy: two live instances on each shard (cap 3 each).
    let mut names = (0..).map(|i| format!("job-{i}"));
    let mut on_shard = |sys: &WorkflowSystem, shard: usize, n: usize| -> Vec<String> {
        names
            .by_ref()
            .filter(|name| sys.shard_of(name) == shard)
            .take(n)
            .collect()
    };
    let src_jobs = on_shard(&sys, 0, 2);
    let dest_jobs = on_shard(&sys, 1, 2);
    for name in src_jobs.iter().chain(&dest_jobs) {
        sys.start(name, "one", "main", [("seed", text("Data", name))])
            .unwrap();
    }
    sys.run_for(SimDuration::from_millis(20));

    // The drain pushes shard 1 to four live instances — past its cap
    // of three. Internal moves are never admission-gated…
    let report = sys.remove_coordinator("coordinator0").expect("drain");
    assert_eq!(report.moved, 2);

    // …but the next start is: it must park in the admission queue
    // until TWO of the four drain away (4 → 3 is still at the cap),
    // not be admitted against a stale pre-drain occupancy.
    let admitted_at = sys.now();
    sys.start("late", "one", "main", [("seed", text("Data", "late"))])
        .unwrap();
    assert!(
        sys.now() >= admitted_at + SimDuration::from_millis(400),
        "the start must block on the adopted occupancy (blocked {} -> {})",
        admitted_at,
        sys.now()
    );
    assert_eq!(sys.stats().busy_rejections, 0, "queued, not rejected");
    let kinds: Vec<ObsEventKind> = sys.trace("late").into_iter().map(|e| e.kind).collect();
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, ObsEventKind::Parked { .. })),
        "the late start must park: {kinds:?}"
    );

    sys.run();
    for name in src_jobs
        .iter()
        .chain(&dest_jobs)
        .chain([&"late".to_string()])
    {
        assert!(
            matches!(sys.status(name).unwrap(), InstanceStatus::Completed(_)),
            "{name}: {:?}",
            sys.status(name)
        );
    }
}
