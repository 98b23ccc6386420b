//! Cross-shard matrix: sharding instances across coordinator nodes must
//! be **behaviour-preserving**. For every shard count k ∈ {1, 2, 4, 8}
//! and the fig. 7 (order processing) / fig. 8 (business trip)
//! workloads, per-instance outcomes, dispatch traces and task states
//! must be byte-identical to the single-coordinator baseline; a
//! one-shard crash must recover from that shard's WAL alone while other
//! shards keep committing; a partition isolating one shard must heal
//! into completion; reconfiguration must work on non-zero shards;
//! misdirected requests must be forwarded to the owner; and a shard
//! fetches each script version from the repository once, while a start
//! still runs the version last registered.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::{
    bind_order, bind_trip, build, det_config, det_link, fingerprint, fingerprints, population,
    start_population, text, Fingerprint, ONE_TASK,
};
use flowscript_core::samples;
use flowscript_engine::{
    EngineConfig, InstanceStatus, ObjectVal, Reconfig, TaskBehavior, WorkflowSystem,
};
use flowscript_sim::{FaultAction, FaultPlan, SimDuration, SimTime, TraceEvent};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn run_clean(coordinators: usize) -> BTreeMap<String, Fingerprint> {
    let mut sys = build(coordinators, det_config());
    let population = population();
    start_population(&mut sys, &population);
    sys.run();
    fingerprints(&mut sys, &population)
}

#[test]
fn clean_matrix_is_byte_identical_to_single_coordinator() {
    let baseline = run_clean(1);
    // Sanity: the baseline actually completed everything.
    for (name, (status, trace, _)) in &baseline {
        assert!(!trace.is_empty(), "{name} never dispatched");
        assert!(status.is_terminal());
    }
    for k in SHARD_COUNTS.into_iter().skip(1) {
        let sharded = run_clean(k);
        assert_eq!(baseline, sharded, "shard count {k} diverged from baseline");
    }
}

#[test]
fn population_actually_spreads_across_shards() {
    let sys = build(8, det_config());
    let mut owners: BTreeMap<usize, usize> = BTreeMap::new();
    for name in population() {
        *owners.entry(sys.shard_of(&name)).or_default() += 1;
    }
    assert!(
        owners.len() >= 3,
        "12 instances should land on several of 8 shards: {owners:?}"
    );
}

#[test]
fn fig8_repeat_loop_is_identical_across_shard_counts() {
    // One trip whose hotel fails the first time (the Fig. 8
    // compensate-and-repeat loop), compared per shard count.
    let run = |coordinators: usize| -> Fingerprint {
        let mut sys = build(coordinators, det_config());
        sys.start(
            "trip-retry-x",
            "trip",
            "main",
            [("user", text("User", "retry-1"))],
        )
        .unwrap();
        sys.run();
        assert_eq!(
            sys.outcome("trip-retry-x").expect("trip completes").name,
            "booked"
        );
        assert!(sys.stats().repeats >= 1, "the repeat loop must have run");
        fingerprint(&mut sys, "trip-retry-x")
    };
    let baseline = run(1);
    for k in SHARD_COUNTS.into_iter().skip(1) {
        assert_eq!(baseline, run(k), "shard count {k}");
    }
}

#[test]
fn one_shard_crash_recovers_locally_without_disturbing_others() {
    let unfaulted = run_clean(4);

    let mut sys = build(4, det_config());
    start_population(&mut sys, &population());
    let victim_name = "order-0";
    let victim_shard = sys.shard_of(victim_name);
    let victim_node = sys.coordinator_node_for(victim_name);
    // Crash the owning coordinator mid-flight (the order takes ~100ms of
    // virtual time), restart shortly after: only this shard replays its
    // WAL.
    FaultPlan::crash_restart(
        victim_node,
        SimTime::from_nanos(40_000_000),
        SimDuration::from_millis(120),
    )
    .apply(sys.world_mut());
    sys.run_until(SimTime::from_nanos(160_000_000));
    common::assert_quiescent(&mut sys, "after the restart");
    sys.run();

    // Every instance still reaches its verdict; the victim's instances
    // complete through recovery.
    for name in population() {
        let status = sys.status(&name).unwrap();
        assert!(
            matches!(status, InstanceStatus::Completed(_)),
            "{name}: {status:?}"
        );
    }
    // Shard-local recovery: exactly the victim shard recovered, and it
    // recovered exactly its own instances.
    let own: usize = population()
        .iter()
        .filter(|name| sys.shard_of(name) == victim_shard)
        .count();
    for shard in 0..sys.shard_count() {
        let recovered = sys.shard_stats(shard).recovered_instances;
        if shard == victim_shard {
            assert_eq!(recovered as usize, own, "victim shard replays its own WAL");
        } else {
            assert_eq!(recovered, 0, "shard {shard} must not have recovered");
        }
    }
    // Instances on *other* shards are byte-identical to the unfaulted
    // run — their shards never saw the crash.
    for name in population() {
        if sys.shard_of(&name) != victim_shard {
            assert_eq!(
                fingerprint(&mut sys, &name),
                unfaulted[&name],
                "{name} (shard {}) disturbed by shard {victim_shard}'s crash",
                sys.shard_of(&name)
            );
        }
    }
}

#[test]
fn partition_isolating_one_shard_heals_and_completes() {
    let unfaulted = run_clean(4);

    let mut config = det_config();
    config.max_retries = 8;
    let mut sys = build(4, config);
    start_population(&mut sys, &population());

    let victim_name = "order-1";
    let victim_shard = sys.shard_of(victim_name);
    let victim_node = sys.coordinator_node_for(victim_name);
    let executors = sys.executor_nodes().to_vec();
    FaultPlan::new()
        .at(
            SimTime::from_nanos(5_000_000),
            FaultAction::Partition(vec![victim_node], executors),
        )
        .at(SimTime::from_nanos(1_500_000_000), FaultAction::HealAll)
        .apply(sys.world_mut());
    sys.run();

    for name in population() {
        let status = sys.status(&name).unwrap();
        assert!(
            matches!(status, InstanceStatus::Completed(_)),
            "{name}: {status:?}"
        );
        // Unpartitioned shards never noticed.
        if sys.shard_of(&name) != victim_shard {
            assert_eq!(fingerprint(&mut sys, &name), unfaulted[&name], "{name}");
        }
    }
    // The isolated shard bridged the partition with watchdog retries.
    assert!(
        sys.shard_stats(victim_shard).retries > 0,
        "victim stats: {:?}",
        sys.shard_stats(victim_shard)
    );
}

#[test]
fn reconfiguration_lands_on_nonzero_shards() {
    let mut sys = build(4, det_config());
    // Find an order instance owned by a non-zero shard.
    let (name, shard) = (0..32)
        .map(|i| format!("reconf-{i}"))
        .find_map(|name| {
            let shard = sys.shard_of(&name);
            (shard != 0).then_some((name, shard))
        })
        .expect("some name lands off shard 0");
    sys.start(&name, "order", "main", [("order", text("Order", &name))])
        .unwrap();
    // Rebind the dispatch implementation before the dispatch task can
    // run (it waits on payment ~30ms + stock ~45ms).
    sys.run_for(SimDuration::from_millis(10));
    sys.reconfigure(
        &name,
        Reconfig::Rebind {
            code: "refDispatch".into(),
            to: "refDispatchAlt".into(),
        },
    )
    .unwrap();
    sys.run();
    let outcome = sys.outcome(&name).expect("completes");
    assert_eq!(outcome.name, "orderCompleted");
    assert_eq!(
        outcome.objects["dispatchNote"].as_text(),
        "alt-note",
        "the rebound implementation must have produced the note"
    );
    for s in 0..sys.shard_count() {
        let expected = u64::from(s == shard);
        assert_eq!(
            sys.shard_stats(s).reconfigs,
            expected,
            "reconfig must land on shard {shard} only"
        );
    }
}

#[test]
fn misdirected_requests_are_forwarded_to_the_owner() {
    let mut sys = build(4, det_config());
    // Find an instance owned by a shard other than 0, then start it
    // *via shard 0*: the request must be forwarded, acknowledged, and
    // executed by the owner.
    let (name, owner) = (0..32)
        .map(|i| format!("fwd-{i}"))
        .find_map(|name| {
            let shard = sys.shard_of(&name);
            (shard != 0).then_some((name, shard))
        })
        .expect("some name lands off shard 0");
    sys.start_via_shard(0, &name, "order", "main", [("order", text("Order", &name))])
        .unwrap();
    sys.run();
    assert_eq!(
        sys.outcome(&name).expect("completes").name,
        "orderCompleted"
    );
    assert!(
        sys.shard_stats(0).forwarded >= 1,
        "shard 0 must have forwarded: {:?}",
        sys.shard_stats(0)
    );
    assert!(
        sys.shard_stats(owner).dispatches > 0,
        "the owner runs the instance"
    );
    assert_eq!(
        sys.shard_stats(0).dispatches,
        0,
        "shard 0 must not have executed anything"
    );
}

#[test]
fn whole_sharded_system_restarts_over_surviving_disks() {
    // Drop a sharded system mid-flight and rebuild a new one over the
    // same per-shard storages: every shard resumes its own instances.
    let storages;
    {
        let mut sys = build(4, det_config());
        start_population(&mut sys, &population());
        storages = sys.shard_storages();
        sys.run_until(SimTime::from_nanos(40_000_000));
        // The system dies here (dropped), volatile state lost.
    }
    let mut sys2 = WorkflowSystem::builder()
        .executors(3)
        .coordinators(4)
        .seed(8)
        .link(det_link())
        .config(det_config())
        .shard_storages(storages)
        .build();
    common::assert_quiescent(&mut sys2, "after the rebuild");
    sys2.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    sys2.register_script("trip", samples::BUSINESS_TRIP, "tripReservation")
        .unwrap();
    bind_order(&sys2);
    bind_trip(&sys2);
    sys2.run();
    for name in population() {
        let status = sys2.status(&name).unwrap();
        assert!(
            matches!(status, InstanceStatus::Completed(_)),
            "{name}: {status:?}"
        );
    }
    assert!(sys2.stats().recovered_instances >= population().len() as u64);
}

/// The 10k-concurrent-instances smoke test the sharding work unlocks.
/// Scaled down in debug builds (the CI release matrix runs the full
/// population; see `.github/workflows/ci.yml`).
#[test]
fn ten_k_concurrent_instances_smoke() {
    let count: usize = if cfg!(debug_assertions) { 300 } else { 10_000 };
    let config = EngineConfig {
        // Nothing fails here; keep the watchdogs far away.
        dispatch_timeout: SimDuration::from_secs(120),
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(4)
        .coordinators(8)
        .seed(11)
        .link(det_link())
        .config(config)
        .trace(false)
        .build();
    sys.register_script("q", samples::QUICKSTART, "pipeline")
        .unwrap();
    // Long virtual work so every instance is in flight at once.
    sys.bind_fn("refProduce", |_| {
        TaskBehavior::outcome("produced")
            .with_work(SimDuration::from_secs(30))
            .with_object("message", ObjectVal::text("Message", "m"))
    });
    sys.bind_fn("refConsume", |_| {
        TaskBehavior::outcome("consumed")
            .with_work(SimDuration::from_secs(30))
            .with_object("result", ObjectVal::text("Message", "r"))
    });
    for i in 0..count {
        sys.start(
            &format!("wave-{i}"),
            "q",
            "main",
            [("seed", text("Message", "s"))],
        )
        .unwrap();
    }
    sys.run();
    let mut per_shard = vec![0usize; sys.shard_count()];
    for i in 0..count {
        let name = format!("wave-{i}");
        assert_eq!(sys.outcome(&name).expect("completed").name, "done");
        per_shard[sys.shard_of(&name)] += 1;
    }
    assert_eq!(per_shard.iter().sum::<usize>(), count);
    for (shard, &owned) in per_shard.iter().enumerate() {
        assert!(owned > 0, "shard {shard} owned nothing: {per_shard:?}");
    }
    assert_eq!(sys.stats().dispatches, 2 * count as u64);
}

// ---------------------------------------------------------------------
// The repository: one fetch per shard and script version.
// ---------------------------------------------------------------------

/// Messages the coordinators have sent the repository so far: one per
/// fetch.
fn repository_fetches(sys: &mut WorkflowSystem) -> usize {
    let coordinators = sys.coordinator_nodes().to_vec();
    let sent: Vec<_> = (sys.sim_trace().entries().iter())
        .filter_map(|(_, event)| match event {
            TraceEvent::MessageSent { src, dst, .. } if coordinators.contains(src) => Some(*dst),
            _ => None,
        })
        .collect();
    let world = sys.world_mut();
    sent.into_iter()
        .filter(|&dst| world.node_name(dst) == "repository")
        .count()
}

/// Each `(shard, script)` the `order-…` / `trip-…` names start on.
fn versions_used(sys: &WorkflowSystem, names: &[String]) -> BTreeSet<(usize, &'static str)> {
    let script = |name: &str| {
        if name.starts_with("order-") {
            "order"
        } else {
            "trip"
        }
    };
    names
        .iter()
        .map(|name| (sys.shard_of(name), script(name)))
        .collect()
}

fn orders_and_trips(from: usize, to: usize) -> Vec<String> {
    (from..to)
        .flat_map(|i| [format!("order-{i}"), format!("trip-{i}")])
        .collect()
}

#[test]
fn a_shard_fetches_each_script_version_once() {
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .coordinators(4)
        .seed(7)
        .link(det_link())
        .config(det_config())
        .trace(true)
        .build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    sys.register_script("trip", samples::BUSINESS_TRIP, "tripReservation")
        .unwrap();
    bind_order(&sys);
    bind_trip(&sys);
    let first = orders_and_trips(0, 12);
    start_population(&mut sys, &first);
    sys.run();
    let used = versions_used(&sys, &first);
    assert_eq!(used.len(), 8, "both scripts on all four shards: {used:?}");
    assert_eq!(repository_fetches(&mut sys), used.len(), "24 starts");

    // A restart forgets what each version is: the restarted shard's
    // next start of each fetches it once more, the other shards none.
    let restarted = sys.shard_of("order-0");
    let node = sys.coordinator_nodes()[restarted];
    sys.crash_now(node);
    common::restart_checked(&mut sys, node);
    sys.run();
    let second = orders_and_trips(12, 36);
    start_population(&mut sys, &second);
    sys.run();
    let refetched: BTreeSet<_> = (versions_used(&sys, &second).into_iter())
        .filter(|&(shard, _)| shard == restarted)
        .collect();
    assert_eq!(
        refetched.len(),
        2,
        "both scripts again on the restarted shard"
    );
    assert_eq!(repository_fetches(&mut sys), used.len() + refetched.len());
    for name in first.iter().chain(&second) {
        assert!(sys.outcome(name).is_some(), "{name} completes");
    }
}

#[test]
fn a_start_runs_the_version_registered_last_whatever_its_shard_holds() {
    let mut sys = WorkflowSystem::builder()
        .executors(2)
        .seed(7)
        .link(det_link())
        .config(det_config())
        .build();
    sys.bind_fn("refWork", |_| TaskBehavior::outcome("done"));
    let seed = || [("seed", text("Data", "s"))];
    let paths = |sys: &WorkflowSystem, name: &str| -> Vec<String> {
        sys.task_states(name).into_keys().collect()
    };
    assert_eq!(sys.register_script("work", ONE_TASK, "root").unwrap(), 1);
    sys.start("a", "work", "main", seed()).unwrap();
    sys.run();
    assert_eq!(paths(&sys, "a"), ["root", "root/w"]);

    // The shard holds v1; v2 renames the leaf.
    let renamed = ONE_TASK.replace("task w", "task v");
    assert_eq!(sys.register_script("work", &renamed, "root").unwrap(), 2);
    sys.start("b", "work", "main", seed()).unwrap();
    sys.run();
    assert_eq!(paths(&sys, "b"), ["root", "root/v"], "the new version runs");

    // The old version still runs when named.
    sys.start_version("c", "work", 1, "main", seed()).unwrap();
    sys.run();
    assert_eq!(paths(&sys, "c"), ["root", "root/w"]);
    for name in ["a", "b", "c"] {
        assert_eq!(sys.outcome(name).expect("completes").name, "done");
    }
}
