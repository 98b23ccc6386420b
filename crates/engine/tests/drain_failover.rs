//! Elastic fleet phase 2: planned drains and crash-driven adoption.
//!
//! A planned drain (`remove_coordinator`) must move the departing
//! shard's whole population to the survivors in *batched* rounds — each
//! a claim sent from the source's move record — and leave per-instance
//! results byte-identical to a run that never drained. Crash-driven adoption (`adopt_dead_shard`) must fence the
//! dead shard's storage so a zombie can never commit again, then land
//! every instance on its new owner with zero lost outcomes. Both run as
//! messages between the shards, across virtual time — so the faults
//! come from the simulator: a crash of either end at every instant of
//! the protocol, a partition between them, a lossy link, a disk that
//! refuses. After every fleet call that returns, and at the end, no
//! instance has two owners (`common::assert_one_owner`).

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use common::{
    assert_one_owner, build_orders, build_orders_on, det_link, handoff_frames,
    order_population as population, settled, start_population, text, ONE_TASK,
};
use flowscript_engine::{
    EngineConfig, InstanceStatus, MoveReport, ObsEventKind, ObserveLevel, TaskBehavior,
    WorkflowSystem,
};
use flowscript_sim::net::LinkConfig;
use flowscript_sim::{FaultAction, FaultPlan, SimDuration, SimTime};
use flowscript_tx::storage::FlakyStorage;
use flowscript_tx::{
    LogRecord, MemStorage, Shared, SharedStorage, StableStore, Storage, TxError, TxManager,
};

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

/// Three shards with the population ~20ms into its ~100ms orders: a
/// drain or a kill now catches tasks genuinely executing.
fn mid_flight() -> WorkflowSystem {
    mid_flight_with(det_config())
}

fn mid_flight_with(config: EngineConfig) -> WorkflowSystem {
    let mut sys = build_orders(3, config);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    sys
}

/// No instance of the population has two owners (see
/// `common::assert_one_owner`).
fn one_owner(sys: &WorkflowSystem, when: &str) {
    assert_one_owner(sys, &population(), when);
}

/// Every instance must end with the outcome the undisturbed run gave
/// it, on exactly one shard, and no relay may have looped. `repro`
/// names the failing case.
fn assert_no_outcome_lost(
    sys: &WorkflowSystem,
    expected: &BTreeMap<String, InstanceStatus>,
    repro: &str,
) {
    one_owner(sys, repro);
    for name in population() {
        assert_eq!(
            outcome_print(sys, &name),
            expected[&name],
            "{repro}: {name} lost or changed its outcome"
        );
    }
    assert_eq!(
        sys.stats().forward_loops,
        0,
        "{repro}: relays must not loop"
    );
}

/// The 100 µs grid (half a `det_link` hop) over `span`, as offsets.
fn every_100us(span: SimDuration) -> impl Iterator<Item = SimDuration> {
    (0..span.as_nanos())
        .step_by(100_000)
        .map(SimDuration::from_nanos)
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
    let mut sys = mid_flight();
    let departing = sys.coord_handle(1).get().node();
    let drained = sys.coord_on(departing).get().instance_names();
    let drained_count = drained.len();
    assert!(drained_count > 0, "the drain must have work to move");

    let storages = sys.shard_storages();
    let report = sys.remove_coordinator("coordinator1").expect("drain");
    one_owner(&sys, "after the drain");
    assert_eq!(report.moved, drained_count, "the whole population moves");
    // All the protocol ever logged here — three frames a round, however
    // many instances it carries: the move record and the landing (the
    // slice purged, the record marked landed) at the source, the claim
    // landed beside its receipt at the destination.
    let frames: Vec<usize> = storages.iter().map(|s| handoff_frames(s).len()).collect();
    assert_eq!(
        (frames[1], frames[0] + frames[2]),
        (2 * report.rounds, report.rounds),
        "{frames:?}"
    );
    // Each round's landing at the source is ONE commit purging its whole
    // slice — every moved instance's header among its deletes.
    let deleted = |frame: &LogRecord| -> Vec<String> {
        let LogRecord::Commit { writes, .. } = frame else {
            return Vec::new();
        };
        let deletes = writes.iter().filter(|(_, value)| value.is_none());
        let uids = deletes.map(|(key, _)| key.to_string());
        uids.filter(|uid| uid.starts_with("inst/") && uid.ends_with("/meta"))
            .collect()
    };
    let purges: Vec<Vec<String>> = handoff_frames(&storages[1])
        .iter()
        .map(deleted)
        .filter(|headers| !headers.is_empty())
        .collect();
    let mut headers: Vec<String> = purges.concat();
    headers.sort();
    let mut moved: Vec<String> = drained
        .iter()
        .map(|name| format!("inst/{name}/meta"))
        .collect();
    moved.sort();
    assert_eq!(purges.len(), report.rounds);
    assert_eq!(
        headers, moved,
        "summed over rounds, {} headers",
        report.moved
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
        !sys.coordinator_nodes().contains(&departing),
        "the drained node must leave the map"
    );
    assert_eq!(
        sys.stats().handoffs,
        report.moved as u64,
        "every move counted exactly once, as it landed"
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
        .histogram("coord.handoff_pause_ns")
        .expect("histogram");
    assert_eq!(pauses.count, report.rounds as u64);
}

/// A landing loads the names it landed, and the flip deletes the
/// records of its own landed rounds by id: neither sweeps the store.
/// The only uid prefix scan a move costs a destination is the flip's
/// scan of its claim receipts.
#[test]
fn a_landing_and_the_flip_scan_no_store_prefix_but_the_receipts() {
    let mut sys = mid_flight();
    let destinations = [0, 2].map(|shard| sys.coord_handle(shard).get().node());
    let scans = |sys: &WorkflowSystem| {
        let snapshots = destinations.map(|node| sys.coord_on(node).get().snapshot());
        snapshots.map(|snapshot| snapshot.counter("tx.prefix_scans"))
    };
    let before = scans(&sys);
    let report = sys.remove_coordinator("coordinator1").expect("drain");
    assert_eq!((report.moved, report.rounds), (10, 2));
    let after = scans(&sys);
    let grown = [after[0] - before[0], after[1] - before[1]];
    assert_eq!(grown, [1, 1], "each destination scans its receipts once");

    let mut sys = mid_flight();
    let report = sys.add_coordinator("coordinator3").expect("join");
    assert_eq!((report.moved, report.rounds), (3, 3));
    let joined = sys.coord_handle(3).get().snapshot();
    assert_eq!(
        joined.counter("tx.prefix_scans"),
        1,
        "the joining shard scans its receipts once"
    );
}

#[test]
fn drain_refuses_the_last_coordinator() {
    let mut sys = build(1);
    let err = sys.remove_coordinator("coordinator").expect_err("refuse");
    assert!(err.to_string().contains("last coordinator"), "{err}");
    let err = sys.remove_coordinator("nonesuch").expect_err("unknown");
    assert!(err.to_string().contains("nonesuch"), "{err}");
}

/// A drain refused because its source is down leaves no trace on the
/// source: the request never reached it, so its recorder holds neither
/// end of a drain.
#[test]
fn a_refused_drain_records_no_drain_events() {
    let mut sys = build(3);
    sys.crash_now(sys.coordinator_nodes()[1]);
    let err = sys.remove_coordinator("coordinator1").expect_err("down");
    assert!(err.to_string().contains("is down"), "{err}");
    let kinds: Vec<ObsEventKind> = sys
        .trace("coordinator1")
        .into_iter()
        .map(|e| e.kind)
        .collect();
    assert!(
        !kinds.iter().any(|k| matches!(
            k,
            ObsEventKind::DrainBegin { .. } | ObsEventKind::DrainEnd { .. }
        )),
        "a refused drain recorded: {kinds:?}"
    );
}

/// Crash either end at every instant of the drain: run it once clean
/// to learn its virtual span, then for every 100 µs step across it and
/// each victim — the draining source, each destination — schedule the
/// crash, drain (it errs or completes), restart the victim and drain
/// what is left. A round decided before the crash is claimed again —
/// by the restarted source, or by the re-run — and a destination that
/// landed it answers from its receipt: zero lost outcomes from every
/// cell.
#[test]
fn drain_killed_at_any_point_converges_on_rerun() {
    let expected = baseline(outcome_print);
    let span = {
        let mut sys = mid_flight();
        let began = sys.now();
        sys.remove_coordinator("coordinator1").expect("clean drain");
        sys.now().since(began)
    };
    assert!(span > SimDuration::ZERO, "a drain takes virtual time");
    for (victim_shard, role) in [(1, "source"), (0, "destination"), (2, "destination")] {
        for offset in every_100us(span) {
            let repro = format!("victim=shard{victim_shard} ({role}) t=+{offset}");
            let mut sys = mid_flight();
            let victim = sys.coordinator_nodes()[victim_shard];
            let at = sys.now() + offset;
            sys.apply_faults(&FaultPlan::new().at(at, FaultAction::Crash(victim)));

            let first = sys.remove_coordinator("coordinator1");
            if first.is_ok() {
                one_owner(&sys, &repro);
            }
            // The operator brings the node back and retries the drain.
            sys.restart_now(victim);
            if first.is_err() {
                assert_eq!(
                    sys.shard_count(),
                    3,
                    "{repro}: a failed drain retires nothing"
                );
                sys.remove_coordinator("coordinator1")
                    .unwrap_or_else(|e| panic!("{repro}: re-drain failed: {e}"));
                one_owner(&sys, &repro);
            }
            assert_eq!(sys.shard_count(), 2, "{repro}");
            sys.run();
            assert_no_outcome_lost(&sys, &expected, &repro);
            assert_eq!(
                sys.stats().handoffs,
                10,
                "{repro}: each instance moves once"
            );
        }
    }
}

/// The source's disk starts refusing appends at every instant of the
/// drain: a move record, a window of the source's own, a round's
/// landing, the flip's bookkeeping. Whatever the refusal hits leaves
/// memory no further ahead than the log, and a round whose landing the
/// source could not log stays frozen. The destinations restart, the
/// disk heals, the source restarts — claiming each unlanded round once,
/// answered from its receipt — and drains what is left: every instance
/// ends on exactly one shard, with its undisturbed outcome.
#[test]
fn a_drain_whose_source_disk_refuses_at_any_point_converges() {
    disk_refusal_sweep(1);
}

/// The first destination's disk starts refusing appends at every
/// instant of the drain: a claim it cannot land is answered `Err`,
/// having committed nothing, and the slice thaws at the source at once;
/// its own windows fail as any disk failure fails them. Once the disk
/// heals, a re-run converges.
#[test]
fn a_drain_whose_destination_disk_refuses_at_any_point_converges() {
    disk_refusal_sweep(0);
}

/// The sweep of the two disk arms: shard `flaky`'s disk refuses from
/// every 100 µs step across a clean drain of shard 1 on; then both
/// other shards restart, the disk heals, shard `flaky` restarts and the
/// drain runs again if it failed.
fn disk_refusal_sweep(flaky: usize) {
    let expected = baseline(outcome_print);
    let span = {
        let mut sys = mid_flight();
        let began = sys.now();
        sys.remove_coordinator("coordinator1").expect("clean drain");
        sys.now().since(began)
    };
    for offset in every_100us(span) {
        let repro = format!("shard {flaky}'s disk refuses from t=+{offset}");
        let disk = FlakyStorage::default();
        let fail = disk.fail.clone();
        let mut storages: Vec<StableStore> =
            (0..flaky).map(|_| SharedStorage::new().into()).collect();
        storages.push(Shared::from(disk).into());
        let mut sys = build_orders_on(3, det_config(), storages);
        start_population(&mut sys, &population());
        sys.run_until(SimTime::from_nanos(20_000_000));
        let nodes = sys.coordinator_nodes().to_vec();
        let at = sys.now() + offset;
        let refuse = FaultAction::Switch(fail.clone(), true);
        sys.apply_faults(&FaultPlan::new().at(at, refuse));

        let first = sys.remove_coordinator("coordinator1");
        match &first {
            Ok(_) => one_owner(&sys, &repro),
            // A refused landing thawed the slice where it was.
            Err(err) if err.to_string().contains("refused") => {
                assert!(flaky != 1, "{repro}: only a destination refuses a claim");
                let source = sys.coord_handle(1);
                assert_eq!(source.get().frozen_instance_names(), Vec::<String>::new());
                one_owner(&sys, &repro);
            }
            Err(_) => {}
        }
        for (shard, &node) in nodes.iter().enumerate() {
            if shard != flaky && sys.coordinator_nodes().contains(&node) {
                sys.crash_now(node);
                sys.restart_now(node);
            }
        }
        sys.run_for(SimDuration::from_millis(5));
        fail.store(false, Ordering::Relaxed);
        sys.crash_now(nodes[flaky]);
        sys.restart_now(nodes[flaky]);
        if first.is_err() {
            assert_eq!(
                sys.shard_count(),
                3,
                "{repro}: a failed drain retires nothing"
            );
            sys.remove_coordinator("coordinator1")
                .unwrap_or_else(|e| panic!("{repro}: re-drain failed: {e}"));
            one_owner(&sys, &repro);
        }
        assert_eq!(sys.shard_count(), 2, "{repro}");
        sys.run();
        assert_no_outcome_lost(&sys, &expected, &repro);
        assert_eq!(
            sys.stats().handoffs,
            10,
            "{repro}: each instance moves once"
        );
    }
}

/// Cut the source off from both destinations while the first round's
/// claim is on the wire: it lands, but the answer is sent into the
/// partition. Once decided, a round waits for its destination — it
/// does not abort and thaw: the slice stays frozen at the source, the
/// call gives up, and nothing else moves. Heal, drain again: the re-run
/// claims the round first, the receipt answers, and the drain
/// converges.
#[test]
fn a_partition_keeps_a_decided_round_frozen_until_healed() {
    let expected = baseline(outcome_print);
    let mut sys = mid_flight();
    let nodes = sys.coordinator_nodes().to_vec();
    let residents = sys.coord_handle(1).get().instance_names();
    let source_log = sys.shard_storages()[1].clone();

    let at = sys.now() + SimDuration::from_micros(100);
    let cut = FaultAction::Partition(vec![nodes[1]], vec![nodes[0], nodes[2]]);
    sys.apply_faults(&FaultPlan::new().at(at, cut));
    let err = sys
        .remove_coordinator("coordinator1")
        .expect_err("no answer, no drain");
    assert!(err.to_string().contains("no progress"), "{err}");
    assert_eq!(sys.shard_count(), 3, "a failed drain retires nothing");
    assert_eq!(sys.stats().handoffs, 0, "no round landed at its source");
    // The first round is frozen at the source and landed at its
    // destination, whose answer the partition ate; the rest never left.
    let frozen = sys.coord_handle(1).get().frozen_instance_names();
    assert!(!frozen.is_empty(), "the first round waits, decided");
    let destination = sys.coord_handle(0);
    for name in &frozen {
        assert!(destination.get().instance_names().contains(name), "{name}");
    }
    let mut still_here = sys.coord_handle(1).get().instance_names();
    still_here.extend(frozen.iter().cloned());
    still_here.sort();
    assert_eq!(still_here, residents, "only the decided round froze");

    sys.world_mut().heal_all();
    let report = sys
        .remove_coordinator("coordinator1")
        .expect("healed drain");
    one_owner(&sys, "after the healed drain");
    assert_eq!(report.moved + frozen.len(), residents.len());
    assert_eq!(sys.stats().handoffs, residents.len() as u64);
    assert_eq!(sys.shard_count(), 2);
    // The round that waited cost the source its two frames, as every
    // round that landed did.
    assert_eq!(handoff_frames(&source_log).len(), 2 * (1 + report.rounds));
    sys.run();
    assert_no_outcome_lost(&sys, &expected, "partition during a round");
}

/// Cut the source off while the first round's claim is on the wire:
/// the destination lands it, its answer is sent into the partition. The
/// source then compacts its log (its other residents keep committing),
/// the partition heals and the source restarts: the restart must still
/// know the round from its move record, claim it once, hear the receipt
/// answer and land the four instances it moved — whether or not a
/// checkpoint rewrote the log in between.
#[test]
fn a_checkpoint_while_a_round_is_unanswered_loses_nothing() {
    let expected = baseline(outcome_print);
    for checkpoint_every in [None, Some(1)] {
        let repro = format!("checkpoint_every={checkpoint_every:?}");
        let mut sys = mid_flight_with(EngineConfig {
            checkpoint_every,
            ..det_config()
        });
        let nodes = sys.coordinator_nodes().to_vec();
        let at = sys.now() + SimDuration::from_micros(100);
        let cut = FaultAction::Partition(vec![nodes[1]], vec![nodes[0], nodes[2]]);
        sys.apply_faults(&FaultPlan::new().at(at, cut));
        let err = sys
            .remove_coordinator("coordinator1")
            .expect_err("no answer, no drain");
        assert!(err.to_string().contains("no progress"), "{repro}: {err}");
        assert_eq!(sys.stats().handoffs, 0, "{repro}: nothing landed yet");

        sys.run_for(SimDuration::from_millis(30));
        sys.world_mut().heal_all();
        sys.crash_now(nodes[1]);
        sys.restart_now(nodes[1]);
        sys.run();
        assert_eq!(sys.stats().handoffs, 4, "{repro}: the round landed");
        sys.remove_coordinator("coordinator1")
            .unwrap_or_else(|e| panic!("{repro}: re-drain failed: {e}"));
        one_owner(&sys, &repro);
        sys.run();
        assert_no_outcome_lost(&sys, &expected, &repro);
    }
}

/// Three messages in ten lost on every link between the source and its
/// destinations, in both directions: a lost claim or answer is sent
/// again every interval while the drain runs — and late reports relayed
/// over the same links fall back on the watchdogs. Converges, zero lost
/// outcomes.
#[test]
fn drain_over_lossy_links_converges() {
    let expected = baseline(outcome_print);
    let mut sys = mid_flight();
    let nodes = sys.coordinator_nodes().to_vec();
    let lossy = LinkConfig {
        drop_prob: 0.3,
        ..det_link()
    };
    for peer in [nodes[0], nodes[2]] {
        sys.world_mut().net_mut().set_link(nodes[1], peer, lossy);
        sys.world_mut().net_mut().set_link(peer, nodes[1], lossy);
    }
    let mut moved = 0;
    let drained = (0..20).any(|_| match sys.remove_coordinator("coordinator1") {
        Ok(report) => {
            moved += report.moved;
            true
        }
        Err(_) => false,
    });
    assert!(drained, "twenty attempts must get ten instances across");
    one_owner(&sys, "after the lossy drain");
    assert_eq!(sys.shard_count(), 2);
    assert_eq!(sys.stats().handoffs, 10, "each instance moves once");
    assert!(moved <= 10, "earlier attempts keep what they moved");
    sys.run();
    assert_no_outcome_lost(&sys, &expected, "drop_prob 0.3");
}

/// The pause is virtual time, read off the simulator's clock by the
/// source itself: the call advances that clock, two runs on one seed
/// report the same numbers, and on the deterministic link a round is
/// one round trip — the claim and its answer.
#[test]
fn pauses_are_virtual_time_and_exact_per_seed() {
    let drain = || -> (MoveReport, SimDuration, WorkflowSystem) {
        let mut sys = mid_flight();
        let began = sys.now();
        let report = sys.remove_coordinator("coordinator1").expect("drain");
        let took = sys.now().since(began);
        (report, took, sys)
    };
    let (report, took, sys) = drain();
    let (again, again_took, _) = drain();
    assert_eq!(
        (again, again_took),
        (report.clone(), took),
        "same seed, same report"
    );
    assert!(took > SimDuration::ZERO, "the drain must take virtual time");
    assert_eq!(
        took.as_nanos(),
        report.pause_ns.iter().sum::<u64>(),
        "rounds run back to back, and nothing else pauses"
    );
    let hop = det_link().base_latency.as_nanos();
    assert_eq!(report.moved, 10);
    assert_eq!(
        report.pause_ns,
        [2 * hop, 2 * hop],
        "two rounds, two hops each"
    );
    assert_eq!(report.max_pause_ns(), 2 * hop);
    let snapshot = sys.metrics_snapshot();
    let pauses = snapshot
        .histogram("coord.handoff_pause_ns")
        .expect("histogram");
    assert_eq!((pauses.count, pauses.sum), (2, 4 * hop));
}

/// A destination that crashed mid-drain and is then adopted loses no
/// round, whenever it died: before the claim reached it (the source's
/// round, re-addressed at the adoption's flip, thaws or lands on the
/// dead shard's new owners) or after it landed the round (the claimant
/// carries the landed copy on). Crash instants step 100 µs from the
/// start of the drain; +500 µs is after the first round's destination
/// has answered.
#[test]
fn an_adopted_destination_loses_no_committed_move() {
    let expected = baseline(outcome_print);
    for micros in (100..=700).step_by(100) {
        let repro = format!("destination crashed at t=+{micros} µs, then adopted");
        let mut sys = mid_flight();
        let destination = sys.coordinator_nodes()[0];
        let at = sys.now() + SimDuration::from_micros(micros);
        sys.apply_faults(&FaultPlan::new().at(at, FaultAction::Crash(destination)));
        let drained = sys.remove_coordinator("coordinator1");
        if drained.is_ok() {
            one_owner(&sys, &repro);
        }
        sys.adopt_dead_shard("coordinator0")
            .unwrap_or_else(|e| panic!("{repro}: failover failed: {e}"));
        one_owner(&sys, &repro);
        if drained.is_err() {
            sys.remove_coordinator("coordinator1")
                .unwrap_or_else(|e| panic!("{repro}: re-drain failed: {e}"));
            one_owner(&sys, &repro);
        }
        assert_eq!(sys.shard_count(), 1, "{repro}");
        sys.run();
        assert_no_outcome_lost(&sys, &expected, &repro);
    }
}

// ---------------------------------------------------------------------
// Crash-driven adoption.
// ---------------------------------------------------------------------

#[test]
fn dead_shard_adoption_loses_no_outcomes() {
    let expected = baseline(outcome_print);

    let mut sys = mid_flight();
    let dead = sys.coord_handle(1).get().node();
    let dead_population = sys.coord_handle(1).get().instance_names().len();
    assert!(dead_population > 0);

    // The shard dies and never comes back: its instances are adopted
    // straight out of the surviving storage.
    sys.crash_now(dead);
    let report = sys.adopt_dead_shard("coordinator1").expect("failover");
    one_owner(&sys, "after the failover");
    assert_eq!(report.adopted, dead_population);
    assert_eq!(report.epoch, 2);
    assert_eq!(sys.shard_count(), 2);

    sys.run();
    assert_no_outcome_lost(&sys, &expected, "clean failover");
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
    let from = dead.index() as u32;
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

/// A dead owner relays nothing: what it had executing ships again
/// under its next attempt as soon as its claim lands, as after a
/// restart — not once a watchdog per task has waited out the dispatch
/// timeout and spent a retry.
#[test]
fn a_dead_shards_in_flight_work_is_redispatched_as_it_lands() {
    let expected = baseline(outcome_print);

    let mut sys = mid_flight();
    let dead = sys.coord_handle(1).get().node();
    sys.crash_now(dead);
    sys.adopt_dead_shard("coordinator1").expect("failover");
    let adopted_at = sys.now();
    sys.run();
    assert_no_outcome_lost(&sys, &expected, "failover");
    let after = sys.now().since(adopted_at);
    assert!(
        after < det_config().dispatch_timeout,
        "the run ended {after:?} after the adoption"
    );
    assert_eq!(sys.stats().retries, 0);
}

/// The landing side of the loader a restart shares: an adopted instance
/// whose root block does not decode stops `Stuck` with why, alone; the
/// rest of the dead shard lands and completes.
#[test]
fn an_adopted_instance_whose_root_block_does_not_decode_stops_alone() {
    let expected = baseline(outcome_print);

    let mut sys = mid_flight();
    let dead = sys.coord_handle(1).get().node();
    let names = sys.coord_handle(1).get().instance_names();
    let victim = names.first().expect("the shard holds instances").clone();
    sys.crash_now(dead);
    assert!(sys
        .coord_handle_mut(1)
        .get_mut()
        .poison_record(&victim, "root"));
    let report = sys.adopt_dead_shard("coordinator1").expect("failover");
    assert_eq!(report.adopted, names.len());
    sys.run();

    match sys.status(&victim) {
        Ok(InstanceStatus::Stuck { reason }) => assert!(
            reason.contains("control block storage fault at `processOrderApplication`"),
            "{reason}"
        ),
        other => panic!("{victim}: expected a storage-fault stop, got {other:?}"),
    }
    for name in population().into_iter().filter(|name| *name != victim) {
        assert_eq!(outcome_print(&sys, &name), expected[&name], "{name}");
    }
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
    let zombie_node = sys.coord_handle(0).get().node();
    let storage = sys.storage();
    assert!(
        sys.world_mut().is_up(zombie_node),
        "the victim is deliberately alive: failure detection lied"
    );

    sys.adopt_dead_shard("coordinator0").expect("failover");
    one_owner(&sys, "after the failover");
    let muzzled_at = sys.coord_on(zombie_node).get().log_size();

    // The live zombie keeps receiving executor replies and firing
    // watchdogs for the whole rest of the run — none of it may commit.
    sys.run();
    assert_eq!(
        sys.coord_on(zombie_node).get().log_size(),
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

/// In-memory storage that counts how often its whole log is read.
struct CountedReads {
    log: MemStorage,
    reads: Arc<AtomicUsize>,
}

impl Storage for CountedReads {
    fn append(&mut self, bytes: &[u8]) -> Result<(), TxError> {
        self.log.append(bytes)
    }

    fn read_all(&self) -> Result<Vec<u8>, TxError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.log.read_all()
    }

    fn truncate(&mut self, len: u64) -> Result<(), TxError> {
        self.log.truncate(len)
    }

    fn len(&self) -> u64 {
        self.log.len()
    }
}

/// A zombie notes the fence it finds at its door: across the many
/// inputs it drops after the claim, it reads its log once, not once
/// per input.
#[test]
fn a_zombie_reads_its_log_once_across_the_inputs_it_drops() {
    let reads = Arc::new(AtomicUsize::new(0));
    let log = CountedReads {
        log: MemStorage::new(),
        reads: reads.clone(),
    };
    let zombie_log = StableStore::from(Shared::from(log));
    let mut sys = build_orders_on(3, det_config(), vec![zombie_log]);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    let zombie = sys.coord_handle(0).get().node();
    sys.adopt_dead_shard("coordinator0").expect("failover");
    let muzzled_at = sys.coord_on(zombie).get().log_size();

    let inputs = 40;
    let before = reads.load(Ordering::Relaxed);
    let sender = sys.executor_nodes()[0];
    for _ in 0..inputs {
        sys.world_mut().send(sender, zombie, Vec::new());
    }
    sys.run();
    let walked = reads.load(Ordering::Relaxed) - before;
    assert_eq!(sys.coord_on(zombie).get().log_size(), muzzled_at);
    assert!(
        walked <= 1,
        "the zombie read its log {walked} times across {inputs} inputs"
    );
}

/// Crash the claimant at every instant of the adoption: the fence is
/// written, some claims landed, some died with their sender. Restart
/// it and run the adoption again — it skips what was claimed, claims
/// the rest, and every instance is adopted exactly once.
#[test]
fn adoption_killed_mid_claim_converges_on_rerun() {
    let expected = baseline(outcome_print);
    let adopt = |sys: &mut WorkflowSystem| {
        let dead = sys.coord_handle(1).get().node();
        sys.crash_now(dead);
        let began = sys.now();
        let result = sys.adopt_dead_shard("coordinator1");
        let population = sys.coord_on(dead).get().instance_names().len();
        (result, sys.now().since(began), population)
    };
    let (clean, span, dead_population) = adopt(&mut mid_flight());
    let clean = clean.expect("clean failover");
    assert!(dead_population >= 2 && span > SimDuration::ZERO);

    for offset in every_100us(span) {
        let repro = format!("victim=claimant t=+{offset}");
        let mut sys = mid_flight();
        let claimant = sys.coordinator_nodes()[0];
        assert_eq!(claimant.index() as u32, clean.claimant, "{repro}");
        let at = sys.now() + offset;
        sys.apply_faults(&FaultPlan::new().at(at, FaultAction::Crash(claimant)));

        let (first, ..) = adopt(&mut sys);
        sys.restart_now(claimant);
        if first.is_err() {
            assert_eq!(
                sys.shard_count(),
                3,
                "{repro}: no retirement on a failed run"
            );
            let report = sys
                .adopt_dead_shard("coordinator1")
                .unwrap_or_else(|e| panic!("{repro}: re-run failed: {e}"));
            assert_eq!(report.adopted, dead_population, "{repro}");
        }
        one_owner(&sys, &repro);
        assert_eq!(sys.shard_count(), 2, "{repro}");
        sys.run();
        assert_no_outcome_lost(&sys, &expected, &repro);
        // Adopted once each: by a claim, never twice, and an instance
        // the crashed claimant had already landed on itself came back
        // through its ordinary recovery.
        for name in population() {
            let adoptions = sys
                .trace(&name)
                .iter()
                .filter(|e| matches!(e.kind, ObsEventKind::Adopted { .. }))
                .count();
            assert!(adoptions <= 1, "{repro}: {name} adopted {adoptions} times");
        }
        assert_eq!(sys.stats().adoptions, dead_population as u64, "{repro}");
    }
}

/// The claimant must be a survivor that is *up*: with shards 0 and 1
/// both down, shard 2 writes the fence — and shard 0's share waits, the
/// claim re-sent every interval, until shard 0 is back. With every
/// survivor down there is nobody to claim: the call errs before
/// anything is fenced.
#[test]
fn claimant_is_the_first_survivor_that_is_up() {
    let expected = baseline(outcome_print);
    let mut sys = mid_flight();
    let nodes = sys.coordinator_nodes().to_vec();
    let dead_storage = sys.shard_storages()[1].clone();
    sys.crash_now(nodes[0]);
    sys.crash_now(nodes[1]);

    sys.crash_now(nodes[2]);
    let err = sys
        .adopt_dead_shard("coordinator1")
        .expect_err("nobody is up to claim");
    assert!(
        err.to_string().contains("no surviving coordinator"),
        "{err}"
    );
    let replayed = TxManager::open(nodes[1].index() as u32, dead_storage).expect("replay");
    assert_eq!(replayed.fenced(), None, "nothing may be fenced");
    sys.restart_now(nodes[2]);

    let back = sys.now() + SimDuration::from_millis(12);
    sys.apply_faults(&FaultPlan::new().at(back, FaultAction::Restart(nodes[0])));
    let report = sys.adopt_dead_shard("coordinator1").expect("failover");
    assert_eq!(
        report.claimant,
        nodes[2].index() as u32,
        "a crashed node cannot have written the fence"
    );
    assert!(sys.now() >= back, "shard 0's share waited for shard 0");
    one_owner(&sys, "after the failover");
    assert_eq!(sys.shard_count(), 2);
    sys.run();
    assert_no_outcome_lost(&sys, &expected, "two shards down");
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
    let jobs: Vec<String> = src_jobs.iter().chain(&dest_jobs).cloned().collect();
    assert_one_owner(&sys, &jobs, "after the drain");

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
