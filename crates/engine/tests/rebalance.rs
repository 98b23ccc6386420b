//! Live shard rebalancing: adding a coordinator under load must move
//! running instances to the new owner — each a claim sent from the
//! source's move record — without losing or duplicating a single
//! outcome: per-instance results must be byte-identical to a run that
//! never rebalanced. A crash on either side of a half-finished round —
//! scheduled through the simulator's fault plan, never by calling a
//! protocol step — must converge to exactly one owner (nothing moves
//! before the record commits; after it, the round is claimed again
//! until answered). And deliberately skewed shard maps — the state a
//! buggy flip would leave behind — must not ping-pong a message forever:
//! the hop cap drops it and counts the loop.

mod common;

use std::collections::BTreeMap;

use common::{
    assert_one_owner, build_orders, det_config, det_link, handoff_frames, move_record_history,
    order_population as population, settled, start_population, text,
};
use flowscript_codec::ByteWriter;
use flowscript_engine::{
    CbState, InstanceStatus, ObjectVal, Reconfig, ShardMap, WorkflowSystem, MAX_FORWARD_HOPS,
};
use flowscript_sim::{FaultAction, FaultPlan, SimDuration, SimTime};

fn build(coordinators: usize) -> WorkflowSystem {
    build_orders(coordinators, det_config())
}

#[test]
fn live_rebalance_preserves_every_outcome() {
    // Baseline: the same population, never rebalanced.
    let baseline: BTreeMap<String, _> = {
        let mut sys = build(2);
        start_population(&mut sys, &population());
        sys.run();
        population()
            .into_iter()
            .map(|name| {
                let print = settled(&sys, &name);
                (name, print)
            })
            .collect()
    };

    // Live run: grow the fleet mid-flight (~20ms into ~100ms orders).
    let mut sys = build(2);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    let live_before = population()
        .iter()
        .filter(|name| !sys.status(name).unwrap().is_terminal())
        .count();
    assert!(live_before > 0, "rebalance must catch running instances");

    let report = sys.add_coordinator("coordinator2").expect("rebalance");
    assert_one_owner(&sys, &population(), "after the rebalance");
    assert!(report.moved > 0, "the new shard must take over instances");
    assert_eq!(report.moved, report.pause_ns.len());
    // A rebalance moves one instance per round, and that is all the
    // protocol ever logged here: one frame per round at the joiner —
    // the claim landed beside its receipt — and two at its source, the
    // move record and the landing (the purge, the record marked
    // landed). The flip then deletes a source's records in one more.
    let storages = sys.shard_storages();
    let frames: Vec<usize> = storages.iter().map(|s| handoff_frames(s).len()).collect();
    let sources = (0..2).filter(|&shard| sys.shard_stats(shard).handoffs > 0);
    assert_eq!(
        (frames[2], frames[0] + frames[1]),
        (report.rounds, 2 * report.rounds + sources.count()),
        "{frames:?}"
    );
    for (shard, storage) in storages.iter().enumerate() {
        let history = move_record_history(storage);
        let (written, deleted): (Vec<_>, Vec<_>) = history.iter().partition(|(_, write)| *write);
        // Each record is written twice, decided then landed, and the
        // flip deletes it.
        assert_eq!(written.len(), 2 * sys.shard_stats(shard).handoffs as usize);
        let mut decided: Vec<_> = written.iter().map(|(uid, _)| uid).collect();
        decided.dedup();
        assert_eq!(
            decided,
            deleted.iter().map(|(uid, _)| uid).collect::<Vec<_>>(),
            "shard {shard}: the flip leaves no move record behind"
        );
    }
    assert_eq!(report.epoch, 2, "one membership change after epoch 1");
    assert_eq!(sys.shard_map().epoch(), 2);
    assert_eq!(sys.shard_count(), 3);
    assert_eq!(
        sys.stats().handoffs,
        report.moved as u64,
        "every move counted exactly once, as it landed"
    );

    sys.run();

    // No outcome lost, duplicated or altered by the moves.
    for name in population() {
        assert_eq!(
            settled(&sys, &name),
            baseline[&name],
            "{name} diverged from the no-rebalance run"
        );
    }
    // Dual delivery resolved every relayed report without tripping the
    // loop guard: maps only disagreed transiently, in one direction.
    assert_eq!(sys.stats().forward_loops, 0);
}

#[test]
fn added_shard_serves_new_instances() {
    let mut sys = build(2);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    sys.add_coordinator("coordinator2").expect("rebalance");
    assert_one_owner(&sys, &population(), "after the rebalance");

    // New arrivals route by the flipped map; some must land on the new
    // shard, and everything — moved, resident and new — completes.
    let extra: Vec<String> = (0..12).map(|i| format!("late-{i}")).collect();
    for name in &extra {
        sys.start(name, "order", "main", [("order", text("Order", name))])
            .unwrap();
    }
    assert!(
        extra.iter().any(|name| sys.shard_of(name) == 2),
        "rendezvous hashing must give the new shard some of the new work"
    );
    sys.run();
    for name in population().iter().chain(&extra) {
        let status = sys.status(name).unwrap();
        assert!(
            matches!(status, InstanceStatus::Completed(_)),
            "{name}: {status:?}"
        );
    }
}

/// An instance whose name extends another's by a `/` is its own
/// instance: the joining shard wins both, each moves in a round of its
/// own with exactly its own keyspace, and both finish as if nothing had
/// moved. (Packaging `order-p128` by the raw prefix `inst/order-p128/`
/// used to sweep `order-p128/kid` along, fail the kid's round with
/// `UnknownInstance` and lose both.)
#[test]
fn an_instance_named_under_anothers_prefix_moves_alone() {
    let names = ["order-p128".to_string(), "order-p128/kid".to_string()];
    let baseline: Vec<_> = {
        let mut sys = build(2);
        start_population(&mut sys, &names);
        sys.run();
        names.iter().map(|name| settled(&sys, name)).collect()
    };

    let mut sys = build(2);
    start_population(&mut sys, &names);
    for name in &names {
        assert_eq!(sys.shard_of(name), 0, "{name} starts on shard 0");
    }
    sys.run_until(SimTime::from_nanos(20_000_000));
    let report = sys.add_coordinator("coordinator2").expect("rebalance");
    assert_one_owner(&sys, &names, "after the rebalance");
    assert_eq!((report.moved, report.rounds), (2, 2));
    for name in &names {
        assert_eq!(sys.shard_of(name), 2, "{name} is won by the joiner");
    }
    assert_eq!(sys.coord_handle(2).get().instance_names(), names);
    sys.run();
    for (name, unmoved) in names.iter().zip(&baseline) {
        assert_eq!(&settled(&sys, name), unmoved, "{name} diverged");
    }
}

/// The canonical source travels with a moved instance: the joining
/// shard never started anything, so the only way it can compile the
/// order's script — which loading the instance and reconfiguring it
/// both must — is out of the package.
#[test]
fn moved_instance_is_reconfigured_on_a_shard_that_never_ran_its_script() {
    let name = "order-p128".to_string();
    let mut sys = build(2);
    start_population(&mut sys, std::slice::from_ref(&name));
    sys.run_until(SimTime::from_nanos(20_000_000));
    let report = sys.add_coordinator("coordinator2").expect("rebalance");
    assert_one_owner(&sys, std::slice::from_ref(&name), "after the rebalance");
    assert_eq!((report.moved, sys.shard_of(&name)), (1, 2));
    let joiner = sys.coord_handle(2);
    assert_eq!(
        joiner.get().persisted_source_hashes(),
        sys.coord_handle(0).get().persisted_source_hashes(),
        "the joiner pins the text the source shard pinned"
    );
    assert_eq!(joiner.get().persisted_source_hashes().len(), 1);

    let audit = Reconfig::AddTask {
        scope_path: "processOrderApplication".into(),
        task_source: r#"
            task audit of taskclass CheckStock {
                implementation { "code" is "refCheckStock" };
                inputs { input main { inputobject order from {
                    order of task processOrderApplication if input main
                } } }
            }"#
        .into(),
    };
    sys.reconfigure(&name, audit)
        .expect("the joiner recompiles");
    sys.run();
    assert_eq!(
        sys.outcome(&name).expect("completes").name,
        "orderCompleted"
    );
    assert_eq!(
        sys.task_states(&name)["processOrderApplication/audit"],
        CbState::Done {
            outcome: "stockAvailable".into()
        }
    );
}

/// A map naming a node that runs no coordinator must be refused before
/// the first round begins: a rebalance that fails halfway would strand
/// the fleet half-moved on the old map.
#[test]
fn map_naming_a_non_coordinator_moves_nothing() {
    let mut sys = build(2);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    let resident = |sys: &WorkflowSystem| -> Vec<Vec<String>> {
        (0..2)
            .map(|shard| sys.coord_handle(shard).get().instance_names())
            .collect()
    };
    let before = resident(&sys);

    // Reversed positions swap instances between the two real shards
    // (valid moves, and the first ones in move order); the "shard"
    // between them is an executor node.
    let nodes = sys.coordinator_nodes().to_vec();
    let bad = ShardMap::new(vec![nodes[1], sys.executor_nodes()[0], nodes[0]]);
    let bogus = population()
        .iter()
        .filter(|name| bad.shard_of(name) == 1)
        .count();
    assert!(
        bogus > 0 && bogus < population().len(),
        "the map must mix valid moves with invalid ones ({bogus} invalid)"
    );

    let err = sys.rebalance(bad).expect_err("a bad map must be refused");
    assert_one_owner(&sys, &population(), "after the refusal");
    assert!(err.to_string().contains("runs no coordinator"), "{err}");
    assert_eq!(sys.stats().handoffs, 0, "nothing may move on a bad map");
    assert_eq!(resident(&sys), before, "every instance stays where it was");
    assert_eq!(sys.shard_map().epoch(), 1, "the old map stays in force");

    sys.run();
    for name in population() {
        let status = sys.status(&name).unwrap();
        assert!(
            matches!(status, InstanceStatus::Completed(_)),
            "{name}: {status:?}"
        );
    }
}

/// A map that is not newer than the one in force must be refused in
/// the same pre-flight: epochs only ever run forwards.
#[test]
fn map_with_a_stale_epoch_moves_nothing() {
    let mut sys = build(2);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    sys.add_coordinator("coordinator2").expect("rebalance");
    assert_one_owner(&sys, &population(), "after the rebalance");
    assert_eq!(sys.shard_map().epoch(), 2);
    let resident = |sys: &WorkflowSystem| -> Vec<Vec<String>> {
        (0..3)
            .map(|shard| sys.coord_handle(shard).get().instance_names())
            .collect()
    };
    let (before, handoffs) = (resident(&sys), sys.stats().handoffs);

    // Same three nodes, built from scratch: epoch 1 again.
    let stale = ShardMap::new(sys.coordinator_nodes().to_vec());
    let err = sys
        .rebalance(stale)
        .expect_err("a stale map must be refused");
    assert!(err.to_string().contains("not newer"), "{err}");
    assert_eq!(
        sys.shard_map().epoch(),
        2,
        "the epoch must not run backwards"
    );
    for shard in 0..3 {
        assert_eq!(
            sys.coord_handle(shard).get().shard_epoch(),
            2,
            "shard {shard}"
        );
    }
    assert_eq!(sys.stats().handoffs, handoffs, "nothing may move");
    assert_eq!(resident(&sys), before, "every instance stays where it was");
}

/// A join interrupted by a crashed source must be resumable under the
/// same name: one `coordinator2`, one successor map, every instance
/// reachable and finished exactly as if nothing had moved.
#[test]
fn interrupted_join_resumes_under_the_same_name() {
    let baseline: BTreeMap<String, InstanceStatus> = {
        let mut sys = build(2);
        start_population(&mut sys, &population());
        sys.run();
        population()
            .into_iter()
            .map(|name| {
                let status = sys.status(&name).unwrap();
                (name, status)
            })
            .collect()
    };

    let mut sys = build(2);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    // The second source dies while the first is still handing off.
    let victim = sys.coordinator_nodes()[1];
    let at = sys.now() + SimDuration::from_micros(100);
    sys.apply_faults(&FaultPlan::new().at(at, FaultAction::Crash(victim)));
    sys.add_coordinator("coordinator2")
        .expect_err("a source is down: the join cannot complete");
    assert_eq!(sys.shard_map().epoch(), 1, "no flip on a failed join");

    sys.restart_now(victim);
    let report = sys.add_coordinator("coordinator2").expect("resumed join");
    assert_one_owner(&sys, &population(), "after the resumed join");
    assert_eq!(report.epoch, 2, "the same successor map, not a third one");
    assert_eq!(sys.shard_count(), 3, "one coordinator2, not two");
    assert_eq!(sys.shard_map().shard_count(), 3);
    sys.add_coordinator("coordinator2")
        .expect_err("a member cannot join again");

    sys.run();
    for name in population() {
        assert_eq!(
            sys.status(&name).expect("every instance answers status()"),
            baseline[&name],
            "{name} lost or changed its outcome across the interrupted join"
        );
    }
    assert_eq!(sys.stats().forward_loops, 0);
}

// ---------------------------------------------------------------------
// The source-crash and destination-crash cells of the fault sweep (the
// whole sweep runs over a drain, in `drain_failover.rs`), with the
// assertions a single move allows: who ends up owning the instance.
// ---------------------------------------------------------------------

/// Two shards mid-flight, and a successor map that swaps their
/// positions — so each hands the other some of its residents, shard 0
/// first, one instance per round.
fn swapping_rebalance() -> (WorkflowSystem, ShardMap) {
    let mut sys = build(2);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    let mut swapped = sys.shard_map().clone();
    let first = sys.coordinator_nodes()[0];
    swapped.remove_node(first);
    swapped.add_node(first);
    (sys, swapped)
}

/// A successor map may list the same nodes in another order: the
/// façade routes by the owner's node, not by its position in the map,
/// so every instance still answers `status()` after the flip. (It used
/// to index the coordinators by map position: after this swap, all 24
/// answered `UnknownInstance`.)
#[test]
fn a_reordered_map_routes_to_the_owner() {
    let (mut sys, swapped) = swapping_rebalance();
    sys.rebalance(swapped).expect("clean rebalance");
    assert_one_owner(&sys, &population(), "after the rebalance");
    sys.run();
    for name in population() {
        let owner = sys.coord_handle(sys.shard_of(&name));
        assert!(owner.get().instance_names().contains(&name), "{name}");
        let status = sys.status(&name).unwrap();
        assert!(
            matches!(status, InstanceStatus::Completed(_)),
            "{name}: {status:?}"
        );
    }
}

/// Crash the *source* before its first round's record commits — the
/// trigger finds it down: nothing is decided, nothing leaves, nothing is
/// logged, and the restarted shard finishes every instance itself.
#[test]
fn source_crash_before_its_record_commits_moves_nothing() {
    let (mut sys, swapped) = swapping_rebalance();
    let src_node = sys.coordinator_nodes()[0];
    let before = sys.coord_handle(0).get().instance_names();
    let source_log = sys.shard_storages()[0].clone();

    sys.crash_now(src_node);
    let err = sys.rebalance(swapped).expect_err("the source is down");
    assert!(err.to_string().contains("is down"), "{err}");
    sys.restart_now(src_node);
    assert_one_owner(&sys, &population(), "after the restart");
    sys.run();

    assert!(move_record_history(&source_log).is_empty());
    assert_eq!(sys.coord_handle(0).get().instance_names(), before);
    assert_eq!(sys.shard_stats(0).handoffs, 0, "nothing landed");
    for name in population() {
        let status = sys.status(&name).unwrap();
        assert!(
            matches!(status, InstanceStatus::Completed(_)),
            "{name}: {status:?}"
        );
    }
}

/// Crash the *source* after its first round's record commits, while
/// the claim is on the wire: the destination lands it and answers into
/// the crash. The restarted source keeps the slice frozen and unloaded,
/// claims it once, hears the receipt and lands the round — the
/// instance finishes at its destination, never back at the source.
#[test]
fn source_crash_after_its_record_commits_lands_on_restart() {
    let (mut sys, swapped) = swapping_rebalance();
    let src_node = sys.coordinator_nodes()[0];
    let source_log = sys.shard_storages()[0].clone();
    let before = sys.coord_handle(1).get().instance_names();

    let at = sys.now() + SimDuration::from_micros(100);
    sys.apply_faults(&FaultPlan::new().at(at, FaultAction::Crash(src_node)));
    sys.rebalance(swapped)
        .expect_err("the source died mid-round");
    assert_eq!(sys.shard_stats(0).handoffs, 0, "no answer reached it");
    sys.restart_now(src_node);
    sys.run();
    assert_one_owner(&sys, &population(), "after the restart");

    // The record, written decided and then landed; no flip deleted it.
    let history = move_record_history(&source_log);
    let [(decided, true), (landed, true)] = history.as_slice() else {
        panic!("one decision, one landing: {history:?}");
    };
    assert_eq!(decided, landed);
    assert_eq!(sys.shard_stats(0).handoffs, 1);
    let dest = sys.coord_handle(1);
    let arrived: Vec<String> = dest
        .get()
        .instance_names()
        .into_iter()
        .filter(|name| !before.contains(name))
        .collect();
    let [name] = &arrived[..] else {
        panic!("exactly the one decided round must land: {arrived:?}");
    };
    assert!(!sys.coord_handle(0).get().instance_names().contains(name));
    // The map was never flipped (the rebalance failed), so ask the new
    // owner directly.
    let status = dest.get().status(name).unwrap();
    assert!(
        matches!(status, InstanceStatus::Completed(_)),
        "{name}: {status:?}"
    );
    assert_eq!(sys.stats().forward_loops, 0);
}

/// A source that dies with a round decided — its claim landed, the
/// answer lost — and is adopted, not restarted: the claimant finds the
/// unlanded move record in the dead storage and claims the round, under
/// its own id, from its destination, which the adoption's map keeps —
/// not from the name's owner under that map, which would land a second
/// copy. The receipt answers, and the one copy finishes where it landed.
#[test]
fn a_source_adopted_mid_round_leaves_one_copy() {
    let mut sys = build(3);
    let nodes = sys.coordinator_nodes().to_vec();
    let mut moved = sys.shard_map().clone();
    moved.remove_node(nodes[0]);
    moved.add_node(nodes[0]);
    let mut adopting = sys.shard_map().clone();
    adopting.remove_node(nodes[1]);
    // A name shard 1 owns, the rebalance moves to shard 0, and the
    // adoption's map would give to shard 2.
    let name = (0..)
        .map(|i| format!("order-x{i}"))
        .find(|name| {
            sys.shard_map().node_of(name) == nodes[1]
                && moved.node_of(name) == nodes[0]
                && adopting.node_of(name) == nodes[2]
        })
        .expect("some name the three maps place so");
    let names = [name.clone()];
    start_population(&mut sys, &names);
    sys.run_until(SimTime::from_nanos(20_000_000));

    let at = sys.now() + SimDuration::from_micros(100);
    sys.apply_faults(&FaultPlan::new().at(at, FaultAction::Crash(nodes[1])));
    sys.rebalance(moved).expect_err("the source died mid-round");
    let destination = sys.coord_handle(0);
    assert!(destination.get().instance_names().contains(&name), "landed");
    sys.adopt_dead_shard("coordinator1").expect("failover");
    assert_one_owner(&sys, &names, "after the failover");
    sys.run();
    assert_one_owner(&sys, &names, "at the end");
    let status = sys.coord_handle(0).get().status(&name).unwrap();
    assert!(
        matches!(status, InstanceStatus::Completed(_)),
        "{name}: {status:?}"
    );
}

/// Crash the *destination* after it landed the first round: its answer
/// left before the crash, so the round lands at the source. The next
/// round's claim meets the crashed node and waits, frozen at the
/// source. The destination restarts with what it landed, the operator
/// runs the rebalance again — claiming the waiting round first — and
/// everything converges, every instance on exactly one shard.
#[test]
fn destination_crash_after_landing_converges_to_destination() {
    let (mut sys, swapped) = swapping_rebalance();
    let dest_node = sys.coordinator_nodes()[1];
    let before = sys.coord_handle(1).get().instance_names();

    // The claim lands one hop in (200 µs); its answer is on the wire
    // when the destination dies.
    let at = sys.now() + SimDuration::from_micros(300);
    sys.apply_faults(&FaultPlan::new().at(at, FaultAction::Crash(dest_node)));
    sys.rebalance(swapped.clone())
        .expect_err("the destination died mid-rebalance");
    assert_eq!(sys.shard_stats(0).handoffs, 1, "the first round landed");
    assert_eq!(
        sys.coord_handle(0).get().frozen_instance_names().len(),
        1,
        "the second round waits, decided"
    );
    sys.restart_now(dest_node);
    let dest = sys.coord_handle(1);
    let arrived: Vec<String> = dest
        .get()
        .instance_names()
        .into_iter()
        .filter(|name| !before.contains(name))
        .collect();
    let [name] = &arrived[..] else {
        panic!("exactly the landed round comes back: {arrived:?}");
    };
    assert!(!sys.coord_handle(0).get().instance_names().contains(name));

    sys.rebalance(swapped).expect("the re-run converges");
    assert_one_owner(&sys, &population(), "after the re-run");
    sys.run();
    for name in population() {
        let status = sys.status(&name).unwrap();
        assert!(
            matches!(status, InstanceStatus::Completed(_)),
            "{name}: {status:?}"
        );
    }
    assert_eq!(sys.stats().forward_loops, 0);
}

/// Two coordinators with *disagreeing* maps — each believing the other
/// owns an instance — must not bounce a report forever. The hop cap
/// drops it and the loop counter records the drop.
#[test]
fn skewed_maps_trip_the_forward_loop_guard() {
    let mut sys = build(2);
    let nodes = sys.coordinator_nodes().to_vec();
    let straight = sys.shard_map().clone();
    // Same nodes, reversed positions: positional seeds make the two
    // maps disagree on part of the keyspace.
    let skewed = ShardMap::new(vec![nodes[1], nodes[0]]);
    let name = (0..10_000)
        .map(|i| format!("ping-{i}"))
        .find(|name| skewed.node_of(name) == nodes[1] && straight.node_of(name) == nodes[0])
        .expect("some name the two maps route at each other");
    sys.set_shard_map_of(0, skewed);

    // Shard 0 forwards to shard 1 (its skewed map says so); shard 1
    // forwards straight back. Without the cap this never terminates.
    sys.send_mark_via_shard(0, &name, "t", 0, 0, "m", Vec::<(&str, ObjectVal)>::new());
    sys.run();

    let stats = sys.stats();
    assert!(
        stats.forward_loops >= 1,
        "the ping-pong must be detected: {stats:?}"
    );
    assert!(
        stats.forwarded <= MAX_FORWARD_HOPS as u64,
        "hops must stay under the cap: {stats:?}"
    );
}

#[test]
fn nested_forwarded_wrappers_are_dropped_without_recursion() {
    let mut sys = build(1);
    // A relay unwraps before it re-wraps, so no honest message nests
    // `Forwarded` inside `Forwarded`. This one does, tens of thousands
    // deep and still under half a megabyte: one stack frame per layer
    // would take the coordinator down. The wire form of
    // `EngineMsg::Forwarded { hops, inner }` is `[8, hops, len,
    // inner…]`; built back to front, so each layer only appends its
    // (reversed) header.
    let mut message = Vec::new();
    for _ in 0..30_000 {
        let mut header = ByteWriter::new();
        header.put_u8(8);
        header.put_u32(0);
        header.put_len(message.len());
        message.extend(header.into_vec().into_iter().rev());
    }
    message.reverse();
    let (client, coordinator) = (sys.executor_nodes()[0], sys.coordinator_node());
    sys.world_mut().send(client, coordinator, message);
    sys.run();
    assert_eq!(
        sys.stats().forward_loops,
        1,
        "the nest is a routing loop by construction: dropped and counted once"
    );
    // The shard is unharmed.
    sys.start(
        "after",
        "order",
        "main",
        [("order", text("Order", "after"))],
    )
    .unwrap();
    sys.run();
    assert!(matches!(
        sys.status("after"),
        Ok(InstanceStatus::Completed(_))
    ));
}

/// A task whose implementation clause binds an *empty* code string
/// must fail diagnosably — not ship an empty script body to an
/// executor, and not burn retries on a failure no retry can fix.
#[test]
fn empty_implementation_code_fails_without_retries() {
    const BLANK_CODE: &str = r#"
class Message;

taskclass Produce {
    inputs { input main { seed of class Message } };
    outputs { outcome produced { message of class Message } }
}

taskclass Pipeline {
    inputs { input main { seed of class Message } };
    outputs { outcome done { message of class Message } }
}

compoundtask pipeline of taskclass Pipeline {
    task produce of taskclass Produce {
        implementation { "code" is "" };
        inputs {
            input main {
                inputobject seed from { seed of task pipeline if input main }
            }
        }
    };
    outputs {
        outcome done {
            outputobject message from { message of task produce if output produced }
        }
    }
}
"#;
    let mut sys = WorkflowSystem::builder()
        .executors(1)
        .seed(7)
        .link(det_link())
        .config(det_config())
        .build();
    sys.register_script("blank", BLANK_CODE, "pipeline")
        .unwrap();
    sys.start("b1", "blank", "main", [("seed", text("Message", "s"))])
        .unwrap();
    sys.run();

    let states = sys.task_states("b1");
    let state = &states["pipeline/produce"];
    let CbState::Failed { reason } = state else {
        panic!("task should fail, got {state:?}");
    };
    assert!(
        reason.contains("missing implementation code"),
        "diagnosable reason, got: {reason}"
    );
    let stats = sys.stats();
    assert_eq!(stats.dispatches, 0, "nothing must reach an executor");
    assert_eq!(stats.retries, 0, "an empty body is not retryable");
    let status = sys.status("b1").unwrap();
    assert!(
        matches!(status, InstanceStatus::Stuck { .. }),
        "the instance parks stuck, not silently complete: {status:?}"
    );
}
