//! Live shard rebalancing: adding a coordinator under load must move
//! running instances to the new owner as 2PC hand-offs without losing
//! or duplicating a single outcome — per-instance results must be
//! byte-identical to a run that never rebalanced. A crash on either
//! side of a half-finished hand-off must recover to exactly one
//! converged owner (presumed abort before the decision, destination
//! adoption after it). And deliberately skewed shard maps — the state
//! a buggy flip would leave behind — must not ping-pong a message
//! forever: the hop cap drops it and counts the loop.

mod common;

use std::collections::BTreeMap;

use common::{
    build_orders, det_config, det_link, order_population as population, settled, start_population,
    text,
};
use flowscript_codec::ByteWriter;
use flowscript_engine::{
    CbState, InstanceStatus, ObjectVal, ShardMap, WorkflowSystem, MAX_FORWARD_HOPS,
};
use flowscript_sim::SimTime;

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

    let rounds_before = sys.metrics_snapshot().counter("tx.two_pc_rounds");
    let report = sys.add_coordinator("coordinator2").expect("rebalance");
    assert!(report.moved > 0, "the new shard must take over instances");
    assert_eq!(report.moved, report.pause_ns.len());
    // A rebalance moves one instance per round, and a round logs one
    // intent batch, one prepare, one resolve — plus a decision frame
    // per instance.
    assert_eq!(
        sys.metrics_snapshot().counter("tx.two_pc_rounds") - rounds_before,
        (3 * report.pause_ns.len() + report.moved) as u64,
        "the protocol's durable steps per round must not move"
    );
    assert_eq!(report.epoch, 2, "one membership change after epoch 1");
    assert_eq!(sys.shard_map().epoch(), 2);
    assert_eq!(sys.shard_count(), 3);
    assert_eq!(
        sys.stats().handoffs,
        report.moved as u64,
        "every move counted exactly once, at its commit decision"
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

/// A map naming a node that runs no coordinator must be refused before
/// the first `HandOffBegin`: a rebalance that fails halfway would strand
/// the fleet half-moved on the old map.
#[test]
fn map_naming_a_non_coordinator_moves_nothing() {
    let mut sys = build(2);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));
    let resident = |sys: &WorkflowSystem| -> Vec<Vec<String>> {
        (0..2)
            .map(|shard| sys.coord_handle(shard).instance_names())
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

/// Crash the *source* after it logged the hand-off intent but before
/// the decision: recovery must presume abort, keep the instance, and
/// finish it locally.
#[test]
fn source_crash_before_decision_presumes_abort() {
    let mut sys = build(2);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));

    let name = population()
        .into_iter()
        .find(|name| !sys.status(name).unwrap().is_terminal())
        .expect("a running instance");
    let src_shard = sys.shard_of(&name);
    let src_node = sys.coordinator_node_for(&name);
    let dest_shard = 1 - src_shard;
    let dest_node = sys.coordinator_nodes()[dest_shard];
    let src = sys.coord_handle(src_shard);

    // Step 1 of 4 only: the durable intent exists, nothing was staged
    // at the destination, no decision was logged.
    let packages = src
        .handoff_collect(sys.world_mut(), std::slice::from_ref(&name), dest_node)
        .expect("collect");
    assert!(!packages[0].is_empty());

    sys.crash_now(src_node);
    sys.restart_now(src_node);
    sys.run();

    // Presumed abort: the instance never left, and recovery finished it.
    let src = sys.coord_handle(src_shard);
    assert!(
        src.instance_names().contains(&name),
        "instance must stay resident at the source"
    );
    assert!(
        !sys.coord_handle(dest_shard)
            .instance_names()
            .contains(&name),
        "the aborted move must not leak the instance to the destination"
    );
    assert_eq!(
        sys.shard_stats(src_shard).handoffs,
        0,
        "no commit, no count"
    );
    let status = sys.status(&name).unwrap();
    assert!(
        matches!(status, InstanceStatus::Completed(_)),
        "{name}: {status:?}"
    );
    // And the whole population still converged.
    for other in population() {
        assert!(sys.status(&other).unwrap().is_terminal(), "{other}");
    }
}

/// Crash the *destination* between its prepare and hearing the commit:
/// its restart finds the in-doubt stage, asks the source (the 2PC
/// coordinator), learns `committed`, and adopts the instance — which
/// then finishes on its new owner, fed by relayed executor reports.
#[test]
fn destination_crash_after_commit_converges_to_destination() {
    let mut sys = build(2);
    start_population(&mut sys, &population());
    sys.run_until(SimTime::from_nanos(20_000_000));

    let name = population()
        .into_iter()
        .find(|name| !sys.status(name).unwrap().is_terminal())
        .expect("a running instance");
    let src_shard = sys.shard_of(&name);
    let dest_shard = 1 - src_shard;
    let dest_node = sys.coordinator_nodes()[dest_shard];
    let src = sys.coord_handle(src_shard);
    let dest = sys.coord_handle(dest_shard);

    let moving = std::slice::from_ref(&name);
    let packages = src
        .handoff_collect(sys.world_mut(), moving, dest_node)
        .expect("collect");
    let tx = packages[0].tx;
    dest.handoff_prepare(&packages).expect("prepare");
    src.handoff_commit(sys.world_mut(), moving, tx, dest_node)
        .expect("commit");
    // The decision is durable at the source; the destination crashes
    // without ever applying it.
    sys.crash_now(dest_node);
    sys.restart_now(dest_node);
    sys.run();

    // The restarted destination chased its in-doubt stage, heard
    // `committed`, and adopted.
    let dest = sys.coord_handle(dest_shard);
    assert!(
        dest.instance_names().contains(&name),
        "destination must adopt the committed move"
    );
    assert!(
        !sys.coord_handle(src_shard).instance_names().contains(&name),
        "the source must have purged the moved instance"
    );
    assert_eq!(sys.shard_stats(src_shard).handoffs, 1);
    // The client map was never flipped (this test drives the protocol
    // by hand), so ask the new owner directly.
    let status = dest.status(&name).unwrap();
    assert!(
        matches!(status, InstanceStatus::Completed(_)),
        "{name}: {status:?}"
    );
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
    sys.skew_shard_map(0, skewed);

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
    // `EngineMsg::Forwarded { epoch, hops, inner }` is
    // `[8, epoch, hops, len, inner…]`; built back to front, so each
    // layer only appends its (reversed) header.
    let mut message = Vec::new();
    for _ in 0..30_000 {
        let mut header = ByteWriter::new();
        header.put_u8(8);
        header.put_u64(0);
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
