//! Cross-crate integration: presumed-abort two-phase commit
//! (`flowscript-tx::dist`) driven over the simulated network
//! (`flowscript-sim`), with participant crashes, in-doubt recovery and
//! coordinator-decision durability.
//!
//! This exercises the substrate the paper's execution service would use
//! when its coordination objects are sharded over several nodes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use flowscript::sim::{NodeId, SimDuration, SimTime, World};
use flowscript::tx::dist::{CoordAction, Coordinator, DistMsg};
use flowscript::tx::{ObjectUid, SharedStorage, StoreKey, TxId, TxManager};

/// A participant node: a TxManager plus its message handling.
struct Participant {
    mgr: TxManager<SharedStorage>,
}

struct Harness {
    coordinator: Coordinator,
    /// Durable coordinator decisions live in its own TxManager.
    coord_mgr: TxManager<SharedStorage>,
    done: Vec<(TxId, bool)>,
}

type Shared<T> = Rc<RefCell<T>>;

/// A store key, as 2PC write sets and the managers address objects.
fn key(s: &str) -> StoreKey {
    StoreKey::Uid(ObjectUid::new(s))
}

/// Everything `setup` wires: coordinator node + harness, participant
/// nodes + state, and the participants' stable storages.
type Cluster = (
    NodeId,
    Shared<Harness>,
    Vec<NodeId>,
    Vec<Shared<Participant>>,
    Vec<SharedStorage>,
);

/// Wires a coordinator node and `n` participant nodes; returns handles.
fn setup(world: &mut World, n: usize) -> Cluster {
    let coord_node = world.add_node("2pc-coordinator");
    let coord_storage = SharedStorage::new();
    let harness = Rc::new(RefCell::new(Harness {
        coordinator: Coordinator::new(coord_node.index() as u32),
        coord_mgr: TxManager::open(coord_node.index() as u32, coord_storage).unwrap(),
        done: Vec::new(),
    }));

    let mut nodes = Vec::new();
    let mut participants = Vec::new();
    let mut storages = Vec::new();
    for i in 0..n {
        let node = world.add_node(format!("participant{i}"));
        let storage = SharedStorage::new();
        let participant = Rc::new(RefCell::new(Participant {
            mgr: TxManager::open(node.index() as u32, storage.clone()).unwrap(),
        }));
        nodes.push(node);
        participants.push(participant);
        storages.push(storage);
    }

    // Participant handlers: Prepare → vote; Decision → resolve + ack.
    for (i, &node) in nodes.iter().enumerate() {
        let participant = participants[i].clone();
        world.set_handler(node, move |world, envelope| {
            let Ok(msg) = flowscript::codec::from_bytes::<DistMsg>(&envelope.payload) else {
                return;
            };
            let mut participant = participant.borrow_mut();
            match msg {
                DistMsg::Prepare {
                    tx,
                    coordinator,
                    writes,
                } => {
                    let yes = participant
                        .mgr
                        .prepare_remote(tx, coordinator, writes)
                        .is_ok();
                    let vote = DistMsg::Vote {
                        tx,
                        from: envelope.dst.index() as u32,
                        yes,
                    };
                    let (src, dst) = (envelope.dst, envelope.src);
                    world.send(src, dst, flowscript::codec::to_bytes(&vote));
                }
                DistMsg::Decision { tx, commit } => {
                    participant.mgr.resolve_remote(tx, commit).unwrap();
                    let ack = DistMsg::Ack {
                        tx,
                        from: envelope.dst.index() as u32,
                    };
                    let (src, dst) = (envelope.dst, envelope.src);
                    world.send(src, dst, flowscript::codec::to_bytes(&ack));
                }
                _ => {}
            }
        });
    }

    // Coordinator handler: routes votes/acks/queries through the state
    // machine and performs the emitted actions.
    let harness2 = harness.clone();
    let node_table: BTreeMap<u32, NodeId> = nodes.iter().map(|n| (n.index() as u32, *n)).collect();
    world.set_handler(coord_node, move |world, envelope| {
        let Ok(msg) = flowscript::codec::from_bytes::<DistMsg>(&envelope.payload) else {
            return;
        };
        let actions = {
            let mut harness = harness2.borrow_mut();
            match msg {
                DistMsg::Vote { tx, from, yes } => harness.coordinator.on_vote(tx, from, yes),
                DistMsg::Ack { tx, from } => harness.coordinator.on_ack(tx, from),
                DistMsg::QueryOutcome { tx, from } => {
                    let persisted = harness.coord_mgr.coordinator_decision(tx);
                    harness.coordinator.on_query(tx, from, persisted)
                }
                _ => Vec::new(),
            }
        };
        perform(world, envelope.dst, &harness2, &node_table, actions);
    });

    (coord_node, harness, nodes, participants, storages)
}

/// Executes coordinator actions: persist-before-send ordering matters.
fn perform(
    world: &mut World,
    coord_node: NodeId,
    harness: &Shared<Harness>,
    node_table: &BTreeMap<u32, NodeId>,
    actions: Vec<CoordAction>,
) {
    for action in actions {
        match action {
            CoordAction::PersistDecision { tx, commit } => {
                // Presumed abort: only a commit is ever persisted, in an
                // atomic action of its own.
                assert!(commit, "{tx}: an abort is not persisted");
                let mgr = &mut harness.borrow_mut().coord_mgr;
                let action = mgr.begin();
                mgr.stage_decision(&action, tx).unwrap();
                mgr.commit(action).unwrap();
            }
            CoordAction::Send { to, msg } => {
                let node = node_table[&to];
                world.send(coord_node, node, flowscript::codec::to_bytes(&msg));
            }
            CoordAction::Done { tx, committed } => {
                harness.borrow_mut().done.push((tx, committed));
            }
        }
    }
}

#[test]
fn two_participants_commit_atomically() {
    let mut world = World::new(1);
    let (coord_node, harness, nodes, participants, _) = setup(&mut world, 2);
    let node_table: BTreeMap<u32, NodeId> = nodes.iter().map(|n| (n.index() as u32, *n)).collect();

    let tx = harness.borrow_mut().coord_mgr.mint_dist_tx();
    let writes = vec![
        (nodes[0].index() as u32, vec![(key("a"), Some(vec![1]))]),
        (nodes[1].index() as u32, vec![(key("b"), Some(vec![2]))]),
    ];
    let actions = harness.borrow_mut().coordinator.begin(tx, writes);
    perform(&mut world, coord_node, &harness, &node_table, actions);
    world.run();

    assert_eq!(harness.borrow().done, vec![(tx, true)]);
    assert_eq!(
        participants[0]
            .borrow()
            .mgr
            .read_committed_key::<u8>(&key("a"))
            .unwrap(),
        Some(1)
    );
    assert_eq!(
        participants[1]
            .borrow()
            .mgr
            .read_committed_key::<u8>(&key("b"))
            .unwrap(),
        Some(2)
    );
}

#[test]
fn conflicting_participant_vetoes_whole_transaction() {
    let mut world = World::new(2);
    let (coord_node, harness, nodes, participants, _) = setup(&mut world, 2);
    let node_table: BTreeMap<u32, NodeId> = nodes.iter().map(|n| (n.index() as u32, *n)).collect();

    // Participant 1 already holds a lock on `b` via a local transaction:
    // its prepare will fail and it votes no.
    let blocker = {
        let mut participant = participants[1].borrow_mut();
        let action = participant.mgr.begin();
        participant.mgr.write_key(&action, &key("b"), &9u8).unwrap();
        action
    };

    let tx = harness.borrow_mut().coord_mgr.mint_dist_tx();
    let writes = vec![
        (nodes[0].index() as u32, vec![(key("a"), Some(vec![1]))]),
        (nodes[1].index() as u32, vec![(key("b"), Some(vec![2]))]),
    ];
    let actions = harness.borrow_mut().coordinator.begin(tx, writes);
    perform(&mut world, coord_node, &harness, &node_table, actions);
    world.run();

    assert_eq!(harness.borrow().done, vec![(tx, false)]);
    // Atomicity: neither write applied.
    assert_eq!(
        participants[0]
            .borrow()
            .mgr
            .read_committed_key::<u8>(&key("a"))
            .unwrap(),
        None
    );
    assert_eq!(
        participants[1]
            .borrow()
            .mgr
            .read_committed_key::<u8>(&key("b"))
            .unwrap(),
        None
    );
    participants[1].borrow_mut().mgr.abort(blocker);
}

#[test]
fn prepared_participant_crash_recovers_in_doubt_and_queries() {
    let mut world = World::new(3);
    let (coord_node, harness, nodes, participants, storages) = setup(&mut world, 2);
    let node_table: BTreeMap<u32, NodeId> = nodes.iter().map(|n| (n.index() as u32, *n)).collect();

    let tx = harness.borrow_mut().coord_mgr.mint_dist_tx();
    let writes = vec![
        (nodes[0].index() as u32, vec![(key("a"), Some(vec![1]))]),
        (nodes[1].index() as u32, vec![(key("b"), Some(vec![2]))]),
    ];
    let actions = harness.borrow_mut().coordinator.begin(tx, writes);
    perform(&mut world, coord_node, &harness, &node_table, actions);

    // Run just long enough for prepares+votes+decision persist, then
    // crash participant 1 before it can apply the decision.
    world.run_until(SimTime::from_nanos(350_000));
    world.crash(nodes[1]);
    world.run();

    // Participant 1 recovers from its log: the transaction is in doubt.
    let recovered = TxManager::open(nodes[1].index() as u32, storages[1].clone()).unwrap();
    let in_doubt = recovered.in_doubt();
    assert_eq!(in_doubt.len(), 1, "prepared tx must be in doubt");
    let (doubt_tx, coordinator_id) = in_doubt[0];
    assert_eq!(doubt_tx, tx);
    assert_eq!(coordinator_id, coord_node.index() as u32);

    // Re-install the recovered participant and restart the node.
    let participant = participants[1].clone();
    participant.borrow_mut().mgr = recovered;
    world.restart(nodes[1]);

    // It queries the coordinator, which answers from its durable record.
    let query = DistMsg::QueryOutcome {
        tx,
        from: nodes[1].index() as u32,
    };
    world.send(nodes[1], coord_node, flowscript::codec::to_bytes(&query));
    world.run();

    // The decision (commit, since both voted yes and the coordinator
    // persisted before sending) reached the recovered participant.
    assert_eq!(
        participants[1]
            .borrow()
            .mgr
            .read_committed_key::<u8>(&key("b"))
            .unwrap(),
        Some(2),
        "in-doubt participant must learn the commit"
    );
    assert!(participants[1].borrow().mgr.in_doubt().is_empty());
}

#[test]
fn coordinator_timeout_aborts_unresponsive_vote() {
    let mut world = World::new(4);
    let (coord_node, harness, nodes, participants, _) = setup(&mut world, 2);
    let node_table: BTreeMap<u32, NodeId> = nodes.iter().map(|n| (n.index() as u32, *n)).collect();

    // Participant 1 is down before the prepare arrives.
    world.crash(nodes[1]);

    let tx = harness.borrow_mut().coord_mgr.mint_dist_tx();
    let writes = vec![
        (nodes[0].index() as u32, vec![(key("a"), Some(vec![1]))]),
        (nodes[1].index() as u32, vec![(key("b"), Some(vec![2]))]),
    ];
    let actions = harness.borrow_mut().coordinator.begin(tx, writes);
    perform(&mut world, coord_node, &harness, &node_table, actions);

    // Drive a timeout after one second of silence.
    let harness2 = harness.clone();
    let node_table2 = node_table.clone();
    world.schedule_after(SimDuration::from_secs(1), move |world| {
        let actions = harness2.borrow_mut().coordinator.on_timeout(tx);
        perform(world, coord_node, &harness2, &node_table2, actions);
    });
    // Participant 1 must come back up to receive (and ack) the abort.
    world.schedule_after(SimDuration::from_millis(1500), move |world| {
        world.restart(nodes[1]);
    });
    // Re-deliver the abort decision on a second timeout tick.
    let harness3 = harness.clone();
    let node_table3 = node_table.clone();
    world.schedule_after(SimDuration::from_secs(2), move |world| {
        let actions = harness3.borrow_mut().coordinator.on_timeout(tx);
        perform(world, coord_node, &harness3, &node_table3, actions);
    });
    world.run();

    assert_eq!(harness.borrow().done, vec![(tx, false)]);
    // Participant 0 prepared, then learned the abort: nothing applied,
    // nothing in doubt, lock released.
    let p0 = &participants[0];
    assert_eq!(
        p0.borrow().mgr.read_committed_key::<u8>(&key("a")).unwrap(),
        None
    );
    assert!(p0.borrow().mgr.in_doubt().is_empty());
}
