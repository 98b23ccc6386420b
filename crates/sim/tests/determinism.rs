//! Determinism guarantee: the same seed and the same program produce
//! identical traces, even under heavy message loss, crashes and partitions.

use flowscript_sim::{
    net::LinkConfig, FaultAction, FaultPlan, NodeEvent, NodeId, SimDuration, SimTime, World,
};
use proptest::prelude::*;

/// Builds a chatty 4-node world with loss, a crash/restart and a partition,
/// runs it, and returns the rendered trace.
fn run_scenario(seed: u64, drop_prob: f64, fanout: u8) -> String {
    let mut world = World::new(seed);
    let nodes: Vec<NodeId> = (0..4).map(|i| world.add_node(format!("node{i}"))).collect();
    world.net_mut().set_default_link(LinkConfig {
        drop_prob,
        ..LinkConfig::default()
    });

    FaultPlan::new()
        .at(SimTime::from_nanos(400_000), FaultAction::Crash(nodes[2]))
        .at(SimTime::from_nanos(900_000), FaultAction::Restart(nodes[2]))
        .at(
            SimTime::from_nanos(600_000),
            FaultAction::Partition(vec![nodes[0]], vec![nodes[3]]),
        )
        .at(SimTime::from_nanos(1_200_000), FaultAction::HealAll)
        .apply(&mut world);

    for i in 0..fanout {
        world.send(nodes[0], nodes[1], vec![i.wrapping_mul(3) % 17]);
    }
    // Every node echoes decremented payloads to the next node until zero.
    while let Some((node, event)) = world.next() {
        let NodeEvent::Message(env) = event else {
            continue;
        };
        let value = env.payload[0];
        if value > 0 {
            let next = nodes[(node.index() + 1) % nodes.len()];
            world.send(node, next, vec![value - 1]);
        } else {
            world.trace_custom(format!("{node}"), "chain done");
        }
    }
    world.trace().render()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn same_seed_same_trace(seed: u64, drop in 0.0f64..0.6, fanout in 1u8..24) {
        let a = run_scenario(seed, drop, fanout);
        let b = run_scenario(seed, drop, fanout);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rpc_under_faults_always_terminates(seed: u64, drop in 0.0f64..0.9) {
        let mut world = World::new(seed);
        let client = world.add_node("client");
        let server = world.add_node("server");
        world.net_mut().set_default_link(LinkConfig {
            drop_prob: drop,
            ..LinkConfig::default()
        });
        for i in 0..10u8 {
            world
                .call(client, server, vec![i], SimDuration::from_millis(50))
                .expect("the client is up");
        }
        let mut outcomes = 0u32;
        while let Some((node, event)) = world.next() {
            match event {
                NodeEvent::Message(env) => {
                    let token = env.reply_token().expect("a request");
                    world.rpc_reply_to(token, env.payload);
                }
                NodeEvent::Answer(..) if node == client => outcomes += 1,
                _ => {}
            }
        }
        // Every call resolves exactly once, success or timeout.
        prop_assert_eq!(outcomes, 10);
    }
}

#[test]
fn trace_differs_across_seeds_under_loss() {
    let a = run_scenario(1, 0.4, 16);
    let b = run_scenario(2, 0.4, 16);
    assert_ne!(a, b);
}
