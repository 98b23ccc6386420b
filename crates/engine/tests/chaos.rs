//! Chaos property tests: under randomized fault schedules — processor
//! crashes of executors *and* coordinator shards, partitions, repeated
//! shard restarts — the engine must always reach a terminal verdict
//! (Completed or Stuck) — never hang, never corrupt state, never
//! double-apply an outcome — and runs must be deterministic per seed.

mod common;

use common::assert_one_owner;
use flowscript_core::samples;
use flowscript_engine::{
    CbState, EngineConfig, InstanceStatus, ObjectVal, TaskBehavior, WorkflowSystem,
};
use flowscript_sim::{FaultAction, FaultPlan, SimDuration, SimTime};
use proptest::prelude::*;

fn order_system(seed: u64, max_retries: u32) -> WorkflowSystem {
    sharded_order_system(seed, 1, max_retries)
}

fn sharded_order_system(seed: u64, coordinators: usize, max_retries: u32) -> WorkflowSystem {
    let config = EngineConfig {
        max_retries,
        dispatch_timeout: SimDuration::from_millis(250),
        retry_backoff: SimDuration::from_millis(10),
        ..EngineConfig::default()
    };
    let mut sys = WorkflowSystem::builder()
        .executors(3)
        .coordinators(coordinators)
        .seed(seed)
        .config(config)
        .build();
    sys.register_script(
        "order",
        samples::ORDER_PROCESSING,
        "processOrderApplication",
    )
    .unwrap();
    sys.bind_fn("refPaymentAuthorisation", |_| {
        TaskBehavior::outcome("authorised")
            .with_work(SimDuration::from_millis(30))
            .with_object("paymentInfo", ObjectVal::text("PaymentInfo", "p"))
    });
    sys.bind_fn("refCheckStock", |_| {
        TaskBehavior::outcome("stockAvailable")
            .with_work(SimDuration::from_millis(45))
            .with_object("stockInfo", ObjectVal::text("StockInfo", "s"))
    });
    sys.bind_fn("refDispatch", |_| {
        TaskBehavior::outcome("dispatchCompleted")
            .with_work(SimDuration::from_millis(25))
            .with_object("dispatchNote", ObjectVal::text("DispatchNote", "n"))
    });
    sys.bind_fn("refPaymentCapture", |_| TaskBehavior::outcome("done"));
    sys
}

/// A randomized fault plan derived from proptest inputs.
fn fault_plan(
    sys: &WorkflowSystem,
    crashes: &[(u8, u32, u32)],
    partition_at: Option<u32>,
) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let nodes: Vec<_> = sys.executor_nodes().to_vec();
    let coordinator = sys.coordinator_node();
    for &(which, at_ms, down_ms) in crashes {
        let node = if which == 0 {
            coordinator
        } else {
            nodes[(which as usize - 1) % nodes.len()]
        };
        let at = SimTime::from_nanos(u64::from(at_ms % 400) * 1_000_000);
        plan = plan.at(at, FaultAction::Crash(node)).at(
            at + SimDuration::from_millis(u64::from(down_ms % 300) + 20),
            FaultAction::Restart(node),
        );
    }
    if let Some(at_ms) = partition_at {
        let at = SimTime::from_nanos(u64::from(at_ms % 300) * 1_000_000);
        plan = plan
            .at(at, FaultAction::Partition(vec![coordinator], nodes.clone()))
            .at(at + SimDuration::from_millis(400), FaultAction::HealAll);
    }
    plan
}

/// `None` when the fault plan took the coordinator down before the
/// client's start call could land (a legitimate refusal, not a verdict
/// about instance execution).
fn run_chaos(
    seed: u64,
    crashes: &[(u8, u32, u32)],
    partition_at: Option<u32>,
) -> Option<(InstanceStatus, String)> {
    let mut sys = order_system(seed, 6);
    let plan = fault_plan(&sys, crashes, partition_at);
    plan.apply(sys.world_mut());
    if let Err(err) = sys.start(
        "o",
        "order",
        "main",
        [("order", ObjectVal::text("Order", "o"))],
    ) {
        // Only an RPC-level refusal (a service was down/partitioned when
        // the call landed) is a legitimate skip — and only when the
        // fault plan actually scheduled a coordinator fault. Anything
        // else is a real bug in the start path, not chaos.
        let coordinator_fault_scheduled =
            crashes.iter().any(|&(which, _, _)| which == 0) || partition_at.is_some();
        let message = err.to_string();
        assert!(
            coordinator_fault_scheduled
                && (message.contains("timed out") || message.contains("unreachable")),
            "unexpected start failure: {message} (crashes: {crashes:?})"
        );
        sys.run();
        return None;
    }
    sys.run();
    let status = sys.status("o").unwrap();
    Some((status, sys.sim_trace().render()))
}

// ---------------------------------------------------------------------
// Sharded chaos: fault injection picks coordinator nodes too.
// ---------------------------------------------------------------------

/// Instance names for the sharded runs (several, so rendezvous hashing
/// spreads them over the coordinator shards).
fn sharded_instances() -> Vec<String> {
    (0..4).map(|i| format!("wf-{i}")).collect()
}

/// A randomized fault plan over the *whole* node population:
/// `which` indexes coordinators first, then executors.
fn sharded_fault_plan(sys: &WorkflowSystem, crashes: &[(u8, u32, u32)]) -> FaultPlan {
    let mut victims: Vec<_> = sys.coordinator_nodes().to_vec();
    victims.extend_from_slice(sys.executor_nodes());
    let mut plan = FaultPlan::new();
    for &(which, at_ms, down_ms) in crashes {
        let node = victims[which as usize % victims.len()];
        let at = SimTime::from_nanos(u64::from(at_ms % 400) * 1_000_000);
        plan = plan.at(at, FaultAction::Crash(node)).at(
            at + SimDuration::from_millis(u64::from(down_ms % 300) + 20),
            FaultAction::Restart(node),
        );
    }
    plan
}

/// Starts every instance (skipping any whose owning shard was down when
/// the call landed — legitimate only when a coordinator fault was
/// scheduled), runs to quiescence, and returns per-instance statuses
/// plus the trace.
fn run_sharded_chaos(
    seed: u64,
    coordinators: usize,
    crashes: &[(u8, u32, u32)],
) -> (Vec<(String, InstanceStatus)>, String) {
    let mut sys = sharded_order_system(seed, coordinators, 6);
    let plan = sharded_fault_plan(&sys, crashes);
    // Same victim-list arithmetic as `sharded_fault_plan`: coordinators
    // first, then executors.
    let victim_count = sys.coordinator_nodes().len() + sys.executor_nodes().len();
    let coordinator_fault_scheduled = crashes
        .iter()
        .any(|&(which, _, _)| (which as usize % victim_count) < sys.coordinator_nodes().len());
    plan.apply(sys.world_mut());
    let mut started = Vec::new();
    for name in sharded_instances() {
        match sys.start(
            &name,
            "order",
            "main",
            [("order", ObjectVal::text("Order", &name))],
        ) {
            Ok(()) => started.push(name),
            Err(err) => {
                let message = err.to_string();
                assert!(
                    coordinator_fault_scheduled
                        && (message.contains("timed out")
                            || message.contains("unreachable")
                            || message.contains("never completed")),
                    "unexpected start failure for {name}: {message} (crashes: {crashes:?})"
                );
            }
        }
    }
    sys.run();
    let statuses = started
        .into_iter()
        .map(|name| {
            let status = sys.status(&name).unwrap();
            (name, status)
        })
        .collect();
    (statuses, sys.sim_trace().render())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_chaos_always_reaches_verdicts(
        seed: u64,
        coordinators in 2usize..5,
        crashes in proptest::collection::vec((0u8..8, any::<u32>(), any::<u32>()), 0..3),
    ) {
        let (statuses, _) = run_sharded_chaos(seed, coordinators, &crashes);
        for (name, status) in statuses {
            prop_assert!(status.is_terminal(), "{}: non-terminal {:?}", name, status);
        }
    }

    #[test]
    fn sharded_chaos_is_deterministic(
        seed: u64,
        coordinators in 2usize..5,
        crashes in proptest::collection::vec((0u8..8, any::<u32>(), any::<u32>()), 0..3),
    ) {
        let run1 = run_sharded_chaos(seed, coordinators, &crashes);
        let run2 = run_sharded_chaos(seed, coordinators, &crashes);
        prop_assert_eq!(run1, run2);
    }
}

/// Shard-local recovery under *repeated* crashes: one coordinator shard
/// crashes and restarts three times mid-run; its instances complete
/// through WAL replay every time, and no other shard ever runs
/// recovery.
#[test]
fn repeated_shard_crashes_recover_shard_locally() {
    let mut sys = sharded_order_system(5, 3, 8);
    for name in sharded_instances() {
        sys.start(
            &name,
            "order",
            "main",
            [("order", ObjectVal::text("Order", &name))],
        )
        .unwrap();
    }
    let victim_name = sharded_instances().remove(0);
    let victim_shard = sys.shard_of(&victim_name);
    let victim_node = sys.coordinator_node_for(&victim_name);
    let mut plan = FaultPlan::new();
    for at_ms in [30u64, 120, 210] {
        plan = plan
            .at(
                SimTime::from_nanos(at_ms * 1_000_000),
                FaultAction::Crash(victim_node),
            )
            .at(
                SimTime::from_nanos((at_ms + 40) * 1_000_000),
                FaultAction::Restart(victim_node),
            );
    }
    plan.apply(sys.world_mut());
    sys.run();
    for name in sharded_instances() {
        assert_eq!(
            sys.outcome(&name)
                .unwrap_or_else(|| panic!("{name}: {:?}", sys.status(&name)))
                .name,
            "orderCompleted"
        );
    }
    for shard in 0..sys.shard_count() {
        let recovered = sys.shard_stats(shard).recovered_instances;
        if shard == victim_shard {
            assert!(recovered >= 3, "three restarts must replay: {recovered}");
        } else {
            assert_eq!(recovered, 0, "shard {shard} recovered spuriously");
        }
    }
}

/// Repeated kill-one-shard cycles under traffic, resolved by
/// crash-driven adoption instead of node restarts: a four-shard fleet
/// loses one coordinator, its population is claimed out of the
/// surviving storage and adopted, new orders keep arriving at the
/// shrunken fleet — then a second shard dies the same way. Zero lost
/// outcomes: every instance (started before, between or after the
/// kills) must end with the same outcome bytes as a run that never saw
/// a failure.
#[test]
fn repeated_shard_kills_with_adoption_lose_no_outcomes() {
    let names: Vec<String> = (0..12).map(|i| format!("wf-{i}")).collect();
    let start = |sys: &mut WorkflowSystem, name: &str| {
        sys.start(
            name,
            "order",
            "main",
            [("order", ObjectVal::text("Order", name))],
        )
        .unwrap();
    };

    // The no-failure reference: outcomes are pure functions of the
    // invocation, so they must survive any number of adoptions.
    let expected: Vec<InstanceStatus> = {
        let mut sys = sharded_order_system(5, 4, 8);
        for name in &names {
            start(&mut sys, name);
        }
        sys.run();
        names.iter().map(|name| sys.status(name).unwrap()).collect()
    };

    let mut sys = sharded_order_system(5, 4, 8);
    for name in &names[..8] {
        start(&mut sys, name);
    }
    sys.run_for(SimDuration::from_millis(20));

    // Cycle 1: kill a shard mid-traffic, adopt its population.
    let victim = sys.coordinator_nodes()[1];
    sys.crash_now(victim);
    let first = sys.adopt_dead_shard("coordinator1").expect("failover 1");
    assert_one_owner(&sys, &names[..8], "after failover 1");

    // Traffic continues against the shrunken fleet.
    for name in &names[8..] {
        start(&mut sys, name);
    }
    sys.run_for(SimDuration::from_millis(30));

    // Cycle 2: another shard dies the same way.
    let victim = sys.coordinator_nodes()[1];
    sys.crash_now(victim);
    let second = sys.adopt_dead_shard("coordinator2").expect("failover 2");
    assert_one_owner(&sys, &names, "after failover 2");
    assert_eq!(sys.shard_count(), 2);

    sys.run();
    assert_one_owner(&sys, &names, "at the end");
    for (name, expected) in names.iter().zip(&expected) {
        assert_eq!(
            &sys.status(name).unwrap(),
            expected,
            "{name} lost or changed its outcome across the kill cycles"
        );
    }
    assert_eq!(
        sys.stats().adoptions,
        (first.adopted + second.adopted) as u64,
        "every adoption counted exactly once"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chaos_runs_always_reach_a_verdict(
        seed: u64,
        crashes in proptest::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 0..3),
        partition_at in proptest::option::of(any::<u32>()),
    ) {
        if let Some((status, _)) = run_chaos(seed, &crashes, partition_at) {
            // Terminal either way; never Running after the queue drains.
            prop_assert!(status.is_terminal(), "non-terminal: {status:?}");
        }
    }

    #[test]
    fn chaos_runs_are_deterministic(
        seed: u64,
        crashes in proptest::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 0..3),
    ) {
        let run1 = run_chaos(seed, &crashes, None);
        let run2 = run_chaos(seed, &crashes, None);
        prop_assert_eq!(run1, run2);
    }

    #[test]
    fn completed_chaos_runs_have_consistent_final_state(
        seed: u64,
        crashes in proptest::collection::vec((1u8..4, any::<u32>(), any::<u32>()), 0..2),
    ) {
        // Executor-only crashes with generous retries: the order should
        // usually complete; when it does, the final state must be
        // consistent (all tasks terminal, outcome objects present).
        let mut sys = order_system(seed, 8);
        let plan = fault_plan(&sys, &crashes, None);
        plan.apply(sys.world_mut());
        sys.start("o", "order", "main", [("order", ObjectVal::text("Order", "o"))]).unwrap();
        sys.run();
        if let InstanceStatus::Completed(outcome) = sys.status("o").unwrap() {
            prop_assert_eq!(&outcome.name, "orderCompleted");
            prop_assert!(outcome.objects.contains_key("dispatchNote"));
            for (path, state) in sys.task_states("o") {
                prop_assert!(state.is_terminal(), "{} not terminal: {:?}", path, state);
                // No task may be Failed in a completed run of this script
                // (every task feeds the outcome chain).
                prop_assert!(
                    !matches!(state, CbState::Failed { .. }),
                    "{} failed in a completed run", path
                );
            }
        }
    }
}
