//! Worklist / full-scan equivalence.
//!
//! The event-driven commit pipeline (reverse-edge worklist seeding) is
//! only allowed to be a *faster* scheduling of the same decisions the
//! full scope-tree rescan makes — never a different execution. For
//! randomized workflows — chains with alternative and unconditioned
//! (`AnyOf`) sources, leaf repeat loops, abort outcomes, a nested
//! compound running the Fig. 8 repeat-on-failure loop — and optional
//! mid-run reconfigurations (including task removal, which shifts every
//! dense task id and exercises the fact-key remap), two identically
//! seeded systems — one event-driven, one with
//! `EngineConfig::full_rescan` — must produce **identical dispatch
//! traces**, identical final statuses and identical task states.
//!
//! (In debug builds every drain additionally asserts the quiescence
//! oracle: no startable task or satisfied output left behind.)

mod common;

use common::{generated_config, run_worklist_case};
use flowscript_engine::coordinator::EngineConfig;
use flowscript_engine::WorkflowSystem;
use proptest::prelude::*;

fn run_one(n: usize, seed: u64, reconfig: usize, full_rescan: bool) -> WorkflowSystem {
    let config = EngineConfig {
        max_repeats: 6,
        full_rescan,
        ..generated_config()
    };
    run_worklist_case(n, seed, reconfig, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn worklist_matches_full_rescan(
        n in 1usize..4,
        seed in 0u64..(1u64 << 42),
        reconfig in 0usize..4,
    ) {
        let event_driven = run_one(n, seed, reconfig, false);
        let full_rescan = run_one(n, seed, reconfig, true);

        // Identical dispatch traces: same tasks, same attempts, same order.
        let lhs: Vec<_> = event_driven
            .dispatch_trace()
            .into_iter()
            .map(|d| (d.path, d.attempt))
            .collect();
        let rhs: Vec<_> = full_rescan
            .dispatch_trace()
            .into_iter()
            .map(|d| (d.path, d.attempt))
            .collect();
        prop_assert_eq!(&lhs, &rhs);

        // Identical terminal verdicts and per-task states.
        prop_assert_eq!(
            event_driven.status("i1").unwrap(),
            full_rescan.status("i1").unwrap()
        );
        prop_assert_eq!(event_driven.task_states("i1"), full_rescan.task_states("i1"));
        prop_assert_eq!(
            event_driven.stats().dispatches,
            full_rescan.stats().dispatches
        );
        prop_assert_eq!(event_driven.stats().repeats, full_rescan.stats().repeats);
        // The whole point: the event-driven pipeline re-checks fewer
        // tasks than the per-commit full scan (never more).
        prop_assert!(
            event_driven.stats().evaluations <= full_rescan.stats().evaluations
        );
    }
}
