//! The worklist on randomized executions.
//!
//! Randomized workflows — chains with alternative and unconditioned
//! (`AnyOf`) sources, leaf repeat loops, abort outcomes, a nested
//! compound — with optional mid-run reconfigurations (including task
//! removal, which shifts every dense task id and exercises the fact-key
//! remap) must run to quiescence, and in debug builds every drain on
//! the way asserts the quiescence oracle: a full scan finds no startable
//! task and no satisfied output the reverse-edge seeding left behind.
//!
//! The per-commit full scan this suite used to run as a second arm is
//! retired; eight of its cases, rendered by it, are pinned in
//! `golden/reference_full_scan.txt` (`golden.rs`).

mod common;

use common::{generated_config, run_worklist_case};
use flowscript_engine::EngineConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn worklist_drains_to_quiescence(
        n in 1usize..4,
        seed in 0u64..(1u64 << 42),
        reconfig in 0usize..4,
    ) {
        let config = EngineConfig {
            max_repeats: 6,
            ..generated_config()
        };
        let sys = run_worklist_case(n, seed, reconfig, config);
        let status = sys.status("i1").unwrap();
        prop_assert!(status.is_terminal(), "still running: {:?}", status);
        prop_assert!(!sys.dispatch_trace().is_empty(), "never dispatched");
    }
}
