//! Sharded / single-coordinator equivalence.
//!
//! Sharding instance ownership across `k` coordinator nodes is only
//! allowed to be a *placement* of the same execution — never a
//! different one. For randomized workflows (chains with alternative
//! and unconditioned `AnyOf` sources, attempt-keyed leaf repeat loops,
//! abort outcomes, a nested compound), random seeds and random
//! instance-name distributions, a `coordinators(1)` and a
//! `coordinators(k)` system must produce **identical per-instance
//! dispatch traces**, identical terminal statuses and identical task
//! states. Implementations are pure functions of the invocation
//! context (path, attempt, incarnation, inputs) so no hidden state can
//! leak between instances and break placement-independence; the link
//! is jitter-free so behaviour cannot depend on shared-RNG draw order.

mod common;

use common::{generated_config, generated_script, run_generated};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_execution_matches_single_coordinator(
        k in 2usize..9,
        n in 1usize..4,
        seed in any::<u64>(),
        salts in proptest::collection::vec(any::<u64>(), 2..7),
    ) {
        let script = generated_script(n, seed);
        // Random instance-name distribution (index prefix guarantees
        // uniqueness; the salt varies the rendezvous placement).
        let names: Vec<String> = salts
            .iter()
            .enumerate()
            .map(|(i, salt)| format!("wf{i}-{salt:016x}"))
            .collect();
        let single = run_generated(1, generated_config(), n, seed, &script, &names);
        let sharded = run_generated(k, generated_config(), n, seed, &script, &names);
        prop_assert_eq!(&single, &sharded, "k={} n={} seed={}", k, n, seed);
        // Every instance reached a terminal verdict in both worlds and
        // actually dispatched something.
        for (name, (status, trace, _)) in &single {
            prop_assert!(status.is_terminal(), "{}: {:?}", name, status);
            prop_assert!(!trace.is_empty(), "{} never dispatched", name);
        }
    }
}
