//! Model-based property tests: the transactional store, driven by random
//! operation sequences with interleaved commits/aborts/crashes, must always
//! agree with a trivial reference model (a `HashMap` mutated only on
//! commit).

use std::collections::HashMap;

use flowscript_tx::{ObjectUid, SharedStorage, StoreKey, TxManager};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Write(u8, u16),
    Delete(u8),
    Commit,
    Abort,
    /// Simulated crash: drop the manager mid-transaction and recover from
    /// the shared log.
    CrashRecover,
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Write(k % 12, v)),
        1 => any::<u8>().prop_map(|k| Op::Delete(k % 12)),
        3 => Just(Op::Commit),
        2 => Just(Op::Abort),
        1 => Just(Op::CrashRecover),
        1 => Just(Op::Checkpoint),
    ]
}

fn key(k: u8) -> StoreKey {
    StoreKey::Uid(ObjectUid::new(format!("obj/{k}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let stable = SharedStorage::new();
        let mut mgr = TxManager::open(0, stable.clone()).unwrap();
        let mut model: HashMap<u8, u16> = HashMap::new();
        let mut staged: HashMap<u8, Option<u16>> = HashMap::new();
        let mut action = None;

        for op in ops {
            match op {
                Op::Write(k, v) => {
                    let a = action.get_or_insert_with(|| mgr.begin());
                    mgr.write_key(a, &key(k), &v).unwrap();
                    staged.insert(k, Some(v));
                }
                Op::Delete(k) => {
                    let a = action.get_or_insert_with(|| mgr.begin());
                    mgr.delete_key(a, &key(k)).unwrap();
                    staged.insert(k, None);
                }
                Op::Commit => {
                    if let Some(a) = action.take() {
                        mgr.commit(a).unwrap();
                        for (k, v) in staged.drain() {
                            match v {
                                Some(v) => { model.insert(k, v); }
                                None => { model.remove(&k); }
                            }
                        }
                    }
                }
                Op::Abort => {
                    if let Some(a) = action.take() {
                        mgr.abort(a);
                        staged.clear();
                    }
                }
                Op::CrashRecover => {
                    // Uncommitted work dies with the process.
                    action = None;
                    staged.clear();
                    drop(mgr);
                    mgr = TxManager::open(0, stable.clone()).unwrap();
                }
                Op::Checkpoint => {
                    // Checkpoint outside a transaction only (the manager
                    // supports it any time, but keep the model simple).
                    if action.is_none() {
                        mgr.checkpoint().unwrap();
                    }
                }
            }

            // Committed state must equal the model at every step.
            for k in 0..12u8 {
                let stored: Option<u16> = mgr.read_committed_key(&key(k)).unwrap();
                prop_assert_eq!(stored, model.get(&k).copied(), "key {}", k);
            }
        }

        // Final recovery must also reproduce the model exactly.
        drop(mgr);
        let recovered = TxManager::open(0, stable).unwrap();
        for k in 0..12u8 {
            let stored: Option<u16> = recovered.read_committed_key(&key(k)).unwrap();
            prop_assert_eq!(stored, model.get(&k).copied(), "post-recovery key {}", k);
        }
    }
}
