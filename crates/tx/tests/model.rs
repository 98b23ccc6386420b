//! Model-based property tests: the transactional store, driven by random
//! operation sequences with interleaved commits/aborts/crashes, must always
//! agree with a trivial reference model (a `HashMap` mutated only on
//! commit).

use std::collections::HashMap;

use flowscript_tx::{FactKey, LogRecord, ObjectUid, SharedStorage, StoreKey, TxManager, Wal};
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

/// Key `k` of the mixed-action model: an even `k` is a uid named like a
/// client's instance, an odd one a fact key, over a few instances, tasks
/// and sub-keys — so one action interleaves both families of keys.
fn mixed_key(k: u8) -> StoreKey {
    if k.is_multiple_of(2) {
        StoreKey::Uid(ObjectUid::new(format!("inst/i{}/meta", k / 2)))
    } else {
        let k = u32::from(k);
        StoreKey::Fact(FactKey::output(k % 3, k % 5, 0).with_obj(k % 2))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One action stages interleaved uid and fact keys, overwriting and
    /// deleting as it goes. After every write, `read_through` sees each
    /// key's last staged value; the commit record then lists each key
    /// once, with that value, in the order the key was first written —
    /// the order that keeps a log's bytes the same however the
    /// workspace indexes its keys.
    #[test]
    fn a_mixed_action_reads_its_last_writes_and_logs_them_in_first_write_order(
        writes in proptest::collection::vec(
            (0u8..16, proptest::option::of(any::<u16>())),
            1..64,
        ),
    ) {
        let storage = SharedStorage::new();
        let mut mgr = TxManager::open(0, storage.clone()).unwrap();
        let action = mgr.begin();
        let mut first_written: Vec<u8> = Vec::new();
        let mut last: HashMap<u8, Option<Vec<u8>>> = HashMap::new();
        for (k, value) in writes {
            match value {
                Some(value) => mgr.write_key(&action, &mixed_key(k), &value).unwrap(),
                None => mgr.delete_key(&action, &mixed_key(k)).unwrap(),
            }
            if !first_written.contains(&k) {
                first_written.push(k);
            }
            last.insert(k, value.map(|value| flowscript_codec::to_bytes(&value)));
            for (k, staged) in &last {
                let read = mgr.read_through(Some(&action), &mixed_key(*k));
                prop_assert_eq!(read, staged.as_deref(), "key {}", k);
            }
        }
        mgr.commit(action).unwrap();
        let expected: Vec<(StoreKey, Option<Vec<u8>>)> = first_written
            .iter()
            .map(|k| (mixed_key(*k), last[k].clone()))
            .collect();
        let records = Wal::new(storage).scan().unwrap();
        let [LogRecord::Commit { writes, .. }] = records.as_slice() else {
            panic!("one commit record: {records:?}");
        };
        prop_assert_eq!(writes, &expected);
    }
}
