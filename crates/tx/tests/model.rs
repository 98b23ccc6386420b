//! Model-based property tests: the transactional store, driven by random
//! operation sequences with interleaved commits/aborts/crashes, must always
//! agree with a trivial reference model (an ordered map mutated only on
//! commit).

use std::collections::{BTreeMap, HashMap};

use flowscript_tx::{
    FactKey, FactKind, LogRecord, ObjectUid, SharedStorage, StoreKey, TxManager, Wal,
};
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

/// How many keys the model writes: 12 uids, then fact keys.
const KEYS: u8 = 12 + 72;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Write(k % KEYS, v)),
        1 => any::<u8>().prop_map(|k| Op::Delete(k % KEYS)),
        3 => Just(Op::Commit),
        2 => Just(Op::Abort),
        1 => Just(Op::CrashRecover),
        1 => Just(Op::Checkpoint),
    ]
}

/// The instance ids the model's fact keys name: not contiguous, so a
/// range across them spans ids the store holds nothing under.
const INSTANCES: [u32; 4] = [0, 1, 5, 9];

/// Key `k`: a uid below 12, else a fact key over [`INSTANCES`], 3
/// tasks, the 3 kinds and 2 sub-keys.
fn key(k: u8) -> StoreKey {
    if k < 12 {
        return StoreKey::Uid(ObjectUid::new(format!("obj/{k}")));
    }
    let k = usize::from(k - 12);
    let kind = [FactKind::Input, FactKind::Output, FactKind::Control][k / 12 % 3];
    StoreKey::Fact(FactKey {
        instance: INSTANCES[k % 4],
        task: (k / 4 % 3) as u32,
        kind,
        item: 0,
        obj: (k / 36) as u32,
    })
}

/// The model's fact keys in `lo..=hi`, in order.
fn model_facts(
    model: &BTreeMap<StoreKey, Vec<u8>>,
    lo: FactKey,
    hi: FactKey,
) -> Vec<(FactKey, Vec<u8>)> {
    model
        .range(StoreKey::Fact(lo)..=StoreKey::Fact(hi))
        .filter_map(|(key, bytes)| Some((key.as_fact()?, bytes.clone())))
        .collect()
}

/// Every committed read and scan of `mgr` answers as `model` does.
fn agrees(mgr: &TxManager, model: &BTreeMap<StoreKey, Vec<u8>>) -> Result<(), TestCaseError> {
    for k in 0..KEYS {
        let key = key(k);
        prop_assert_eq!(
            mgr.read_committed_bytes(&key),
            model.get(&key).map(Vec::as_slice),
            "{:?}",
            key
        );
    }
    let mut ranges: Vec<(FactKey, FactKey)> = INSTANCES
        .iter()
        .flat_map(|&id| {
            [
                (FactKey::instance_first(id), FactKey::instance_last(id)),
                (FactKey::task_first(id, 1), FactKey::task_last(id, 2)),
                (FactKey::output(id, 0, 0), FactKey::control(id, 1)),
            ]
        })
        .collect();
    ranges.extend([
        (FactKey::instance_first(0), FactKey::instance_last(u32::MAX)),
        (FactKey::task_first(1, 2), FactKey::task_last(9, 0)),
        (FactKey::control(0, 1), FactKey::input(5, 1, 0)),
        (FactKey::instance_first(2), FactKey::instance_last(4)),
    ]);
    for (lo, hi) in ranges {
        let facts = model_facts(model, lo, hi);
        let keys: Vec<FactKey> = facts.iter().map(|(key, _)| *key).collect();
        prop_assert_eq!(mgr.fact_keys_in_range(lo, hi), keys, "{}..={}", lo, hi);
        prop_assert_eq!(mgr.facts_in_range(lo, hi), facts, "{}..={}", lo, hi);
    }
    let last = model.keys().next_back().and_then(StoreKey::as_fact);
    prop_assert_eq!(mgr.last_fact_key(), last);
    for prefix in ["obj/", "obj/1", "obj/7", "nothing"] {
        let uids: Vec<ObjectUid> = model
            .keys()
            .filter_map(StoreKey::as_uid)
            .filter(|uid| uid.as_str().starts_with(prefix))
            .cloned()
            .collect();
        prop_assert_eq!(mgr.uids_with_prefix(prefix), uids, "{}", prefix);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let stable = SharedStorage::new();
        let mut mgr = TxManager::open(0, stable.clone()).unwrap();
        let mut model: BTreeMap<StoreKey, Vec<u8>> = BTreeMap::new();
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
                                Some(v) => { model.insert(key(k), flowscript_codec::to_bytes(&v)); }
                                None => { model.remove(&key(k)); }
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
                        // The snapshot lists the model, in its key order.
                        let records = Wal::new(stable.clone()).scan().unwrap();
                        let [LogRecord::Checkpoint { states, .. }] = records.as_slice() else {
                            panic!("one checkpoint record: {records:?}");
                        };
                        let modelled: Vec<(StoreKey, Vec<u8>)> =
                            model.iter().map(|(key, bytes)| (key.clone(), bytes.clone())).collect();
                        prop_assert_eq!(states, &modelled);
                    }
                }
            }

            // Committed state must equal the model at every step.
            agrees(&mgr, &model)?;
        }

        // Final recovery must also reproduce the model exactly.
        drop(mgr);
        let recovered = TxManager::open(0, stable).unwrap();
        agrees(&recovered, &model)?;
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
