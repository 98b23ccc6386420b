//! The committed store at the extremes of its per-instance runs: one
//! instance of 100 000 keys written whole, and log records that name a
//! key twice or out of order, which no manager writes.

use std::collections::BTreeMap;

use flowscript_tx::{FactKey, LogRecord, ObjectUid, SharedStorage, StoreKey, TxId, TxManager, Wal};

/// Every committed fact key of instance `id` with its bytes, in order.
fn instance(mgr: &TxManager, id: u32) -> Vec<(FactKey, Vec<u8>)> {
    mgr.facts_in_range(FactKey::instance_first(id), FactKey::instance_last(id))
}

/// One instance of 100 000 keys: a start writes every control block in
/// ascending order, one action rewrites each in descending order with
/// an output fact beside it, and a purge deletes every key in ascending
/// order. Each is one commit of up to 200 000 images into one run, so
/// each must cost about its length, not its length times the run's.
#[test]
fn an_instance_of_a_hundred_thousand_keys_starts_rewrites_and_purges() {
    const N: u32 = 100_000;
    const ID: u32 = 7;
    let block = |task| StoreKey::Fact(FactKey::control(ID, task));
    let output = |task| StoreKey::Fact(FactKey::output(ID, task, 0));
    let mut mgr = TxManager::in_memory();

    let start = mgr.begin();
    for task in 0..N {
        mgr.write_key(&start, &block(task), &1u8).unwrap();
    }
    mgr.commit(start).unwrap();
    let started = instance(&mgr, ID);
    assert_eq!(started.len(), N as usize);
    for (task, (key, bytes)) in (0..N).zip(&started) {
        assert_eq!(
            (*key, bytes.as_slice()),
            (FactKey::control(ID, task), &[1u8][..])
        );
    }

    let rewrite = mgr.begin();
    for task in (0..N).rev() {
        mgr.write_key(&rewrite, &block(task), &2u8).unwrap();
        mgr.write_key(&rewrite, &output(task), &3u8).unwrap();
    }
    mgr.commit(rewrite).unwrap();
    let rewritten = instance(&mgr, ID);
    assert_eq!(rewritten.len(), 2 * N as usize);
    for (task, pair) in (0..N).zip(rewritten.chunks(2)) {
        let expected = [
            (FactKey::output(ID, task, 0), vec![3u8]),
            (FactKey::control(ID, task), vec![2u8]),
        ];
        assert_eq!(pair, expected);
    }
    assert_eq!(mgr.last_fact_key(), Some(FactKey::control(ID, N - 1)));

    let purge = mgr.begin();
    for task in 0..N {
        mgr.delete_key(&purge, &output(task)).unwrap();
        mgr.delete_key(&purge, &block(task)).unwrap();
    }
    mgr.commit(purge).unwrap();
    assert!(instance(&mgr, ID).is_empty());
    assert_eq!(mgr.object_count(), 0);
    assert_eq!(mgr.last_fact_key(), None);
}

/// A committed store and the ordered map of the same objects, the
/// model a hostile record is checked against.
type Model = BTreeMap<StoreKey, Vec<u8>>;

/// `mgr` holds exactly `model`: each key once, with its bytes.
fn holds(mgr: &TxManager, model: &Model) {
    let keys: Vec<FactKey> = model.keys().filter_map(StoreKey::as_fact).collect();
    let (lo, hi) = (FactKey::instance_first(0), FactKey::instance_last(u32::MAX));
    assert_eq!(mgr.fact_keys_in_range(lo, hi), keys);
    assert_eq!(mgr.object_count(), model.len());
    for (key, bytes) in model {
        assert_eq!(
            mgr.read_committed_bytes(key),
            Some(bytes.as_slice()),
            "{key:?}"
        );
    }
}

/// The keys one test record writes around the key it names twice: two
/// instances, so the record spans runs, and a few tasks of each.
fn around() -> Vec<StoreKey> {
    let mut keys: Vec<StoreKey> = [(3, 0), (3, 2), (3, 4), (4, 1)]
        .into_iter()
        .map(|(id, task)| StoreKey::Fact(FactKey::control(id, task)))
        .collect();
    keys.push(StoreKey::Uid(ObjectUid::new("inst/a/meta")));
    keys
}

/// A commit naming one fact key twice — insert then delete, delete then
/// insert, insert twice — replays to the store the ordered map gave:
/// the last image wins. So it does with the key committed before or
/// not, and with the record's other images few (point writes) or many
/// (the linear pass), and no run holds the key twice.
#[test]
fn a_commit_naming_a_key_twice_replays_its_last_image() {
    let twice = StoreKey::Fact(FactKey::output(3, 1, 0));
    let (a, b) = (Some(vec![0xa]), Some(vec![0xb]));
    let orders = [(a.clone(), None), (None, b.clone()), (a, b)];
    for (first, second) in orders {
        for committed_before in [false, true] {
            for padding in [0u32, 8] {
                let storage = SharedStorage::new();
                let mut model = Model::new();
                let mut mgr = TxManager::open(0, storage.clone()).unwrap();
                let prior = mgr.begin();
                let mut before = around();
                if committed_before {
                    before.push(twice.clone());
                }
                for key in &before {
                    mgr.write_key_raw(&prior, key, vec![1]).unwrap();
                    model.insert(key.clone(), vec![1]);
                }
                mgr.commit(prior).unwrap();
                drop(mgr);

                // The key twice, with inserts before the run's end
                // between them.
                let mut writes = vec![(twice.clone(), first.clone())];
                for task in 0..padding {
                    let key = StoreKey::Fact(FactKey::input(3, task, 0));
                    writes.push((key, Some(vec![2])));
                }
                writes.push((twice.clone(), second.clone()));
                for (key, image) in &writes {
                    match image {
                        Some(bytes) => model.insert(key.clone(), bytes.clone()),
                        None => model.remove(key),
                    };
                }
                let record = LogRecord::Commit {
                    tx: TxId::new(0, 100),
                    writes,
                };
                Wal::new(storage.clone()).append(&record).unwrap();

                let mut mgr = TxManager::open(0, storage.clone()).unwrap();
                holds(&mgr, &model);
                // What it replayed checkpoints as each key once, in order.
                mgr.checkpoint().unwrap();
                let reopened = TxManager::open(0, storage).unwrap();
                holds(&reopened, &model);
            }
        }
    }
}

/// A checkpoint whose states repeat a key, or list keys out of order,
/// replays to the store the ordered map gave: every key once, the last
/// state of a repeated key winning.
#[test]
fn a_checkpoint_repeating_a_key_or_out_of_order_replays_as_the_ordered_map() {
    let fact = |id, task| StoreKey::Fact(FactKey::control(id, task));
    let uid = |name: &str| StoreKey::Uid(ObjectUid::new(name));
    let repeated = vec![
        (uid("a"), vec![1]),
        (fact(1, 0), vec![1]),
        (fact(1, 1), vec![1]),
        (fact(1, 1), vec![2]),
        (uid("a"), vec![2]),
        (fact(2, 0), vec![1]),
        (fact(1, 0), vec![3]),
    ];
    let out_of_order = vec![
        (fact(2, 5), vec![1]),
        (fact(1, 3), vec![2]),
        (uid("z"), vec![3]),
        (fact(2, 0), vec![4]),
        (fact(1, 9), vec![5]),
        (uid("b"), vec![6]),
        (fact(1, 1), vec![7]),
    ];
    for states in [repeated, out_of_order] {
        let model: Model = states.iter().cloned().collect();
        let storage = SharedStorage::new();
        let checkpoint = LogRecord::Checkpoint {
            states,
            next_seq: 5,
        };
        Wal::new(storage.clone()).append(&checkpoint).unwrap();
        let mut mgr = TxManager::open(0, storage.clone()).unwrap();
        holds(&mgr, &model);
        mgr.checkpoint().unwrap();
        let records = Wal::new(storage).scan().unwrap();
        let [LogRecord::Checkpoint { states, .. }] = records.as_slice() else {
            panic!("one checkpoint: {records:?}");
        };
        let expected: Vec<(StoreKey, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(*states, expected, "rewritten in key order, each key once");
    }
}
