//! Structured-key properties.
//!
//! [`StoreKey`]/[`FactKey`] are the storage substrate of the engine's
//! event-driven commit pipeline: they must round-trip the binary codec
//! exactly, and their ordering must keep an instance's facts (and a
//! task's facts) contiguous so subtree cancel/reset and reconfiguration
//! remapping stay single range scans. The log writes each key of an
//! after-image list relative to the one before it, so whole records
//! must round-trip too, whatever runs of shared instances, tasks and
//! uid prefixes they hold.

use flowscript_tx::{FactKey, FactKind, LogRecord, ObjectUid, StoreKey, TxId};
use proptest::prelude::*;

fn fact_key(instance: u32, task: u32, kind_bit: bool, item: u32, obj: u32) -> FactKey {
    let base = if kind_bit {
        FactKey::output(instance, task, item)
    } else {
        FactKey::input(instance, task, item)
    };
    base.with_obj(obj)
}

/// Uid and fact keys alike, as a commit record's write set mixes them.
fn store_key() -> impl Strategy<Value = StoreKey> {
    prop_oneof![
        "[a-z/]{0,24}".prop_map(|name| StoreKey::from(ObjectUid::new(name))),
        (0u32..1000, 0u32..1000, 0u32..1000).prop_map(|(instance, task, item)| StoreKey::from(
            FactKey::output(instance, task, item)
        )),
    ]
}

/// An instance or task id: mostly one of a few, so neighbours share
/// it, sometimes the largest.
fn id() -> impl Strategy<Value = u32> {
    prop_oneof![4 => 0u32..3, 1 => Just(u32::MAX)]
}

/// A sub-object ordinal on both sides of the inline range's end.
fn obj() -> impl Strategy<Value = u32> {
    prop_oneof![4 => 0u32..9, 1 => Just(6u32), 1 => Just(7u32), 1 => Just(u32::MAX)]
}

/// A key of an after-image list: fact keys clustered on a few
/// instances and tasks, uids sharing prefixes (some splitting a
/// two-byte character).
fn image_key() -> impl Strategy<Value = StoreKey> {
    let kind = prop_oneof![
        Just(FactKind::Input),
        Just(FactKind::Output),
        Just(FactKind::Control),
    ];
    prop_oneof![
        3 => (id(), id(), kind, prop_oneof![0u32..3, Just(u32::MAX)], obj()).prop_map(
            |(instance, task, kind, item, obj)| StoreKey::from(FactKey {
                instance,
                task,
                kind,
                item,
                obj,
            })
        ),
        1 => "inst/[ab]/[éêab/]{0,4}".prop_map(|name| StoreKey::from(ObjectUid::new(name))),
        1 => "[a-c/]{0,3}".prop_map(|name| StoreKey::from(ObjectUid::new(name))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn log_records_roundtrip_with_delta_coded_lists(
        writes in proptest::collection::vec(
            (image_key(), proptest::option::of(proptest::collection::vec(any::<u8>(), 0..4))),
            0..24,
        ),
        node in id(),
        seq: u64,
        next_seq: u64,
    ) {
        let tx = TxId::new(node, seq);
        let states: Vec<(StoreKey, Vec<u8>)> = writes
            .iter()
            .filter_map(|(key, value)| Some((key.clone(), value.clone()?)))
            .collect();
        let commit = LogRecord::Commit { tx, writes };
        let checkpoint = LogRecord::Checkpoint { states, next_seq };
        for record in [commit, checkpoint] {
            let bytes = flowscript_codec::to_bytes(&record);
            prop_assert_eq!(flowscript_codec::from_bytes::<LogRecord>(&bytes).unwrap(), record.clone());
            // The same list encodes to the same bytes every time.
            prop_assert_eq!(flowscript_codec::to_bytes(&record), bytes);
        }
    }

    #[test]
    fn after_images_roundtrip_codec(
        writes in proptest::collection::vec(
            (store_key(), proptest::option::of(any::<Vec<u8>>())),
            0..8,
        ),
    ) {
        // A commit record's write set: the byte payloads take the bulk
        // codec path, the keys and options the element-wise one.
        let bytes = flowscript_codec::to_bytes(&writes);
        prop_assert_eq!(
            flowscript_codec::from_bytes::<Vec<(StoreKey, Option<Vec<u8>>)>>(&bytes).unwrap(),
            writes
        );
    }

    #[test]
    fn fact_keys_roundtrip_codec(
        instance in 0u32..=u32::MAX,
        task in 0u32..=u32::MAX,
        kind_bit: bool,
        item in 0u32..=u32::MAX,
        obj in 0u32..=u32::MAX,
    ) {
        let key = fact_key(instance, task, kind_bit, item, obj);
        let bytes = flowscript_codec::to_bytes(&key);
        prop_assert_eq!(flowscript_codec::from_bytes::<FactKey>(&bytes).unwrap(), key);

        for store in [StoreKey::from(key), StoreKey::from(FactKey::control(instance, task))] {
            let bytes = flowscript_codec::to_bytes(&store);
            prop_assert_eq!(flowscript_codec::from_bytes::<StoreKey>(&bytes).unwrap(), store);
        }
    }

    #[test]
    fn store_keys_roundtrip_codec_for_uids(name in "[a-z/]{0,24}") {
        let store = StoreKey::from(ObjectUid::new(name));
        let bytes = flowscript_codec::to_bytes(&store);
        prop_assert_eq!(flowscript_codec::from_bytes::<StoreKey>(&bytes).unwrap(), store);
    }

    #[test]
    fn ordering_keeps_instances_tasks_and_facts_contiguous(
        instance in 0u32..1000,
        task in 0u32..1000,
        kind_bit: bool,
        item in 0u32..1000,
        obj in 0u32..1000,
    ) {
        let key = fact_key(instance, task, kind_bit, item, obj);
        // Ordering matches the tuple order (instance, task, kind, item,
        // obj) — the contract every range bound below builds on.
        let tuple = |k: &FactKey| (k.instance, k.task, k.kind, k.item, k.obj);
        let other = fact_key(
            instance.wrapping_add(obj), task.wrapping_add(1), !kind_bit, item, obj / 2,
        );
        prop_assert_eq!(key.cmp(&other), tuple(&key).cmp(&tuple(&other)));
        // Within the fact's own sub-range.
        let base = key.with_obj(0);
        prop_assert!(base <= key);
        prop_assert!(key <= base.fact_last());
        // Within the task range.
        prop_assert!(FactKey::task_first(instance, task) <= key);
        prop_assert!(key <= FactKey::task_last(instance, task));
        // Within the instance range.
        prop_assert!(FactKey::instance_first(instance) <= key);
        prop_assert!(key <= FactKey::instance_last(instance));
        // The task's control block sorts past the task's every fact,
        // still inside the task's range.
        let block = FactKey::control(instance, task);
        prop_assert!(base.fact_last() < block);
        prop_assert!(block <= FactKey::task_last(instance, task));
        prop_assert!(block < FactKey::task_first(instance, task + 1));
        // Other instances' ranges exclude it.
        prop_assert!(key < FactKey::instance_first(instance + 1));
        // Inputs sort before outputs of the same (instance, task, item).
        prop_assert!(
            FactKey::input(instance, task, item) < FactKey::output(instance, task, item)
        );
        // Object sub-keys stay inside their fact: the next item's
        // presence key is past this fact's whole sub-range.
        prop_assert!(base.fact_last() < fact_key(instance, task, kind_bit, item + 1, 0));
        // Uids and facts never interleave.
        prop_assert!(StoreKey::from(ObjectUid::new("zzzz")) < StoreKey::from(key));
    }

    #[test]
    fn codec_preserves_ordering(
        a_task in 0u32..64, a_item in 0u32..64, a_obj in 0u32..8,
        b_task in 0u32..64, b_item in 0u32..64, b_obj in 0u32..8,
        kinds: (bool, bool),
    ) {
        // Decode(encode(x)) preserves comparisons — the WAL can replay
        // a checkpoint into the store's sorted runs without re-sorting
        // surprises.
        let a = fact_key(1, a_task, kinds.0, a_item, a_obj);
        let b = fact_key(1, b_task, kinds.1, b_item, b_obj);
        let a2 = flowscript_codec::from_bytes::<FactKey>(&flowscript_codec::to_bytes(&a)).unwrap();
        let b2 = flowscript_codec::from_bytes::<FactKey>(&flowscript_codec::to_bytes(&b)).unwrap();
        prop_assert_eq!(a.cmp(&b), a2.cmp(&b2));
        let _ = FactKind::Input; // re-exported and nameable
    }
}
