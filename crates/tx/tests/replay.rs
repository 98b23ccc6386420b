//! Replay equivalence: a manager reopening a log replays each record
//! from its frame, where it lies, and must end holding exactly what the
//! owned records [`Wal::scan`] reads, folded in log order, describe —
//! for random logs of commits (deleting keys, naming a key twice),
//! checkpoints and fences by this node and another, whole or with the
//! last frame torn at every byte. What replay refuses it refuses whole,
//! and cuts nothing.

use std::collections::BTreeMap;

use flowscript_codec::{frame, CodecError};
use flowscript_tx::{
    FactKey, FactKind, LogRecord, ObjectUid, SharedStorage, Storage, StoreKey, TxError, TxId,
    TxManager, Wal,
};
use proptest::prelude::*;

/// The node every manager here opens as; a fence by any other fences it.
const NODE: u32 = 3;

/// How many keys the logs write: 8 uids, then fact keys.
const KEYS: u8 = 8 + 24;

/// Key `k`: a uid below 8, named so that uids share prefixes of several
/// lengths (a multi-byte character's half included), else a fact key
/// over 3 instances, 2 tasks, the 3 kinds and an `obj` spelled inline or
/// as a varint.
fn key(k: u8) -> StoreKey {
    if k < 8 {
        let name = ["a", "ab", "é", "ê"][usize::from(k % 4)];
        let field = ["meta", "status"][usize::from(k / 4)];
        return StoreKey::Uid(ObjectUid::new(format!("inst/{name}/{field}")));
    }
    let k = u32::from(k - 8);
    let kind = [FactKind::Input, FactKind::Output, FactKind::Control][(k / 6 % 3) as usize];
    StoreKey::Fact(FactKey {
        instance: [0, 1, 7][(k % 3) as usize],
        task: k / 3 % 2,
        kind,
        item: 0,
        obj: [0, 9][(k / 18) as usize],
    })
}

/// Value `v`'s bytes: empty up to 45 long, so both sides of the store's
/// 22-byte inline bound come up.
fn value(v: u8) -> Vec<u8> {
    vec![v; usize::from(v % 46)]
}

/// A record of a generated log, by key and value index.
#[derive(Debug, Clone)]
enum Rec {
    /// A commit of sequence number `seq`: each key written or deleted,
    /// in list order, a key possibly named twice.
    Commit(u64, Vec<(u8, Option<u8>)>),
    /// A checkpoint of these states and this next sequence number.
    Checkpoint(Vec<(u8, u8)>, u64),
    /// A fence by this node (`true`) or another, at an epoch.
    Fence(bool, u64),
}

fn rec_strategy() -> impl Strategy<Value = Rec> {
    let image = (0..KEYS, proptest::option::of(any::<u8>()));
    prop_oneof![
        6 => (1u64..400, proptest::collection::vec(image, 1..14))
            .prop_map(|(seq, writes)| Rec::Commit(seq, writes)),
        1 => (proptest::collection::vec((0..KEYS, any::<u8>()), 0..20), 0u64..500)
            .prop_map(|(states, next_seq)| Rec::Checkpoint(states, next_seq)),
        1 => (any::<bool>(), 0u64..9).prop_map(|(own, epoch)| Rec::Fence(own, epoch)),
    ]
}

impl Rec {
    fn record(&self) -> LogRecord {
        match self {
            Rec::Commit(seq, writes) => LogRecord::Commit {
                tx: TxId::new(NODE, *seq),
                writes: writes
                    .iter()
                    .map(|&(k, v)| (key(k), v.map(value)))
                    .collect(),
            },
            // A checkpoint the manager writes lists each key once, in
            // key order.
            Rec::Checkpoint(states, next_seq) => {
                let states: BTreeMap<StoreKey, Vec<u8>> =
                    states.iter().map(|&(k, v)| (key(k), value(v))).collect();
                LogRecord::Checkpoint {
                    states: states.into_iter().collect(),
                    next_seq: *next_seq,
                }
            }
            Rec::Fence(own, epoch) => LogRecord::Fence {
                claimant: if *own { NODE } else { NODE + 1 },
                epoch: *epoch,
            },
        }
    }
}

/// What a reopened manager holds: its objects, the fence it observed
/// and its next sequence number.
#[derive(Debug, Default, PartialEq)]
struct Model {
    objects: BTreeMap<StoreKey, Vec<u8>>,
    fence: Option<(u32, u64)>,
    next_seq: u64,
}

/// `records`, owned as a scan reads them, folded in order: the last
/// image of a key wins, a deletion removes it, a checkpoint resets the
/// objects, and only another node's fence fences.
fn fold(records: &[LogRecord]) -> Model {
    let mut model = Model {
        next_seq: 1,
        ..Model::default()
    };
    for record in records {
        match record {
            LogRecord::Commit { tx, writes } => {
                model.next_seq = model.next_seq.max(tx.seq() + 1);
                for (key, image) in writes {
                    match image {
                        Some(bytes) => model.objects.insert(key.clone(), bytes.clone()),
                        None => model.objects.remove(key),
                    };
                }
            }
            LogRecord::Checkpoint { states, next_seq } => {
                model.next_seq = model.next_seq.max(*next_seq);
                model.objects = states.iter().cloned().collect();
            }
            LogRecord::Fence { claimant, epoch } => {
                if *claimant != NODE {
                    model.fence = Some((*claimant, *epoch));
                }
            }
            LogRecord::GroupCommit { .. } => panic!("no log here holds a group frame"),
        }
    }
    model
}

/// What `mgr` holds, read back through every committed read it offers.
fn held<S: Storage>(mgr: &TxManager<S>) -> Model {
    let mut objects = BTreeMap::new();
    for uid in mgr.uids_with_prefix("") {
        let key = StoreKey::Uid(uid);
        let bytes = mgr.read_committed_bytes(&key).expect("a listed uid reads");
        objects.insert(key.clone(), bytes.to_vec());
    }
    let all = (FactKey::instance_first(0), FactKey::instance_last(u32::MAX));
    for (fact, bytes) in mgr.facts_in_range(all.0, all.1) {
        objects.insert(StoreKey::Fact(fact), bytes);
    }
    assert_eq!(mgr.object_count(), objects.len(), "every object is listed");
    for k in 0..KEYS {
        let key = key(k);
        let read = mgr.read_committed_bytes(&key).map(<[u8]>::to_vec);
        assert_eq!(read.as_ref(), objects.get(&key), "{key}");
    }
    Model {
        objects,
        fence: mgr.fenced(),
        next_seq: mgr.next_seq(),
    }
}

/// A shared storage holding `bytes`.
fn storage_of(bytes: &[u8]) -> SharedStorage {
    let mut storage = SharedStorage::new();
    storage.append(bytes).unwrap();
    storage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_reopened_manager_holds_the_scanned_records_folded_in_order(
        recs in proptest::collection::vec(rec_strategy(), 1..16),
    ) {
        let stable = SharedStorage::new();
        let mut wal = Wal::new(stable.clone());
        let mut last = 0;
        for rec in &recs {
            last = wal.size_bytes() as usize;
            wal.append(&rec.record()).unwrap();
        }
        let log = stable.read_all().unwrap();
        let scanned = Wal::new(storage_of(&log)).scan().unwrap();
        prop_assert_eq!(scanned.len(), recs.len());

        let mgr = TxManager::open(NODE, storage_of(&log)).unwrap();
        prop_assert_eq!(held(&mgr), fold(&scanned));

        // The last frame torn at every byte (the first frame starts
        // behind the log's header): the records before it, and the torn
        // bytes cut off the storage.
        let start = last.max(HEADER);
        let before = fold(&scanned[..recs.len() - 1]);
        for cut in start..log.len() {
            let storage = storage_of(&log[..cut]);
            let mgr = TxManager::open(NODE, storage.clone()).unwrap();
            prop_assert_eq!(&held(&mgr), &before, "cut at {} of {}", cut, log.len());
            prop_assert_eq!(storage.len(), start as u64);
        }
    }
}

/// The length of the header a log opens with.
const HEADER: usize = 6;

/// A log of one commit, then a frame of `payload`, then the first bytes
/// of another commit's frame: replay must refuse the log with `error`,
/// and leave every byte of it, the torn one's included, in place.
fn refused(payload: &[u8], error: CodecError) {
    let commit = LogRecord::Commit {
        tx: TxId::new(NODE, 1),
        writes: vec![(key(0), Some(value(1))), (key(9), None)],
    };
    let stable = SharedStorage::new();
    Wal::new(stable.clone()).append(&commit).unwrap();
    let mut storage = stable.clone();
    storage
        .append(&frame::encode_frame(payload).unwrap())
        .unwrap();
    let torn = frame::encode_frame(&flowscript_codec::to_bytes(&commit)).unwrap();
    storage.append(&torn[..torn.len() - 1]).unwrap();
    let log = stable.read_all().unwrap();
    assert_eq!(
        TxManager::open(NODE, stable.clone()).err(),
        Some(TxError::Corrupt(error))
    );
    assert_eq!(stable.read_all().unwrap(), log, "nothing is cut");
}

#[test]
fn a_group_frame_is_refused() {
    let group = LogRecord::GroupCommit { records: vec![] };
    let tag = CodecError::InvalidDiscriminant {
        ty: "LogRecord",
        value: 4,
    };
    refused(&flowscript_codec::to_bytes(&group), tag);
}

#[test]
fn an_unknown_tag_is_refused() {
    for tag in [0u8, 1, 2, 3, 5, 6, 10, 11, 0xFF] {
        let error = CodecError::InvalidDiscriminant {
            ty: "LogRecord",
            value: u64::from(tag),
        };
        refused(&[tag, 0, 1, 0], error);
    }
}

#[test]
fn a_byte_past_the_record_is_refused() {
    let records = [
        LogRecord::Commit {
            tx: TxId::new(NODE, 2),
            writes: vec![(key(1), Some(value(30))), (key(1), None)],
        },
        LogRecord::Checkpoint {
            states: vec![(key(2), value(3)), (key(12), value(40))],
            next_seq: 9,
        },
        LogRecord::Fence {
            claimant: NODE + 1,
            epoch: 2,
        },
    ];
    for record in records {
        let mut payload = flowscript_codec::to_bytes(&record);
        payload.push(0);
        refused(&payload, CodecError::TrailingBytes { remaining: 1 });
    }
}
