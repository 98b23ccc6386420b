//! Torn writes and flipped bits at every frame boundary of a real log.
//!
//! The log is the paper population's on one shard, run as `golden.rs`
//! runs it. Every case reopens a damaged copy of it with
//! `TxManager::open`, the way a restarting shard does, and holds it to
//! what the whole frames before the damage replay to:
//!
//! - a **torn tail** — the log cut inside a frame's header, mid-payload
//!   or one byte short — reopens to exactly the store of the frames
//!   before the cut; one more commit and a second reopen keep that
//!   commit;
//! - a **flipped bit** in a frame's length, its checksum or its payload,
//!   or in the log's first six bytes, is refused with a typed
//!   `TxError::Corrupt` or reopens to the store of a whole-frame prefix:
//!   never a panic, never a record that was not written;
//! - a shard **restarted** over any whole-frame prefix, or over a tail
//!   torn one byte short of a frame's end, holds every running instance
//!   quiescent: each frame is a whole step, and every step ends
//!   quiescent — what a restart relies on when it re-evaluates nothing.
//!
//! The sweep finds frame boundaries by appending the scanned records to
//! a fresh log one at a time, so it reads any frame layout whose payload
//! ends its frame behind a 4 B checksum.

mod common;

use std::collections::BTreeMap;

use common::{assert_quiescent, build, build_orders_on, population, start_population};
use flowscript_engine::{EngineConfig, ObserveLevel};
use flowscript_tx::{
    LogRecord, ObjectUid, SharedStorage, Storage, StoreKey, TxError, TxManager, Wal,
};

type Store = BTreeMap<StoreKey, Vec<u8>>;

/// The paper population's log on one shard, under `golden.rs`'s config.
fn paper_log() -> Vec<u8> {
    let config = EngineConfig {
        observe: ObserveLevel::Trace,
        ..EngineConfig::default()
    };
    let mut sys = build(1, config);
    start_population(&mut sys, &population());
    sys.run();
    let storages = sys.shard_storages();
    storages[0].read_all().expect("in-memory log reads")
}

/// A log's frames: each one's `(start, end, payload length)`, and the
/// store the frames before each boundary replay to (`stores[i]` before
/// frame `i`, the last one after every frame).
struct Frames {
    spans: Vec<(usize, usize, usize)>,
    stores: Vec<Store>,
}

fn frames_of(log: &[u8]) -> Frames {
    let records = Wal::new(storage_of(log)).scan().expect("the log scans");
    let mut rebuilt = Wal::new(SharedStorage::new());
    let (mut spans, mut stores) = (Vec::new(), vec![Store::new()]);
    for record in &records {
        let start = rebuilt.size_bytes() as usize;
        rebuilt.append(record).expect("in-memory append");
        let payload = flowscript_codec::to_bytes(record).len();
        spans.push((start, rebuilt.size_bytes() as usize, payload));
        let mut store = stores.last().expect("one per boundary").clone();
        match record {
            LogRecord::Commit { writes, .. } => {
                for (key, value) in writes {
                    match value {
                        Some(bytes) => store.insert(key.clone(), bytes.clone()),
                        None => store.remove(key),
                    };
                }
            }
            LogRecord::Checkpoint { states, .. } => store = states.iter().cloned().collect(),
            LogRecord::GroupCommit { .. } | LogRecord::Fence { .. } => {}
        }
        stores.push(store);
    }
    let spans_end = spans.last().map_or(0, |&(_, end, _)| end);
    assert_eq!(spans_end, log.len(), "the records re-frame to the log");
    Frames { spans, stores }
}

fn storage_of(bytes: &[u8]) -> SharedStorage {
    let mut storage = SharedStorage::new();
    storage.append(bytes).expect("in-memory append");
    storage
}

/// Whether `mgr` holds exactly `store`.
fn holds(mgr: &TxManager, store: &Store) -> bool {
    mgr.object_count() == store.len()
        && store
            .iter()
            .all(|(key, value)| mgr.read_committed_bytes(key) == Some(value.as_slice()))
}

/// Reopens `bytes`; if that succeeds, returns the index of the boundary
/// whose store it holds, after checking that one more commit survives a
/// second reopen.
fn reopen(bytes: &[u8], frames: &Frames, case: &str) -> Result<usize, TxError> {
    let storage = storage_of(bytes);
    let mut mgr = TxManager::open(0, storage.clone())?;
    let at = (0..frames.stores.len())
        .find(|&at| holds(&mgr, &frames.stores[at]))
        .unwrap_or_else(|| panic!("{case}: the store is no whole-frame prefix"));
    let probe = StoreKey::Uid(ObjectUid::new("sweep/probe"));
    let action = mgr.begin();
    mgr.write_key_raw(&action, &probe, vec![7])
        .expect("the open action stages");
    mgr.commit(action)
        .unwrap_or_else(|err| panic!("{case}: the commit after recovery: {err}"));
    drop(mgr);
    let mgr = TxManager::open(0, storage)
        .unwrap_or_else(|err| panic!("{case}: the reopen after a commit: {err}"));
    let mut expected = frames.stores[at].clone();
    expected.insert(probe, vec![7]);
    assert!(holds(&mgr, &expected), "{case}: the second reopen");
    Ok(at)
}

#[test]
fn a_torn_tail_reopens_to_the_whole_frames_before_it() {
    let log = paper_log();
    let frames = frames_of(&log);
    assert_eq!(frames.spans.len(), 39);
    for (i, &(start, end, payload)) in frames.spans.iter().enumerate() {
        let body = end - payload;
        let mut cuts = vec![start + 1, body - 1, end - payload / 2, end - 1];
        cuts.dedup();
        for cut in cuts {
            let case = format!("frame {i} cut at {cut} of {start}..{end}");
            assert_eq!(reopen(&log[..cut], &frames, &case), Ok(i), "{case}");
        }
    }
}

#[test]
fn a_flipped_bit_is_refused_or_reads_as_a_whole_frame_prefix() {
    let log = paper_log();
    let frames = frames_of(&log);
    let flipped = |at: usize, bit: u32| {
        let mut bytes = log.clone();
        bytes[at] ^= 1 << bit;
        bytes
    };
    // The log's first six bytes name its format: any flip there is
    // refused.
    for at in 0..6 {
        let case = format!("log byte {at}");
        let result = reopen(&flipped(at, at as u32), &frames, &case);
        assert!(
            matches!(result, Err(TxError::Corrupt(_))),
            "{case}: {result:?}"
        );
    }
    for (i, &(_, end, payload)) in frames.spans.iter().enumerate() {
        let body = end - payload;
        // The checksum is the 4 B before the payload, and the length
        // ends where the checksum starts.
        let length = (0..8).map(|bit| (body - 5, bit));
        let checksum = (0..4).map(|at| (body - 4 + at, at as u32 * 2));
        let content = [(body, 0), (end - payload / 2, 5)];
        for (at, bit) in length {
            let case = format!("frame {i}: length bit {bit} of byte {at}");
            // A length flipped past the end of the log reads as a torn
            // tail: a reader cannot tell it from an interrupted append,
            // whatever the frame layout, so recovery keeps the frames
            // before it and cuts the rest off.
            match reopen(&flipped(at, bit), &frames, &case) {
                Ok(at) => assert_eq!(at, i, "{case}: the frames before the flip"),
                Err(err) => assert!(matches!(err, TxError::Corrupt(_)), "{case}: {err}"),
            }
        }
        for (at, bit) in checksum.chain(content) {
            let case = format!("frame {i}: bit {bit} of byte {at}");
            let result = reopen(&flipped(at, bit), &frames, &case);
            assert!(
                matches!(result, Err(TxError::Corrupt(_))),
                "{case}: {result:?}"
            );
        }
    }
}

#[test]
fn a_restart_over_any_whole_frame_prefix_finds_nothing_to_do() {
    let log = paper_log();
    let frames = frames_of(&log);
    let mut running = 0;
    for (i, &(_, end, _)) in frames.spans.iter().enumerate() {
        for (cut, what) in [(end, "whole"), (end - 1, "torn")] {
            let storage = storage_of(&log[..cut]).into();
            let mut sys = build_orders_on(1, EngineConfig::default(), vec![storage]);
            assert_quiescent(&mut sys, &format!("frame {i}, {what}: the restart"));
            let live = |name: &String| sys.status(name).is_ok_and(|s| !s.is_terminal());
            running += population().iter().filter(|name| live(name)).count();
        }
    }
    assert!(running > 0, "no prefix held a running instance");
}
