//! The redo-only write-ahead log.
//!
//! Uncommitted data never reaches the object store (no-steal), so the log
//! only needs *redo* information: the after-images of committed writes.
//! Recovery replays commits in order, starting from the newest checkpoint;
//! a fence tells a shard another node claimed its storage.
//!
//! # Layout
//!
//! A log opens with a 6 B header, its magic `FSRC` and its format
//! version (a `u16`, little-endian), written with the first append to
//! an empty storage. Then come the records, one [`frame`] each: a
//! varint length, a CRC-32 over the length and the payload, and the
//! payload, the record's encoding.
//!
//! ```text
//! +------+---------+-------+-------+-----
//! | FSRC | version | frame | frame | ...
//! | 4 B  | u16 = 2 |       |       |
//! +------+---------+-------+-------+-----
//! ```
//!
//! Version 1 repeated magic and version in every frame's 14 B header;
//! a version-1 log is refused with [`CodecError::UnsupportedVersion`],
//! never misread. A strict prefix of the header is an empty log: an
//! append torn in the log's first write.
//!
//! # After-image lists
//!
//! A commit's writes and a checkpoint's states share one encoding: a varint count, then one entry per image
//! in list order. Each entry's key is written relative to the key
//! before it in the same list — the shared-prefix key coding of
//! LevelDB's table blocks, scoped to one record — so a run of writes to
//! one task spells its instance and task once. An entry opens with a
//! header byte:
//!
//! | header bits | holds |
//! |---|---|
//! | 0–1 | the key's form: `0` a uid; `1` a fact key of a new instance (instance and task varints follow); `2` a fact key of the previous fact key's instance, on a new task (a task varint follows); `3` a fact key of the previous fact key's instance and task |
//! | 2–3 | a fact key's [`FactKind`] code (`0` input, `1` output, `2` control block); `0` for a uid |
//! | 4–6 | a fact key's `obj` when it is `0`–`6`; `7`: an `obj` varint follows the item; `0` for a uid |
//! | 7 | a tombstone: the image deletes its key (refused in a checkpoint) |
//!
//! What follows the header:
//!
//! | form | key bytes |
//! |---|---|
//! | `0` uid | the length it shares with the list's previous uid (varint), then the rest of it, length-prefixed |
//! | `1` | instance, task, item (varints), then `obj` if bit 4–6 say `7` |
//! | `2` | task, item, then `obj` if `7` |
//! | `3` | item, then `obj` if `7` |
//!
//! and then, unless the entry is a tombstone, the value, length-prefixed.
//! A list's first fact key is form `1` and its first uid shares
//! nothing, so every record decodes on its own. A key a form cannot
//! reach — form `2` or `3` with no fact key before it, a uid sharing
//! more than the previous uid holds, a kind code of `3` — is a typed
//! [`CodecError`], never a guess.
//!
//! # Replay
//!
//! A reopened log is read in one pass over its frames (`Wal::replay`):
//! each whole frame's payload is handed on where it lies, in the one
//! copy the storage reads, and the manager applies its record as it
//! reads it (`replay_record`). A commit's after-images decode straight
//! into the store's own form, and a checkpoint's build the store afresh,
//! so no record is held whole and a short image costs no allocation.
//! Replay refuses what [`LogRecord`]'s decoder refuses, and a group
//! frame; a torn final frame is cut off only once every frame before it
//! replayed. [`Wal::scan`] is the reader that owns its records, for
//! tools and tests; a fence probe reads only each record's tag.

use flowscript_codec::{frame, ByteReader, ByteWriter, CodecError, Decode, Encode, FrameReader};

use crate::error::TxError;
use crate::id::{ObjectUid, TxId};
use crate::key::{FactKey, FactKind, StoreKey};
use crate::storage::Storage;

/// One durable log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A top-level transaction committed with these after-images
    /// (`None` payload = object deleted).
    Commit {
        /// The committing transaction.
        tx: TxId,
        /// After-images: key → new bytes or deletion.
        writes: Vec<(StoreKey, Option<Vec<u8>>)>,
    },
    /// Full store snapshot; earlier records are obsolete.
    Checkpoint {
        /// Every live object and its committed bytes.
        states: Vec<(StoreKey, Vec<u8>)>,
        /// The writer's next transaction sequence number: ids minted
        /// before the snapshot left no record behind, and a replay must
        /// not mint them again.
        next_seq: u64,
    },
    /// Several records made durable as one frame. Nothing writes one
    /// and replay refuses one: the variant and its codec are kept only
    /// because the perf ledger names them (its log-shape probe), and go
    /// when it stops.
    GroupCommit {
        /// The grouped records, in log order.
        records: Vec<LogRecord>,
    },
    /// Another node claimed this storage (crash-driven failover): the
    /// claimant is about to adopt every instance recorded here. From
    /// this record on, any manager whose node is *not* the claimant is
    /// fenced — a zombie owner waking mid-adoption replays (or trips
    /// over) the fence and can never commit again, so it cannot
    /// double-drive the adopted instances.
    Fence {
        /// Node index of the claiming survivor.
        claimant: u32,
        /// Membership epoch the claim ran under (the post-failure
        /// shard map's bumped epoch — stale claims are diagnosable).
        epoch: u64,
    },
}

/// Header form: a uid key.
const FORM_UID: u8 = 0;
/// Header form: a fact key of an instance other than the previous fact
/// key's (or the list's first fact key).
const FORM_INSTANCE: u8 = 1;
/// Header form: the previous fact key's instance, another task.
const FORM_TASK: u8 = 2;
/// Header form: the previous fact key's instance and task.
const FORM_SAME: u8 = 3;
/// Inline `obj` value meaning "an `obj` varint follows".
const OBJ_VARINT: u8 = 7;
/// Header bit: the image deletes its key.
const TOMBSTONE: u8 = 0x80;

/// What an after-image list holds against each key: a commit's new
/// bytes or deletion, a checkpoint's live bytes.
pub(crate) trait Image {
    /// The image's bytes; `None` deletes the key.
    fn bytes(&self) -> Option<&[u8]>;

    /// The image of `bytes` (`None` only in a list that may delete).
    fn from_bytes(bytes: Option<&[u8]>) -> Self;
}

impl Image for Option<Vec<u8>> {
    fn bytes(&self) -> Option<&[u8]> {
        self.as_deref()
    }

    fn from_bytes(bytes: Option<&[u8]>) -> Self {
        bytes.map(<[u8]>::to_vec)
    }
}

impl Image for Vec<u8> {
    fn bytes(&self) -> Option<&[u8]> {
        Some(self)
    }

    fn from_bytes(bytes: Option<&[u8]>) -> Self {
        bytes.unwrap_or_default().to_vec()
    }
}

/// Writes one after-image list, each key relative to the one before it
/// (the layout is in the module doc).
fn encode_images<V: Image>(w: &mut ByteWriter, images: &[(StoreKey, V)]) {
    w.put_len(images.len());
    let mut prev_fact: Option<FactKey> = None;
    let mut prev_uid = "";
    for (key, image) in images {
        let value = image.bytes();
        let tombstone = if value.is_none() { TOMBSTONE } else { 0 };
        match key {
            StoreKey::Uid(uid) => {
                let uid = uid.as_str();
                let shared = prev_uid
                    .bytes()
                    .zip(uid.bytes())
                    .take_while(|(a, b)| a == b)
                    .count();
                w.put_u8(FORM_UID | tombstone);
                w.put_len(shared);
                w.put_len_prefixed(&uid.as_bytes()[shared..]);
                prev_uid = uid;
            }
            StoreKey::Fact(fact) => {
                let form = match prev_fact {
                    Some(prev) if prev.instance == fact.instance && prev.task == fact.task => {
                        FORM_SAME
                    }
                    Some(prev) if prev.instance == fact.instance => FORM_TASK,
                    _ => FORM_INSTANCE,
                };
                let obj = fact.obj.min(u32::from(OBJ_VARINT)) as u8;
                w.put_u8(form | (fact.kind.code() << 2) | (obj << 4) | tombstone);
                if form == FORM_INSTANCE {
                    w.put_var_u64(u64::from(fact.instance));
                }
                if form != FORM_SAME {
                    w.put_var_u64(u64::from(fact.task));
                }
                w.put_var_u64(u64::from(fact.item));
                if obj == OBJ_VARINT {
                    w.put_var_u64(u64::from(fact.obj));
                }
                prev_fact = Some(*fact);
            }
        }
        if let Some(value) = value {
            w.put_len_prefixed(value);
        }
    }
}

/// Reads one after-image list written by [`encode_images`] onto the end
/// of `images`, each image made from its bytes where they lie; a
/// tombstone is refused unless the list may `delete`.
fn decode_images<V: Image>(
    r: &mut ByteReader<'_>,
    delete: bool,
    images: &mut Vec<(StoreKey, V)>,
) -> Result<(), CodecError> {
    let len = r.get_len()?;
    // Every entry takes at least a byte: a corrupt count cannot reserve
    // more than the input could hold.
    images.reserve(len.min(r.remaining()));
    let mut prev_fact: Option<FactKey> = None;
    // Where the list's previous uid lies in `images`: a uid is spelled
    // from it, with no buffer of its own.
    let mut prev_uid: Option<usize> = None;
    for _ in 0..len {
        let header = r.get_u8()?;
        if header & TOMBSTONE != 0 && !delete {
            return Err(CodecError::InvalidDiscriminant {
                ty: "checkpoint image (a tombstone)",
                value: u64::from(header),
            });
        }
        let key = match header & 0b11 {
            FORM_UID => {
                if (header & !TOMBSTONE) != FORM_UID {
                    return Err(CodecError::InvalidDiscriminant {
                        ty: "uid image header",
                        value: u64::from(header),
                    });
                }
                let prev = match prev_uid.map(|at| &images[at].0) {
                    Some(StoreKey::Uid(uid)) => uid.as_str().as_bytes(),
                    _ => &[],
                };
                let shared = r.get_len()?;
                if shared > prev.len() {
                    return Err(CodecError::LengthOverflow {
                        length: shared as u64,
                        max: prev.len() as u64,
                    });
                }
                let rest = r.get_len_prefixed()?;
                let mut uid = Vec::with_capacity(shared + rest.len());
                uid.extend_from_slice(&prev[..shared]);
                uid.extend_from_slice(rest);
                let uid = String::from_utf8(uid).map_err(|_| CodecError::InvalidUtf8)?;
                prev_uid = Some(images.len());
                StoreKey::Uid(ObjectUid::new(uid))
            }
            form => {
                let (instance, task) = match (form, prev_fact) {
                    (FORM_INSTANCE, _) => (get_u32(r)?, get_u32(r)?),
                    (FORM_TASK, Some(prev)) => (prev.instance, get_u32(r)?),
                    (_, Some(prev)) => (prev.instance, prev.task),
                    (_, None) => {
                        return Err(CodecError::InvalidDiscriminant {
                            ty: "fact image form (no fact key before it)",
                            value: u64::from(form),
                        })
                    }
                };
                let kind = FactKind::from_code((header >> 2) & 0b11)?;
                let item = get_u32(r)?;
                let obj = match (header >> 4) & 0b111 {
                    OBJ_VARINT => get_u32(r)?,
                    inline => u32::from(inline),
                };
                let fact = FactKey {
                    instance,
                    task,
                    kind,
                    item,
                    obj,
                };
                prev_fact = Some(fact);
                StoreKey::Fact(fact)
            }
        };
        let value = if header & TOMBSTONE == 0 {
            Some(r.get_len_prefixed()?)
        } else {
            None
        };
        images.push((key, V::from_bytes(value)));
    }
    Ok(())
}

/// An owned after-image list ([`decode_images`]).
fn images<V: Image>(
    r: &mut ByteReader<'_>,
    delete: bool,
) -> Result<Vec<(StoreKey, V)>, CodecError> {
    let mut images = Vec::new();
    decode_images(r, delete, &mut images)?;
    Ok(images)
}

/// A varint that must fit a `u32` (a key's ids and ordinals).
fn get_u32(r: &mut ByteReader<'_>) -> Result<u32, CodecError> {
    u32::try_from(r.get_var_u64()?).map_err(|_| CodecError::VarintOverflow)
}

// Record tags. `0`, `1` and `2` (commit, checkpoint and a 2PC prepare
// with every key spelled whole), `3` and `10` (the 2PC resolve and
// prepare) and `5` and `6` are retired: a log holding them is refused,
// never misread.
const TAG_GROUP_COMMIT: u8 = 4;
const TAG_FENCE: u8 = 7;
const TAG_COMMIT: u8 = 8;
const TAG_CHECKPOINT: u8 = 9;

/// Writes the [`LogRecord::Commit`] of `tx` with the after-images
/// `writes`, wherever they lie: a manager writes its open action's
/// straight from its workspace.
pub(crate) fn put_commit<V: Image>(w: &mut ByteWriter, tx: TxId, writes: &[(StoreKey, V)]) {
    w.put_u8(TAG_COMMIT);
    tx.encode(w);
    encode_images(w, writes);
}

impl Encode for LogRecord {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            LogRecord::Commit { tx, writes } => put_commit(w, *tx, writes),
            LogRecord::Checkpoint { states, next_seq } => {
                w.put_u8(TAG_CHECKPOINT);
                encode_images(w, states);
                w.put_var_u64(*next_seq);
            }
            LogRecord::GroupCommit { records } => {
                w.put_u8(TAG_GROUP_COMMIT);
                records.encode(w);
            }
            LogRecord::Fence { claimant, epoch } => {
                w.put_u8(TAG_FENCE);
                w.put_u32(*claimant);
                w.put_u64(*epoch);
            }
        }
    }
}

impl Decode for LogRecord {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            TAG_COMMIT => Ok(LogRecord::Commit {
                tx: TxId::decode(r)?,
                writes: images(r, true)?,
            }),
            TAG_CHECKPOINT => Ok(LogRecord::Checkpoint {
                states: images(r, false)?,
                next_seq: r.get_var_u64()?,
            }),
            TAG_GROUP_COMMIT => Ok(LogRecord::GroupCommit {
                records: Vec::decode(r)?,
            }),
            TAG_FENCE => Ok(LogRecord::Fence {
                claimant: r.get_u32()?,
                epoch: r.get_u64()?,
            }),
            other => Err(CodecError::InvalidDiscriminant {
                ty: "LogRecord",
                value: u64::from(other),
            }),
        }
    }
}

/// What replay needs of a record beyond its after-images
/// ([`replay_record`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Replayed {
    /// A [`LogRecord::Commit`] by this transaction.
    Commit(TxId),
    /// A [`LogRecord::Checkpoint`] carrying the writer's next sequence
    /// number.
    Checkpoint(u64),
    /// A [`LogRecord::Fence`]: `(claimant, epoch)`.
    Fence(u32, u64),
}

/// Reads the record `payload` holds as replay applies it, where it lies:
/// a commit's or a checkpoint's after-images go onto the end of
/// `images`, each made from its bytes in the frame, and the rest of the
/// record is returned. No owned [`LogRecord`] is built. A group frame
/// (tag 4) is refused, as is any tag [`LogRecord`] does not decode and
/// any byte past the record.
///
/// # Errors
///
/// A typed [`CodecError`], as [`LogRecord`]'s [`Decode`] gives it.
pub(crate) fn replay_record<V: Image>(
    payload: &[u8],
    images: &mut Vec<(StoreKey, V)>,
) -> Result<Replayed, CodecError> {
    let mut r = ByteReader::new(payload);
    let record = match r.get_u8()? {
        TAG_COMMIT => {
            let tx = TxId::decode(&mut r)?;
            decode_images(&mut r, true, images)?;
            Replayed::Commit(tx)
        }
        TAG_CHECKPOINT => {
            decode_images(&mut r, false, images)?;
            Replayed::Checkpoint(r.get_var_u64()?)
        }
        TAG_FENCE => Replayed::Fence(r.get_u32()?, r.get_u64()?),
        other => {
            return Err(CodecError::InvalidDiscriminant {
                ty: "LogRecord",
                value: u64::from(other),
            })
        }
    };
    match r.remaining() {
        0 => Ok(record),
        remaining => Err(CodecError::TrailingBytes { remaining }),
    }
}

/// The `(claimant, epoch)` of the [`LogRecord::Fence`] `payload` holds,
/// if it holds one: only its tag is read of any other record.
///
/// # Errors
///
/// A fence that does not decode.
pub(crate) fn fence_of(payload: &[u8]) -> Result<Option<(u32, u64)>, CodecError> {
    if payload.first() != Some(&TAG_FENCE) {
        return Ok(None);
    }
    let mut no_images: Vec<(StoreKey, Option<Vec<u8>>)> = Vec::new();
    Ok(match replay_record(payload, &mut no_images)? {
        Replayed::Fence(claimant, epoch) => Some((claimant, epoch)),
        _ => None,
    })
}

/// What opens every log: the magic `FSRC`, then the format version, a
/// `u16` (little-endian). This is version 2; version 1 framed every
/// record with a magic and version of its own.
const LOG_HEADER: [u8; 6] = *b"FSRC\x02\x00";

/// Whether `log` opens with a whole header: `false` for a log holding
/// a strict prefix of one (none at all included), which is empty.
fn has_header(log: &[u8]) -> Result<bool, CodecError> {
    let head = &log[..log.len().min(LOG_HEADER.len())];
    if LOG_HEADER.starts_with(head) {
        return Ok(head.len() == LOG_HEADER.len());
    }
    let mut magic = [0u8; 4];
    let n = head.len().min(4);
    magic[..n].copy_from_slice(&head[..n]);
    if magic[..] != LOG_HEADER[..4] {
        return Err(CodecError::BadMagic(magic));
    }
    // The magic is whole, so at least one version byte differs.
    let mut version = [0u8; 2];
    version[..head.len() - 4].copy_from_slice(&head[4..]);
    Err(CodecError::UnsupportedVersion(u16::from_le_bytes(version)))
}

/// The write-ahead log over some [`Storage`]: a 6 B header naming the
/// format, then one frame per record (the layout is in the module doc).
#[derive(Debug)]
pub struct Wal<S> {
    storage: S,
    /// The frame under construction, reused across appends.
    frame: ByteWriter,
}

impl<S: Storage> Wal<S> {
    /// Wraps existing storage (whose contents, if any, will be read by
    /// [`Wal::scan`], or by a manager's replay).
    pub fn new(storage: S) -> Self {
        Self {
            storage,
            frame: ByteWriter::new(),
        }
    }

    /// Appends one record durably; the first append to an empty
    /// storage writes the log header with it, in the same storage
    /// append. The storage holds a whole header or nothing, as
    /// replay leaves it.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn append(&mut self, record: &LogRecord) -> Result<(), TxError> {
        self.append_with(|w| record.encode(w))
    }

    /// [`Wal::append`] of the record `write` writes.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub(crate) fn append_with(
        &mut self,
        write: impl FnOnce(&mut ByteWriter),
    ) -> Result<(), TxError> {
        // Framed in place, in the reused frame buffer: the storage gets
        // that one slice.
        self.frame.clear();
        if self.storage.is_empty() {
            self.frame.put_bytes(&LOG_HEADER);
        }
        frame::encode_frame_with(&mut self.frame, write)?;
        self.storage.append(self.frame.as_slice())
    }

    /// Reads every decodable record. A torn final frame is dropped
    /// (interrupted append), and so is a torn header; corruption
    /// elsewhere is an error.
    ///
    /// # Errors
    ///
    /// [`TxError::Corrupt`] on a foreign magic or version, or on a
    /// checksum/decode failure mid-log; [`TxError::Storage`] on I/O
    /// failure.
    pub fn scan(&self) -> Result<Vec<LogRecord>, TxError> {
        let mut records = Vec::new();
        self.walk_from(0, |payload| {
            records.push(flowscript_codec::from_bytes(payload)?);
            Ok(())
        })?;
        Ok(records)
    }

    /// Hands each whole frame's payload to `visit`, in log order and
    /// where it lies, then cuts a torn final frame off the storage, so
    /// the next append lands on a frame boundary. Recovery reads the log
    /// this way: a torn frame left in place would have its length run
    /// into the next frame appended behind it, and the reopen after that
    /// would find the log corrupt. Nothing is cut unless every frame
    /// was visited.
    ///
    /// # Errors
    ///
    /// As for [`Wal::scan`], and whatever `visit` returns.
    pub(crate) fn replay(
        &mut self,
        visit: impl FnMut(&[u8]) -> Result<(), TxError>,
    ) -> Result<(), TxError> {
        let end = self.walk_from(0, visit)?;
        if end < self.storage.len() {
            self.storage.truncate(end)?;
        }
        Ok(())
    }

    /// Hands `visit` the payload of each whole frame at or after byte
    /// `offset` (a frame boundary: `0` for the first frame, or a length
    /// a writer observed after one of its own appends), in log order
    /// and where it lies, and returns the byte offset where the last of
    /// them ends. The header is checked all the same; a torn header or
    /// a torn final frame is no frame. One walk serves a scan, a replay
    /// and the fence probe of a tail another handle grew.
    ///
    /// # Errors
    ///
    /// As for [`Wal::replay`].
    pub(crate) fn walk_from(
        &self,
        offset: u64,
        mut visit: impl FnMut(&[u8]) -> Result<(), TxError>,
    ) -> Result<u64, TxError> {
        let bytes = self.storage.read_all()?;
        if !has_header(&bytes)? {
            return Ok(0);
        }
        let offset = LOG_HEADER.len().max(offset as usize);
        if offset >= bytes.len() {
            return Ok(bytes.len() as u64);
        }
        let mut frames = FrameReader::new(&bytes[offset..]);
        while let Some(payload) = frames.read_whole_frame()? {
            visit(payload)?;
        }
        Ok((offset + frames.position()) as u64)
    }

    /// Replaces the entire log with a checkpoint of `states` and the
    /// writer's `next_seq` (log compaction): the checkpoint is appended
    /// behind the old log, and then again to a log truncated to zero,
    /// which writes the header afresh. **Not crash-atomic**: a crash
    /// after the truncation and before the final append loses the log.
    /// The fix needs a crash-point injector to prove it (ROADMAP item 2).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn rewrite_with_checkpoint(
        &mut self,
        states: Vec<(StoreKey, Vec<u8>)>,
        next_seq: u64,
    ) -> Result<(), TxError> {
        let checkpoint = LogRecord::Checkpoint { states, next_seq };
        self.append(&checkpoint)?;
        self.storage.truncate(0)?;
        self.append(&checkpoint)
    }

    /// Current log size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.storage.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn uid(s: &str) -> StoreKey {
        StoreKey::Uid(ObjectUid::new(s))
    }

    fn sample_commit(seq: u64) -> LogRecord {
        LogRecord::Commit {
            tx: TxId::new(0, seq),
            writes: vec![(uid("a"), Some(vec![1, 2, 3])), (uid("b"), None)],
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let mut wal = Wal::new(MemStorage::new());
        wal.append(&sample_commit(1)).unwrap();
        wal.append(&LogRecord::Fence {
            claimant: 1,
            epoch: 2,
        })
        .unwrap();
        let records = wal.scan().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], sample_commit(1));
    }

    #[test]
    fn torn_tail_dropped_cleanly() {
        let mut wal = Wal::new(MemStorage::new());
        wal.append(&sample_commit(1)).unwrap();
        wal.append(&sample_commit(2)).unwrap();
        let mut storage = wal.storage;
        let len = storage.len();
        storage.truncate(len - 3).unwrap();
        let wal = Wal::new(storage);
        let records = wal.scan().unwrap();
        assert_eq!(records.len(), 1, "only the intact record survives");
    }

    #[test]
    fn corruption_mid_log_is_an_error() {
        let mut wal = Wal::new(MemStorage::new());
        wal.append(&sample_commit(1)).unwrap();
        wal.append(&sample_commit(2)).unwrap();
        let storage = wal.storage;
        let mut bytes = storage.read_all().unwrap();
        // Flip a payload byte inside the first frame (offset past header).
        bytes[20] ^= 0xFF;
        let mut corrupted = MemStorage::new();
        corrupted.append(&bytes).unwrap();
        let wal = Wal::new(corrupted);
        assert!(matches!(wal.scan(), Err(TxError::Corrupt(_))));
    }

    /// Replays `wal`, collecting its records as a scan reads them.
    fn recover(wal: &mut Wal<MemStorage>) -> Result<Vec<LogRecord>, TxError> {
        let mut records = Vec::new();
        wal.replay(|payload| {
            records.push(flowscript_codec::from_bytes(payload)?);
            Ok(())
        })?;
        Ok(records)
    }

    fn log_of(bytes: &[u8]) -> Wal<MemStorage> {
        let mut storage = MemStorage::new();
        storage.append(bytes).unwrap();
        Wal::new(storage)
    }

    #[test]
    fn the_header_is_written_once_with_the_first_append() {
        let mut wal = Wal::new(MemStorage::new());
        wal.append(&sample_commit(1)).unwrap();
        wal.append(&sample_commit(2)).unwrap();
        let frames = [sample_commit(1), sample_commit(2)]
            .map(|record| frame::encode_frame(&flowscript_codec::to_bytes(&record)).unwrap());
        assert_eq!(
            wal.storage.read_all().unwrap(),
            [&b"FSRC\x02\x00"[..], &frames[0], &frames[1]].concat()
        );
    }

    #[test]
    fn bad_magic_detected() {
        let mut foreign = b"FSRX\x02\x00".to_vec();
        foreign.extend(frame::encode_frame(b"x").unwrap());
        let bad = |magic| Err(TxError::Corrupt(CodecError::BadMagic(magic)));
        assert_eq!(log_of(&foreign).scan(), bad(*b"FSRX"));
        // Shorter than a header and no prefix of one: not a torn header.
        assert_eq!(log_of(b"XY").scan(), bad(*b"XY\0\0"));
    }

    /// Version 1 framed every record as magic, version, a `u32` length,
    /// a CRC-32 of the payload, and the payload: its log opens with its
    /// first frame, which reads as a log header of version 1.
    #[test]
    fn version_mismatch_detected() {
        let payload = flowscript_codec::to_bytes(&sample_commit(1));
        let mut v1 = b"FSRC\x01\x00".to_vec();
        v1.extend((payload.len() as u32).to_le_bytes());
        v1.extend(flowscript_codec::crc32(&payload).to_le_bytes());
        v1.extend(&payload);
        let unsupported = Err(TxError::Corrupt(CodecError::UnsupportedVersion(1)));
        assert_eq!(log_of(&v1).scan(), unsupported);
        // Recovery refuses it too, and leaves it as it was.
        let mut wal = log_of(&v1);
        assert_eq!(recover(&mut wal), unsupported);
        assert_eq!(wal.storage.read_all().unwrap(), v1);
    }

    #[test]
    fn a_torn_header_is_an_empty_log_and_the_next_append_writes_a_whole_one() {
        let mut whole = Wal::new(MemStorage::new());
        whole.append(&sample_commit(1)).unwrap();
        let whole = whole.storage.read_all().unwrap();
        for cut in 1..LOG_HEADER.len() {
            let mut wal = log_of(&whole[..cut]);
            assert_eq!(wal.scan(), Ok(vec![]), "cut at {cut}");
            assert_eq!(recover(&mut wal), Ok(vec![]), "cut at {cut}");
            assert!(wal.storage.is_empty(), "cut at {cut}: the torn header goes");
            wal.append(&sample_commit(1)).unwrap();
            assert_eq!(wal.storage.read_all().unwrap(), whole, "cut at {cut}");
        }
        // A whole header with no frame behind it is kept as it is.
        let mut wal = log_of(&LOG_HEADER);
        assert_eq!(recover(&mut wal), Ok(vec![]));
        wal.append(&sample_commit(1)).unwrap();
        assert_eq!(wal.storage.read_all().unwrap(), whole);
    }

    #[test]
    fn a_checkpoint_of_an_empty_log_writes_one_header() {
        let mut wal = Wal::new(MemStorage::new());
        wal.rewrite_with_checkpoint(vec![(uid("a"), vec![9])], 4)
            .unwrap();
        let checkpoint = LogRecord::Checkpoint {
            states: vec![(uid("a"), vec![9])],
            next_seq: 4,
        };
        let frame = frame::encode_frame(&flowscript_codec::to_bytes(&checkpoint)).unwrap();
        assert_eq!(
            wal.storage.read_all().unwrap(),
            [&LOG_HEADER[..], &frame].concat()
        );
        assert_eq!(wal.scan(), Ok(vec![checkpoint]));
    }

    #[test]
    fn checkpoint_rewrite_compacts() {
        let mut wal = Wal::new(MemStorage::new());
        for seq in 0..50 {
            wal.append(&sample_commit(seq)).unwrap();
        }
        let big = wal.size_bytes();
        wal.rewrite_with_checkpoint(vec![(uid("a"), vec![9])], 50)
            .unwrap();
        assert!(wal.size_bytes() < big);
        let records = wal.scan().unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            records[0],
            LogRecord::Checkpoint { next_seq: 50, .. }
        ));
    }

    #[test]
    fn all_record_kinds_roundtrip() {
        let records = vec![
            sample_commit(3),
            LogRecord::Checkpoint {
                states: vec![(uid("s"), vec![1])],
                next_seq: 300,
            },
            LogRecord::GroupCommit {
                records: vec![sample_commit(5), sample_commit(6)],
            },
            LogRecord::Fence {
                claimant: 4,
                epoch: 9,
            },
        ];
        for record in &records {
            let bytes = flowscript_codec::to_bytes(record);
            assert_eq!(
                &flowscript_codec::from_bytes::<LogRecord>(&bytes).unwrap(),
                record
            );
            // The frame `append` builds in place is the frame the
            // copying encoder makes of the same payload, behind the
            // log header the first append writes.
            let mut wal = Wal::new(MemStorage::new());
            wal.append(record).unwrap();
            assert_eq!(
                wal.storage.read_all().unwrap(),
                [&LOG_HEADER[..], &frame::encode_frame(&bytes).unwrap()].concat()
            );
        }
        // Retired tags are refused typed, never misread.
        for tag in [0u8, 1, 2, 3, 5, 6, 10] {
            assert!(matches!(
                flowscript_codec::from_bytes::<LogRecord>(&[tag]),
                Err(CodecError::InvalidDiscriminant { .. })
            ));
        }
    }

    fn fact(key: FactKey) -> StoreKey {
        StoreKey::Fact(key)
    }

    /// An after-image list reaching every key form: a run of one task's
    /// facts (its presence, an object, its block), another task of the
    /// same instance with an `obj` past the inline range, two uids
    /// sharing `inst/a/`, another instance with a two-byte id, and two
    /// deletions.
    fn golden_writes() -> Vec<(StoreKey, Option<Vec<u8>>)> {
        vec![
            (fact(FactKey::output(3, 1, 0)), Some(vec![])),
            (fact(FactKey::output(3, 1, 0).object(0)), Some(vec![0xAA])),
            (fact(FactKey::control(3, 1)), Some(vec![0x03])),
            (fact(FactKey::input(3, 2, 1).with_obj(9)), None),
            (uid("inst/a/meta"), Some(vec![1])),
            (uid("inst/a/status"), Some(vec![2])),
            (fact(FactKey::control(300, 0)), None),
        ]
    }

    fn golden_commit() -> LogRecord {
        LogRecord::Commit {
            tx: TxId::new(0, 7),
            writes: golden_writes(),
        }
    }

    /// [`golden_commit`]'s payload, entry by entry.
    const GOLDEN_COMMIT: &[u8] = b"\x08\x00\x07\x07\
        \x05\x03\x01\x00\x00\
        \x17\x00\x01\xAA\
        \x0B\x00\x01\x03\
        \xF2\x02\x01\x09\
        \x00\x00\x0Binst/a/meta\x01\x01\
        \x00\x07\x06status\x01\x02\
        \x89\xAC\x02\x00\x00";

    fn golden_checkpoint() -> LogRecord {
        let states = golden_writes()
            .into_iter()
            .filter_map(|(key, value)| Some((key, value?)))
            .collect();
        LogRecord::Checkpoint {
            states,
            next_seq: 300,
        }
    }

    /// What the layout before delta coding (tag 0, every key spelled
    /// whole behind its `StoreKey` tag, every value behind an `Option`
    /// tag) wrote for a commit of `tx0.5` setting `fact/1/2/ctl/0/0` to
    /// `[0x21]` and `fact/1/2/out/0/0` to `[]` and deleting
    /// `inst/a/status`.
    const WHOLE_KEY_COMMIT: &[u8] = b"\x00\x00\x05\x03\
        \x01\x01\x02\x02\x00\x00\x01\x01\x21\
        \x01\x01\x02\x01\x00\x00\x01\x00\
        \x00\x0Dinst/a/status\x00";

    fn decode(bytes: &[u8]) -> Result<LogRecord, CodecError> {
        flowscript_codec::from_bytes::<LogRecord>(bytes)
    }

    #[test]
    fn the_golden_commit_is_pinned_and_every_list_roundtrips() {
        assert_eq!(flowscript_codec::to_bytes(&golden_commit()), GOLDEN_COMMIT);
        // Whole keys and `Option` tags (tag, tx, list) took half again.
        let whole_keys = 1 + flowscript_codec::to_bytes(&(TxId::new(0, 7), golden_writes())).len();
        assert_eq!((GOLDEN_COMMIT.len(), whole_keys), (53, 79));
        for record in [golden_commit(), golden_checkpoint()] {
            assert_eq!(
                decode(&flowscript_codec::to_bytes(&record)).unwrap(),
                record
            );
        }
    }

    #[test]
    fn the_whole_key_layout_is_refused_not_misread() {
        assert_eq!(WHOLE_KEY_COMMIT.len(), 37);
        assert_eq!(
            decode(WHOLE_KEY_COMMIT),
            Err(CodecError::InvalidDiscriminant {
                ty: "LogRecord",
                value: 0
            })
        );
        // Retagged as a commit of this layout, it still does not decode:
        // its second key's `StoreKey` tag reads as a uid sharing a byte
        // with no uid before it.
        let mut retagged = WHOLE_KEY_COMMIT.to_vec();
        retagged[0] = TAG_COMMIT;
        assert_eq!(
            decode(&retagged),
            Err(CodecError::LengthOverflow { length: 1, max: 0 })
        );
    }

    #[test]
    fn every_truncation_of_a_golden_payload_is_a_typed_error() {
        for record in [golden_commit(), golden_checkpoint()] {
            let bytes = flowscript_codec::to_bytes(&record);
            for len in 0..bytes.len() {
                assert!(
                    matches!(decode(&bytes[..len]), Err(CodecError::UnexpectedEof { .. })),
                    "{record:?} cut at {len} of {}",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn malformed_lists_are_typed_errors() {
        // A commit of `tx0.1` holding these entries.
        let commit = |count: u8, entries: &[u8]| {
            let mut bytes = vec![TAG_COMMIT, 0, 1, count];
            bytes.extend_from_slice(entries);
            decode(&bytes)
        };
        let no_fact_before = |form| CodecError::InvalidDiscriminant {
            ty: "fact image form (no fact key before it)",
            value: form,
        };
        // Form 2 or 3 with no fact key before it, a uid's
        // notwithstanding.
        assert_eq!(commit(1, b"\x02\x01\x00\x00"), Err(no_fact_before(2)));
        assert_eq!(
            commit(2, b"\x00\x00\x01a\x00\x03\x00\x00"),
            Err(no_fact_before(3))
        );
        // A uid sharing more than the uid before it holds.
        assert_eq!(
            commit(2, b"\x00\x00\x02ab\x00\x00\x03\x01c\x00"),
            Err(CodecError::LengthOverflow { length: 3, max: 2 })
        );
        assert_eq!(
            commit(1, b"\x00\x01\x01a\x00"),
            Err(CodecError::LengthOverflow { length: 1, max: 0 })
        );
        // A suffix that completes the shared half of a character is
        // fine; one that breaks it is not UTF-8.
        assert_eq!(
            commit(2, b"\x00\x00\x02\xC3\xA9\x00\x00\x01\x01\xAA\x00"),
            Ok(LogRecord::Commit {
                tx: TxId::new(0, 1),
                writes: vec![(uid("é"), Some(vec![])), (uid("ê"), Some(vec![]))],
            })
        );
        assert_eq!(
            commit(2, b"\x00\x00\x02\xC3\xA9\x00\x00\x01\x01(\x00"),
            Err(CodecError::InvalidUtf8)
        );
        // Kind code 3.
        assert_eq!(
            commit(1, b"\x0D\x01\x01\x00\x00"),
            Err(CodecError::InvalidDiscriminant {
                ty: "FactKind",
                value: 3
            })
        );
        // A uid header with a fact key's bits set.
        assert_eq!(
            commit(1, b"\x10\x00\x01a\x00"),
            Err(CodecError::InvalidDiscriminant {
                ty: "uid image header",
                value: 0x10
            })
        );
        // An id past `u32`.
        assert_eq!(
            commit(1, b"\x01\x80\x80\x80\x80\x10\x00\x00\x00"),
            Err(CodecError::VarintOverflow)
        );
        // A tombstone inside a checkpoint.
        assert_eq!(
            decode(b"\x09\x01\x81\x01\x01\x00\x00"),
            Err(CodecError::InvalidDiscriminant {
                ty: "checkpoint image (a tombstone)",
                value: 0x81
            })
        );
        // Trailing bytes.
        let mut trailing = GOLDEN_COMMIT.to_vec();
        trailing.push(0);
        assert_eq!(
            decode(&trailing),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
        // A count no input could hold reserves nothing near it.
        assert!(matches!(
            decode(b"\x08\x00\x01\xFF\xFF\xFF\x03"),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn a_fact_key_after_the_first_of_its_task_costs_at_most_two_bytes() {
        // What a diamond's report commits: the reporting task's outcome
        // (presence and object) and block, then each task it enables —
        // its bound input set, the set's object, its block.
        let (instance, t1) = (41, 1);
        let done = FactKey::output(instance, t1, 0);
        let mut keys = vec![done, done.object(0), FactKey::control(instance, t1)];
        for task in [2, 3] {
            let set = FactKey::input(instance, task, 0);
            keys.extend([set, set.object(0), FactKey::control(instance, task)]);
        }
        // Deletions: an entry is then its key alone.
        let writes: Vec<(StoreKey, Option<Vec<u8>>)> =
            keys.iter().map(|key| (fact(*key), None)).collect();
        let size = |n: usize| {
            flowscript_codec::to_bytes(&LogRecord::Commit {
                tx: TxId::new(0, 1),
                writes: writes[..n].to_vec(),
            })
            .len()
        };
        assert_eq!(size(1) - size(0), 4, "the first key spells its instance");
        for (n, pair) in keys.windows(2).enumerate() {
            let cost = size(n + 2) - size(n + 1);
            let limit = if pair[0].task == pair[1].task { 2 } else { 3 };
            assert!(cost <= limit, "`{}` costs {cost} B", pair[1]);
        }
    }
}
