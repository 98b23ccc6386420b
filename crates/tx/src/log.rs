//! The redo-only write-ahead log.
//!
//! Uncommitted data never reaches the object store (no-steal), so the log
//! only needs *redo* information: the after-images of committed writes.
//! Recovery replays commits in order, starting from the newest checkpoint.
//! Prepared distributed transactions are additionally logged so in-doubt
//! participants can be resolved after a crash (see [`crate::dist`]).

use flowscript_codec::{frame, ByteReader, ByteWriter, CodecError, Decode, Encode, FrameReader};

use crate::error::TxError;
use crate::id::TxId;
use crate::key::StoreKey;
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
    },
    /// A 2PC participant prepared this transaction (vote "yes" is durable).
    Prepare {
        /// The distributed transaction.
        tx: TxId,
        /// Coordinator node, for in-doubt resolution after recovery.
        coordinator: u32,
        /// Staged after-images, applied only on a later `Resolve{commit}`.
        writes: Vec<(StoreKey, Option<Vec<u8>>)>,
    },
    /// Outcome of a prepared transaction.
    Resolve {
        /// The distributed transaction.
        tx: TxId,
        /// `true` = commit, `false` = abort.
        committed: bool,
    },
    /// Several records made durable as one frame (group commit). A torn
    /// group frame loses the whole group as a unit — recovery never sees
    /// a partial batch.
    GroupCommit {
        /// The grouped records, in commit order.
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

/// Wire discriminant of [`LogRecord::GroupCommit`].
const GROUP_COMMIT_TAG: u8 = 4;

impl Encode for LogRecord {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            LogRecord::Commit { tx, writes } => {
                w.put_u8(0);
                tx.encode(w);
                writes.encode(w);
            }
            LogRecord::Checkpoint { states } => {
                w.put_u8(1);
                states.encode(w);
            }
            LogRecord::Prepare {
                tx,
                coordinator,
                writes,
            } => {
                w.put_u8(2);
                tx.encode(w);
                w.put_u32(*coordinator);
                writes.encode(w);
            }
            LogRecord::Resolve { tx, committed } => {
                w.put_u8(3);
                tx.encode(w);
                w.put_bool(*committed);
            }
            LogRecord::GroupCommit { records } => {
                w.put_u8(GROUP_COMMIT_TAG);
                records.encode(w);
            }
            LogRecord::Fence { claimant, epoch } => {
                w.put_u8(7);
                w.put_u32(*claimant);
                w.put_u64(*epoch);
            }
        }
    }
}

impl Decode for LogRecord {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(LogRecord::Commit {
                tx: TxId::decode(r)?,
                writes: Vec::decode(r)?,
            }),
            1 => Ok(LogRecord::Checkpoint {
                states: Vec::decode(r)?,
            }),
            2 => Ok(LogRecord::Prepare {
                tx: TxId::decode(r)?,
                coordinator: r.get_u32()?,
                writes: Vec::decode(r)?,
            }),
            3 => Ok(LogRecord::Resolve {
                tx: TxId::decode(r)?,
                committed: r.get_bool()?,
            }),
            GROUP_COMMIT_TAG => Ok(LogRecord::GroupCommit {
                records: Vec::decode(r)?,
            }),
            7 => Ok(LogRecord::Fence {
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

/// Records encoded ahead of their append: the members of an open
/// commit group, held as the bytes the log will carry so the flush
/// copies them once instead of re-encoding owned records.
#[derive(Debug, Default)]
pub(crate) struct RecordBuffer {
    bytes: ByteWriter,
    records: usize,
}

impl RecordBuffer {
    /// Encodes `record` behind the records already buffered.
    pub(crate) fn push(&mut self, record: &LogRecord) {
        record.encode(&mut self.bytes);
        self.records += 1;
    }

    /// Number of buffered records.
    pub(crate) fn len(&self) -> usize {
        self.records
    }

    /// Whether no record is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Drops the buffered records, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.records = 0;
    }
}

/// The write-ahead log over some [`Storage`].
#[derive(Debug)]
pub struct Wal<S> {
    storage: S,
    records_appended: u64,
    /// The frame under construction, reused across appends.
    frame: ByteWriter,
}

impl<S: Storage> Wal<S> {
    /// Wraps existing storage (whose contents, if any, will be read by
    /// [`Wal::scan`]).
    pub fn new(storage: S) -> Self {
        Self {
            storage,
            records_appended: 0,
            frame: ByteWriter::new(),
        }
    }

    /// Appends one record durably.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn append(&mut self, record: &LogRecord) -> Result<(), TxError> {
        self.append_frame(|w| record.encode(w))
    }

    /// Appends `buffer`'s records durably as one frame: a lone record
    /// bare, two or more as the [`LogRecord::GroupCommit`] holding them
    /// in order. Nothing is appended for an empty buffer.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub(crate) fn append_buffered(&mut self, buffer: &RecordBuffer) -> Result<(), TxError> {
        let members = buffer.bytes.as_slice();
        match buffer.records {
            0 => Ok(()),
            1 => self.append_frame(|w| w.put_bytes(members)),
            n => self.append_frame(|w| {
                w.put_u8(GROUP_COMMIT_TAG);
                w.put_len(n);
                w.put_bytes(members);
            }),
        }
    }

    /// Frames the payload `fill` encodes — in place, in the reused frame
    /// buffer — and hands the storage that one slice.
    fn append_frame(&mut self, fill: impl FnOnce(&mut ByteWriter)) -> Result<(), TxError> {
        self.frame.clear();
        frame::encode_frame_with(&mut self.frame, fill)?;
        self.storage.append(self.frame.as_slice())?;
        self.records_appended += 1;
        Ok(())
    }

    /// Reads every decodable record. A torn final frame is dropped
    /// (interrupted append); corruption elsewhere is an error.
    ///
    /// # Errors
    ///
    /// [`TxError::Corrupt`] on checksum/decode failure mid-log,
    /// [`TxError::Storage`] on I/O failure.
    pub fn scan(&self) -> Result<Vec<LogRecord>, TxError> {
        self.scan_from(0)
    }

    /// Reads every decodable record appended at or after byte `offset`
    /// (a frame boundary — callers pass a length they observed after
    /// one of their own appends). The cheap half of fence detection:
    /// a shared-storage writer scans only the tail another handle
    /// grew, not the whole log.
    ///
    /// # Errors
    ///
    /// As for [`Wal::scan`].
    pub fn scan_from(&self, offset: u64) -> Result<Vec<LogRecord>, TxError> {
        let bytes = self.storage.read_all()?;
        if offset as usize >= bytes.len() {
            return Ok(Vec::new());
        }
        let mut reader = FrameReader::new(&bytes[offset as usize..]);
        let (frames, _torn) = reader.read_all_tolerant()?;
        let mut records = Vec::with_capacity(frames.len());
        for payload in frames {
            records.push(flowscript_codec::from_bytes::<LogRecord>(payload)?);
        }
        Ok(records)
    }

    /// Replaces the entire log with a checkpoint of `states` followed by
    /// the `pending` records (log compaction): the new tail is appended
    /// behind the old log, read back, and then written over a log
    /// truncated to zero. **Not crash-atomic**: a crash after the
    /// truncation and before the final append loses the log. The fix
    /// needs a crash-point injector to prove it (ROADMAP item 2).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn rewrite_with_checkpoint(
        &mut self,
        states: Vec<(StoreKey, Vec<u8>)>,
        pending: Vec<LogRecord>,
    ) -> Result<(), TxError> {
        let old_len = self.storage.len();
        self.append(&LogRecord::Checkpoint { states })?;
        for record in &pending {
            self.append(record)?;
        }
        // Move the new tail to the front by rewriting storage wholesale.
        let bytes = self.storage.read_all()?;
        let tail = bytes[old_len as usize..].to_vec();
        self.storage.truncate(0)?;
        self.storage.append(&tail)?;
        Ok(())
    }

    /// Number of records appended through this handle (diagnostics).
    pub fn records_appended(&self) -> u64 {
        self.records_appended
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
        StoreKey::Uid(crate::id::ObjectUid::new(s))
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
        wal.append(&LogRecord::Resolve {
            tx: TxId::new(1, 2),
            committed: true,
        })
        .unwrap();
        let records = wal.scan().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], sample_commit(1));
        assert_eq!(wal.records_appended(), 2);
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

    #[test]
    fn checkpoint_rewrite_compacts() {
        let mut wal = Wal::new(MemStorage::new());
        for seq in 0..50 {
            wal.append(&sample_commit(seq)).unwrap();
        }
        let big = wal.size_bytes();
        wal.rewrite_with_checkpoint(vec![(uid("a"), vec![9])], vec![])
            .unwrap();
        assert!(wal.size_bytes() < big);
        let records = wal.scan().unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0], LogRecord::Checkpoint { .. }));
    }

    #[test]
    fn checkpoint_preserves_pending_records() {
        let mut wal = Wal::new(MemStorage::new());
        wal.append(&sample_commit(1)).unwrap();
        let prepare = LogRecord::Prepare {
            tx: TxId::new(2, 9),
            coordinator: 0,
            writes: vec![(uid("x"), Some(vec![7]))],
        };
        wal.rewrite_with_checkpoint(vec![], vec![prepare.clone()])
            .unwrap();
        let records = wal.scan().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], prepare);
    }

    #[test]
    fn torn_group_frame_drops_whole_group() {
        let mut wal = Wal::new(MemStorage::new());
        wal.append(&sample_commit(1)).unwrap();
        wal.append(&LogRecord::GroupCommit {
            records: vec![sample_commit(2), sample_commit(3), sample_commit(4)],
        })
        .unwrap();
        let mut storage = wal.storage;
        let len = storage.len();
        // Tear off the frame tail: the whole group vanishes as a unit,
        // never a prefix of its member records.
        storage.truncate(len - 3).unwrap();
        let wal = Wal::new(storage);
        let records = wal.scan().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], sample_commit(1));
    }

    #[test]
    fn all_record_kinds_roundtrip() {
        let records = vec![
            sample_commit(3),
            LogRecord::Checkpoint {
                states: vec![(uid("s"), vec![1])],
            },
            LogRecord::Prepare {
                tx: TxId::new(1, 4),
                coordinator: 7,
                writes: vec![],
            },
            LogRecord::Resolve {
                tx: TxId::new(1, 4),
                committed: false,
            },
            LogRecord::GroupCommit {
                records: vec![
                    sample_commit(5),
                    LogRecord::GroupCommit {
                        records: vec![sample_commit(6)],
                    },
                ],
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
            // copying encoder makes of the same payload.
            let mut wal = Wal::new(MemStorage::new());
            wal.append(record).unwrap();
            assert_eq!(
                wal.storage.read_all().unwrap(),
                frame::encode_frame(&bytes).unwrap()
            );
        }
        // Tags 5 and 6 are retired: refused typed, never misread.
        for tag in [5u8, 6] {
            assert!(matches!(
                flowscript_codec::from_bytes::<LogRecord>(&[tag]),
                Err(CodecError::InvalidDiscriminant { .. })
            ));
        }
        // A flush of pre-encoded members carries the bytes of the owned
        // group record (bare when the group is one record).
        for members in 0..=records.len() {
            let members = &records[..members];
            let mut buffer = RecordBuffer::default();
            for record in members {
                buffer.push(record);
            }
            assert_eq!(buffer.len(), members.len());
            let mut wal = Wal::new(MemStorage::new());
            wal.append_buffered(&buffer).unwrap();
            let expected = match members {
                [] => Vec::new(),
                [lone] => frame::encode_frame(&flowscript_codec::to_bytes(lone)).unwrap(),
                _ => frame::encode_frame(&flowscript_codec::to_bytes(&LogRecord::GroupCommit {
                    records: members.to_vec(),
                }))
                .unwrap(),
            };
            assert_eq!(wal.storage.read_all().unwrap(), expected);
            buffer.clear();
            assert!(buffer.is_empty());
        }
    }
}
