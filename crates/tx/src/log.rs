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
        /// The writer's next transaction sequence number: ids minted
        /// before the snapshot left no record behind, and a replay must
        /// not mint them again.
        next_seq: u64,
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
    /// Several records made durable as one frame: a coordinator's
    /// commit decision and the commit of the action it was staged in,
    /// `[Resolve, Commit]`. A torn frame loses both — recovery never sees
    /// one without the other. Groups do not nest.
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

impl Encode for LogRecord {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            LogRecord::Commit { tx, writes } => {
                w.put_u8(0);
                tx.encode(w);
                writes.encode(w);
            }
            LogRecord::Checkpoint { states, next_seq } => {
                w.put_u8(1);
                states.encode(w);
                w.put_var_u64(*next_seq);
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
                w.put_u8(4);
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
                next_seq: r.get_var_u64()?,
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
            4 => Ok(LogRecord::GroupCommit {
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

/// The write-ahead log over some [`Storage`].
#[derive(Debug)]
pub struct Wal<S> {
    storage: S,
    /// The frame under construction, reused across appends.
    frame: ByteWriter,
}

impl<S: Storage> Wal<S> {
    /// Wraps existing storage (whose contents, if any, will be read by
    /// [`Wal::scan`]).
    pub fn new(storage: S) -> Self {
        Self {
            storage,
            frame: ByteWriter::new(),
        }
    }

    /// Appends one record durably.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn append(&mut self, record: &LogRecord) -> Result<(), TxError> {
        // Framed in place, in the reused frame buffer: the storage gets
        // that one slice.
        self.frame.clear();
        frame::encode_frame_with(&mut self.frame, |w| record.encode(w))?;
        self.storage.append(self.frame.as_slice())
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

    /// Replaces the entire log with a checkpoint of `states` and the
    /// writer's `next_seq`, followed by the `pending` records (log
    /// compaction): the new tail is appended
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
        next_seq: u64,
        pending: Vec<LogRecord>,
    ) -> Result<(), TxError> {
        let old_len = self.storage.len();
        self.append(&LogRecord::Checkpoint { states, next_seq })?;
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

    /// A coordinator's commit decision record.
    fn decision(seq: u64) -> LogRecord {
        LogRecord::Resolve {
            tx: TxId::new(0, seq),
            committed: true,
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
        wal.rewrite_with_checkpoint(vec![(uid("a"), vec![9])], 50, vec![])
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
    fn checkpoint_preserves_pending_records() {
        let mut wal = Wal::new(MemStorage::new());
        wal.append(&sample_commit(1)).unwrap();
        let prepare = LogRecord::Prepare {
            tx: TxId::new(2, 9),
            coordinator: 0,
            writes: vec![(uid("x"), Some(vec![7]))],
        };
        wal.rewrite_with_checkpoint(vec![], 2, vec![prepare.clone()])
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
            records: vec![decision(2), sample_commit(3)],
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
                next_seq: 300,
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
                records: vec![decision(5), sample_commit(6)],
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
    }
}
