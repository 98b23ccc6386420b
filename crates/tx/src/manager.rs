use std::cell::Cell;
use std::collections::BTreeMap;

use flowscript_codec::{ByteWriter, Decode, Encode, IdMap};
use flowscript_obs::{Histogram, MetricValue, ObserveLevel, Snapshot};

use crate::error::TxError;
use crate::id::{ObjectUid, TxId};
use crate::key::{FactKey, FactKind, StoreKey};
use crate::log::{self, LogRecord, Replayed, Wal};
use crate::storage::{SharedStorage, Storage};
use crate::store::{Store, Stored};

/// A live atomic action (transaction).
///
/// Deliberately neither `Clone` nor `Copy`: an action is terminated exactly
/// once, by passing it *by value* to [`TxManager::commit`] or
/// [`TxManager::abort`] — or by the manager's next [`TxManager::begin`],
/// after which this handle stages, reads and commits nothing.
#[derive(Debug)]
pub struct AtomicAction {
    id: TxId,
}

impl AtomicAction {
    /// This action's transaction id.
    pub fn id(&self) -> TxId {
        self.id
    }
}

/// An action's staged after-images in first-write order (the order of
/// the commit record); `None` marks a deletion. The indexes map each
/// staged key to its slot in `writes`, so last-write-wins staging and
/// lookup find a key once however many keys an action stages (a start
/// stages one control block per plan task, a purge or an adoption a
/// whole instance). Fact keys are dense ids the engine mints, so they
/// hash under the fixed [`IdHasher`](flowscript_codec::IdHasher); uids
/// carry names a client chose, so they stay in an ordered map, which
/// no choice of names can flood. The manager keeps one workspace and
/// empties it between actions, keeping what it allocated.
#[derive(Debug, Default)]
struct Workspace {
    writes: Vec<(StoreKey, Option<Stored>)>,
    facts: IdMap<FactKey, usize>,
    uids: BTreeMap<ObjectUid, usize>,
}

/// The most staged writes whose room an emptied workspace keeps.
const WORKSPACE_KEPT: usize = 1024;

/// The most bytes of room the scratch writer keeps after an image.
const SCRATCH_KEPT: usize = 64 * 1024;

impl Workspace {
    fn stage(&mut self, key: &StoreKey, value: Option<Stored>) {
        let next = self.writes.len();
        let slot = match key {
            StoreKey::Fact(fact) => *self.facts.entry(*fact).or_insert(next),
            StoreKey::Uid(uid) => match self.uids.get(uid) {
                Some(&slot) => slot,
                None => {
                    self.uids.insert(uid.clone(), next);
                    next
                }
            },
        };
        match self.writes.get_mut(slot) {
            Some((_, staged)) => *staged = value,
            None => self.writes.push((key.clone(), value)),
        }
    }

    fn staged(&self, key: &StoreKey) -> Option<&Option<Stored>> {
        let slot = match key {
            StoreKey::Fact(fact) => self.facts.get(fact),
            StoreKey::Uid(uid) => self.uids.get(uid),
        };
        slot.map(|&slot| &self.writes[slot].1)
    }

    /// Empties the workspace for the next action, `writes` the vector
    /// its after-images go back into.
    fn reset(&mut self, mut writes: Vec<(StoreKey, Option<Stored>)>) {
        if writes.capacity() > WORKSPACE_KEPT {
            *self = Workspace::default();
            return;
        }
        writes.clear();
        self.writes = writes;
        self.facts.clear();
        self.uids.clear();
    }
}

/// The manager's metrics, exported under `tx.*`/`wal.*` by
/// [`TxMetrics::snapshot`]. The manager owns them: a shard reopening its
/// log after a crash moves them into the new manager
/// ([`TxManager::metrics_mut`]), so their history spans the crash. The
/// counts the `&self` read paths tick are cells.
#[derive(Debug, Default)]
pub struct TxMetrics {
    /// Gates the optional histograms; the counters tick regardless.
    observe: ObserveLevel,
    /// Committed actions (`tx.commits`).
    commits: u64,
    /// Aborted actions: explicit, a commit whose append failed, and an
    /// action still open when the next began (`tx.aborts`).
    aborts: u64,
    /// Uid prefix scans served (`tx.prefix_scans`). Scans are
    /// O(matches) range walks, fine for recovery and cold admin paths —
    /// but the engine's per-commit paths must never need one, and
    /// regression tests assert this counter stays flat during runs.
    prefix_scans: Cell<u64>,
    /// Fact range scans served (`tx.fact_range_scans`). Legitimate on
    /// subtree cancel/reset, whole-fact reconstruction and
    /// reconfiguration — but a readiness *probe* must be a point read,
    /// and regression tests assert clean runs keep this counter flat.
    fact_range_scans: Cell<u64>,
    /// Committed-state point reads of fact keys (`tx.fact_point_reads`)
    /// — the cheap side of the point-read-vs-range-scan split above.
    fact_point_reads: Cell<u64>,
    /// After-images per commit record the log took
    /// (`wal.writes_per_commit`); only fed when observing metrics.
    wal_writes_per_commit: Histogram,
    /// Bytes per appended WAL frame (`wal.bytes_per_frame`); only fed
    /// when observing metrics.
    wal_bytes_per_frame: Histogram,
}

impl TxMetrics {
    /// Fresh metrics observing at `observe`.
    pub fn new(observe: ObserveLevel) -> Self {
        Self {
            observe,
            ..Self::default()
        }
    }

    /// Every metric by name, zeros included.
    pub fn snapshot(&self) -> Snapshot {
        let (counter, histogram) = (MetricValue::Counter, MetricValue::from);
        Snapshot::from_iter([
            ("tx.commits", counter(self.commits)),
            ("tx.aborts", counter(self.aborts)),
            ("tx.prefix_scans", counter(self.prefix_scans.get())),
            ("tx.fact_range_scans", counter(self.fact_range_scans.get())),
            ("tx.fact_point_reads", counter(self.fact_point_reads.get())),
            (
                "wal.writes_per_commit",
                histogram(&self.wal_writes_per_commit),
            ),
            ("wal.bytes_per_frame", histogram(&self.wal_bytes_per_frame)),
        ])
    }
}

/// Adds one to a count a `&self` read path keeps.
fn tick(count: &Cell<u64>) {
    count.set(count.get() + 1);
}

/// The transaction manager: atomic actions over a persistent object store.
///
/// One `TxManager` corresponds to one node's recoverable state (the paper's
/// "persistent atomic objects"). All coordination data the engine keeps —
/// task control blocks, dependency records, produced outputs — lives in
/// objects managed here, so a crash between events loses nothing that was
/// committed and everything that was not.
///
/// Objects are addressed by [`StoreKey`]: string [`ObjectUid`]s for the
/// self-describing metadata, dense [`FactKey`]s for the dependency facts
/// and control blocks of the commit hot path. Uids are kept in order, so
/// a uid prefix is a range scan; fact keys are kept by instance id, each
/// instance's in one sorted run, so a point read is a hash probe and a
/// binary search over that instance's keys and a range within it is one
/// slice.
///
/// A manager has at most one open action. It belongs to one shard, which
/// runs one step at a time, so the order actions begin in is the serial
/// order and no action needs a lock: beginning one aborts any still open.
#[derive(Debug)]
pub struct TxManager<S = SharedStorage> {
    node: u32,
    wal: Wal<S>,
    store: Store,
    /// The open action…
    open: Option<TxId>,
    /// …and what it staged,…
    workspace: Workspace,
    /// …each after-image encoded here first ([`TxManager::write_key_with`]).
    scratch: ByteWriter,
    next_seq: u64,
    /// A durable [`LogRecord::Fence`] by *another* node: `(claimant,
    /// epoch)`. Set at replay, or detected mid-run by the tail probe in
    /// [`TxManager::append_record`] (the storage is shared, so a
    /// claimant's fence lands in this manager's log behind its back).
    /// Once set, every append fails with [`TxError::Fenced`].
    fence: Option<(u32, u64)>,
    /// Log length after this manager's own last append — a tail beyond
    /// it means another handle wrote (fence detection).
    wal_len: u64,
    /// Boxed, like the shard's: cold histogram buckets kept off the
    /// store's cache lines.
    metrics: Box<TxMetrics>,
}

impl TxManager<SharedStorage> {
    /// A fresh manager over new in-memory shared storage (node id 0).
    pub fn in_memory() -> Self {
        Self::open(0, SharedStorage::new()).expect("empty storage cannot fail recovery")
    }
}

impl<S: Storage> TxManager<S> {
    /// Opens a manager over `storage`, replaying any existing log
    /// (recovery) and cutting off a torn final frame. An empty log
    /// yields an empty store.
    ///
    /// # Errors
    ///
    /// [`TxError::Corrupt`] if the log is damaged beyond a torn tail,
    /// [`TxError::Storage`] on I/O failure.
    pub fn open(node: u32, storage: S) -> Result<Self, TxError> {
        let mut wal = Wal::new(storage);
        let mut store = Store::default();
        let mut fence: Option<(u32, u64)> = None;
        let mut next_seq = 1u64;
        // Each record's after-images are read from its frame into this
        // one list and moved into the store: no record is held whole.
        let mut images: Vec<(StoreKey, Option<Stored>)> = Vec::new();
        // A torn tail is cut off here, before anything appends behind it.
        wal.replay(|payload| {
            match log::replay_record(payload, &mut images)? {
                Replayed::Checkpoint(carried) => {
                    store = Store::restored(&mut images);
                    next_seq = next_seq.max(carried);
                }
                Replayed::Commit(tx) => {
                    next_seq = next_seq.max(tx.seq().saturating_add(1));
                    store.apply(&mut images);
                }
                // A claimant reopening storage it fenced itself must not
                // be fenced out by its own claim.
                Replayed::Fence(claimant, epoch) => {
                    if claimant != node {
                        fence = Some((claimant, epoch));
                    }
                }
            }
            Ok(())
        })?;
        let wal_len = wal.size_bytes();
        Ok(Self {
            node,
            wal,
            store,
            open: None,
            workspace: Workspace::default(),
            scratch: ByteWriter::new(),
            next_seq,
            fence,
            wal_len,
            metrics: Box::default(),
        })
    }

    /// This manager's node id (used in [`TxId`]s it mints).
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The sequence number the next action takes: past every one this
    /// log committed, so it only grows across reopens of the same log.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn mint(&mut self) -> TxId {
        let id = TxId::new(self.node, self.next_seq);
        self.next_seq += 1;
        id
    }

    /// Begins an atomic action. Actions are flat: each commits or aborts
    /// on its own. An action still open is aborted first (`tx.aborts`):
    /// its handle then stages, reads and commits nothing.
    pub fn begin(&mut self) -> AtomicAction {
        if self.open.take().is_some() {
            self.metrics.aborts += 1;
            self.discard();
        }
        let id = self.mint();
        self.open = Some(id);
        AtomicAction { id }
    }

    /// What `action` staged, if it is the open action.
    fn workspace(&self, action: &AtomicAction) -> Option<&Workspace> {
        (self.open == Some(action.id)).then_some(&self.workspace)
    }

    /// Drops what the workspace staged.
    fn discard(&mut self) {
        let writes = std::mem::take(&mut self.workspace.writes);
        self.workspace.reset(writes);
    }

    /// Writes an object within an action. The value is staged and
    /// reaches the store only on commit.
    ///
    /// # Errors
    ///
    /// [`TxError::UnknownAction`] for a terminated action.
    pub fn write_key<T: Encode + ?Sized>(
        &mut self,
        action: &AtomicAction,
        key: &StoreKey,
        value: &T,
    ) -> Result<(), TxError> {
        self.write_key_with(action, key, |w| value.encode(w))
    }

    /// Writes the object bytes `write` writes within an action (see
    /// [`TxManager::write_key`]): encoded into the manager's scratch
    /// writer and staged from there, a short object in place — no
    /// buffer of its own.
    ///
    /// # Errors
    ///
    /// As for [`TxManager::write_key`].
    pub fn write_key_with(
        &mut self,
        action: &AtomicAction,
        key: &StoreKey,
        write: impl FnOnce(&mut ByteWriter),
    ) -> Result<(), TxError> {
        self.scratch.clear();
        write(&mut self.scratch);
        let image = Stored::copy_of(self.scratch.as_slice());
        if self.scratch.len() > SCRATCH_KEPT {
            self.scratch = ByteWriter::new();
        }
        self.stage(action, key, Some(image))
    }

    /// Writes raw object bytes within an action (see
    /// [`TxManager::write_key`]).
    ///
    /// # Errors
    ///
    /// As for [`TxManager::write_key`].
    pub fn write_key_raw(
        &mut self,
        action: &AtomicAction,
        key: &StoreKey,
        bytes: Vec<u8>,
    ) -> Result<(), TxError> {
        self.stage(action, key, Some(bytes.into()))
    }

    /// Deletes an object within an action.
    ///
    /// # Errors
    ///
    /// As for [`TxManager::write_key`].
    pub fn delete_key(&mut self, action: &AtomicAction, key: &StoreKey) -> Result<(), TxError> {
        self.stage(action, key, None)
    }

    fn stage(
        &mut self,
        action: &AtomicAction,
        key: &StoreKey,
        value: Option<Stored>,
    ) -> Result<(), TxError> {
        if self.open != Some(action.id) {
            return Err(TxError::UnknownAction(action.id));
        }
        self.workspace.stage(key, value);
        Ok(())
    }

    /// Commits an action as one frame, its staged writes as a
    /// [`LogRecord::Commit`] (an action that staged none appends
    /// nothing). Once the frame is appended the writes apply to the
    /// store.
    ///
    /// # Errors
    ///
    /// [`TxError::UnknownAction`] if already terminated; storage errors
    /// on log append — the action is then aborted: nothing applied.
    pub fn commit(&mut self, action: AtomicAction) -> Result<(), TxError> {
        if self.open.take_if(|id| *id == action.id).is_none() {
            return Err(TxError::UnknownAction(action.id));
        }
        let writes = std::mem::take(&mut self.workspace.writes);
        if writes.is_empty() {
            self.workspace.reset(writes);
            self.metrics.commits += 1;
            return Ok(());
        }
        let images = writes.len() as u64;
        // The record is written from the workspace where it lies, once;
        // the after-images then move into the store.
        let appended = self.append_with(|w| log::put_commit(w, action.id, &writes));
        let mut writes = writes;
        if let Err(err) = appended {
            // The action is consumed — nobody can abort it any more — so
            // a commit that did not reach the log ends here as an abort.
            self.metrics.aborts += 1;
            self.workspace.reset(writes);
            return Err(err);
        }
        if self.metrics.observe.metrics() {
            self.metrics.wal_writes_per_commit.record(images);
        }
        self.store.apply(&mut writes);
        self.workspace.reset(writes);
        self.metrics.commits += 1;
        Ok(())
    }

    /// Aborts an action, discarding its staged writes.
    /// Idempotent for already-terminated ids.
    pub fn abort(&mut self, action: AtomicAction) {
        if self.open.take_if(|id| *id == action.id).is_some() {
            self.metrics.aborts += 1;
            self.discard();
        }
    }

    /// One record onto the log as one frame, behind the fence check
    /// every append makes first.
    fn append_record(&mut self, record: &LogRecord) -> Result<(), TxError> {
        self.append_with(|w| record.encode(w))
    }

    /// [`TxManager::append_record`] of the record `write` writes.
    fn append_with(&mut self, write: impl FnOnce(&mut ByteWriter)) -> Result<(), TxError> {
        // Past the fence check `wal_len` is the log's length.
        self.check_fence()?;
        self.wal.append_with(write)?;
        let len = self.wal.size_bytes();
        if self.metrics.observe.metrics() {
            let frame = len.saturating_sub(self.wal_len);
            self.metrics.wal_bytes_per_frame.record(frame);
        }
        self.wal_len = len;
        Ok(())
    }

    /// Refuses the next append if another node has claimed this storage
    /// ([`TxManager::note_fence`]).
    fn check_fence(&mut self) -> Result<(), TxError> {
        match self.note_fence()? {
            Some((claimant, epoch)) => Err(TxError::Fenced { claimant, epoch }),
            None => Ok(()),
        }
    }

    /// [`TxManager::tail_fence`], noted: a fence found in the tail is the
    /// one this manager observed from then on, and a foreign tail with
    /// none (e.g. our own claim written through a sibling handle) is
    /// folded into the watermark — so the tail is walked once, however
    /// often a zombie asks. Cheap in the common case (a length compare).
    ///
    /// # Errors
    ///
    /// [`TxError::Storage`] if the tail does not read.
    pub fn note_fence(&mut self) -> Result<Option<(u32, u64)>, TxError> {
        let len = self.wal.size_bytes();
        if self.fence.is_none() && len != self.wal_len {
            self.fence = self.tail_fence()?;
            if self.fence.is_none() {
                self.wal_len = len;
            }
        }
        Ok(self.fence)
    }

    /// The fence another node holds on this storage: the one this
    /// manager observed, else one in the log's tail past its watermark,
    /// found without noting it.
    ///
    /// # Errors
    ///
    /// [`TxError::Storage`] if the tail does not read.
    pub fn tail_fence(&self) -> Result<Option<(u32, u64)>, TxError> {
        if self.fence.is_some() || self.wal.size_bytes() == self.wal_len {
            return Ok(self.fence);
        }
        let mut found = None;
        self.wal.walk_from(self.wal_len, |payload| {
            if found.is_none() {
                found = log::fence_of(payload)?.filter(|&(claimant, _)| claimant != self.node);
            }
            Ok(())
        })?;
        Ok(found)
    }

    /// The fence this manager has observed, if any: `(claimant, epoch)`.
    /// Cached — does not touch storage; use [`TxManager::note_fence`]
    /// to check the log tail.
    pub fn fenced(&self) -> Option<(u32, u64)> {
        self.fence
    }

    /// Durably claims this storage for `self.node` at membership
    /// `epoch`: appends a [`LogRecord::Fence`] that every *other* node's
    /// manager will trip over on its next append (or replay). Writing
    /// one's own fence again is idempotent; claiming storage another
    /// node already fenced fails with [`TxError::Fenced`].
    ///
    /// # Errors
    ///
    /// [`TxError::Fenced`] if a different claimant got there first,
    /// [`TxError::Storage`] on I/O failure.
    pub fn write_fence(&mut self, epoch: u64) -> Result<(), TxError> {
        self.append_record(&LogRecord::Fence {
            claimant: self.node,
            epoch,
        })
    }

    /// Reads the committed state of an object outside any transaction
    /// (dirty reads impossible: uncommitted data never reaches the store).
    ///
    /// # Errors
    ///
    /// [`TxError::Corrupt`] if the stored bytes fail to decode as `T`.
    pub fn read_committed_key<T: Decode>(&self, key: &StoreKey) -> Result<Option<T>, TxError> {
        if is_fact(key) {
            tick(&self.metrics.fact_point_reads);
        }
        match self.store.get(key) {
            None => Ok(None),
            Some(bytes) => Ok(Some(flowscript_codec::from_bytes(bytes.as_slice())?)),
        }
    }

    /// The bytes `action` would read at `key` — its staged after-image
    /// if it wrote one, else the committed state (`None`: that alone):
    /// the writer staging a cascade sees its own transitions. A handle
    /// that is no longer the open action reads nothing. Counted like
    /// [`TxManager::read_committed_key`].
    pub fn read_through(&self, action: Option<&AtomicAction>, key: &StoreKey) -> Option<&[u8]> {
        if is_fact(key) {
            tick(&self.metrics.fact_point_reads);
        }
        let staged = match action {
            Some(action) => self.workspace(action)?.staged(key),
            None => None,
        };
        match staged {
            Some(staged) => staged.as_ref().map(Stored::as_slice),
            None => self.store.get(key).map(Stored::as_slice),
        }
    }

    /// The committed raw bytes of an object (key remapping, diagnostics).
    pub fn read_committed_bytes(&self, key: &StoreKey) -> Option<&[u8]> {
        self.store.get(key).map(Stored::as_slice)
    }

    /// Whether an object exists in committed state.
    pub fn exists_key(&self, key: &StoreKey) -> bool {
        if is_fact(key) {
            tick(&self.metrics.fact_point_reads);
        }
        self.store.get(key).is_some()
    }

    /// All committed uids with the given prefix, sorted (recovery
    /// enumeration). One range walk of the ordered uids.
    pub fn uids_with_prefix(&self, prefix: &str) -> Vec<ObjectUid> {
        self.uids_matching(prefix, "")
    }

    /// [`TxManager::uids_with_prefix`] keeping only uids that also end
    /// with `suffix` — the filter runs before any clone, so enumerating
    /// the `inst/…/meta` objects does not materialize the records stored
    /// beside them.
    pub fn uids_matching(&self, prefix: &str, suffix: &str) -> Vec<ObjectUid> {
        tick(&self.metrics.prefix_scans);
        self.store
            .uids_from(prefix)
            .filter(|uid| uid.as_str().ends_with(suffix))
            .cloned()
            .collect()
    }

    /// The greatest committed fact key, if any: a max over the
    /// instances' last keys, each a run's end. The engine asks at open
    /// and restart only, for the next free instance id.
    pub fn last_fact_key(&self) -> Option<FactKey> {
        self.store.last_fact()
    }

    /// All committed fact keys in `lo..=hi`, in key order (subtree
    /// cancel/reset, reconfiguration remapping). One range scan: a slice
    /// of one instance's run, or one per instance a wider range spans.
    pub fn fact_keys_in_range(&self, lo: FactKey, hi: FactKey) -> Vec<FactKey> {
        tick(&self.metrics.fact_range_scans);
        self.store.facts(lo, hi).map(|(key, _)| *key).collect()
    }

    /// All committed fact keys in `lo..=hi` with their raw payloads
    /// (whole-fact reconstruction on cold paths: monitoring, recovery
    /// re-dispatch, reconfiguration remapping). One range scan.
    pub fn facts_in_range(&self, lo: FactKey, hi: FactKey) -> Vec<(FactKey, Vec<u8>)> {
        tick(&self.metrics.fact_range_scans);
        self.store
            .facts(lo, hi)
            .map(|(key, bytes)| (*key, bytes.as_slice().to_vec()))
            .collect()
    }

    /// Writes a checkpoint and compacts the log to it.
    ///
    /// # Errors
    ///
    /// Storage errors on rewrite.
    pub fn checkpoint(&mut self) -> Result<(), TxError> {
        // A fenced manager must not compact: the rewrite would erase the
        // claimant's Fence record and un-fence the zombie.
        self.check_fence()?;
        // The store walks its keys in order, uids and then each instance
        // in id order, so the snapshot is deterministic.
        let states: Vec<(StoreKey, Vec<u8>)> = self
            .store
            .iter()
            .map(|(key, bytes)| (key, bytes.as_slice().to_vec()))
            .collect();
        self.wal.rewrite_with_checkpoint(states, self.next_seq)?;
        self.wal_len = self.wal.size_bytes();
        Ok(())
    }

    /// Current log size in bytes.
    pub fn log_size(&self) -> u64 {
        self.wal.size_bytes()
    }

    /// This manager's metrics.
    pub fn metrics(&self) -> &TxMetrics {
        &self.metrics
    }

    /// This manager's metrics, to replace: set the level they observe
    /// at, or carry their history into a reopened manager.
    pub fn metrics_mut(&mut self) -> &mut TxMetrics {
        &mut self.metrics
    }

    /// Number of live (committed) objects.
    pub fn object_count(&self) -> usize {
        self.store.len()
    }
}

/// Whether `key` addresses a dependency fact — what `tx.fact_point_reads`
/// counts; a control block shares the dense key space but is not one.
fn is_fact(key: &StoreKey) -> bool {
    matches!(key, StoreKey::Fact(key) if key.kind != FactKind::Control)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::storage::FlakyStorage;

    /// `name`'s count, read the one way: off the metrics' snapshot.
    fn counter<S: Storage>(mgr: &TxManager<S>, name: &str) -> u64 {
        mgr.metrics().snapshot().counter(name)
    }

    /// `(commits, aborts)`.
    fn stats<S: Storage>(mgr: &TxManager<S>) -> (u64, u64) {
        (counter(mgr, "tx.commits"), counter(mgr, "tx.aborts"))
    }

    fn uid(s: &str) -> ObjectUid {
        ObjectUid::new(s)
    }

    fn key(s: &str) -> StoreKey {
        StoreKey::from(ObjectUid::new(s))
    }

    #[test]
    fn committed_write_is_visible_later() {
        let mut mgr = TxManager::in_memory();
        let a = mgr.begin();
        mgr.write_key(&a, &key("x"), &41u32).unwrap();
        mgr.commit(a).unwrap();
        assert_eq!(mgr.read_committed_key::<u32>(&key("x")).unwrap(), Some(41));
        let b = mgr.begin();
        let bytes = flowscript_codec::to_bytes(&41u32);
        assert_eq!(mgr.read_through(Some(&b), &key("x")), Some(&bytes[..]));
        mgr.abort(b);
    }

    #[test]
    fn the_last_fact_key_is_the_greatest_committed_one() {
        let mut mgr = TxManager::in_memory();
        assert_eq!(mgr.last_fact_key(), None);
        let a = mgr.begin();
        mgr.write_key(&a, &key("zzz"), &1u8).unwrap();
        mgr.commit(a).unwrap();
        assert_eq!(mgr.last_fact_key(), None, "a uid is no fact key");
        let (low, high) = (FactKey::output(2, 9, 1), FactKey::control(3, 0));
        let a = mgr.begin();
        for fact in [high, low] {
            mgr.write_key(&a, &StoreKey::Fact(fact), &1u8).unwrap();
        }
        assert_eq!(mgr.last_fact_key(), None, "staged is not committed");
        mgr.commit(a).unwrap();
        assert_eq!(mgr.last_fact_key(), Some(high));
        let a = mgr.begin();
        mgr.delete_key(&a, &StoreKey::Fact(high)).unwrap();
        mgr.commit(a).unwrap();
        assert_eq!(mgr.last_fact_key(), Some(low));
    }

    #[test]
    fn aborted_write_leaves_no_trace() {
        let mut mgr = TxManager::in_memory();
        let a = mgr.begin();
        mgr.write_key(&a, &key("x"), &1u8).unwrap();
        mgr.abort(a);
        assert_eq!(mgr.read_committed_key::<u8>(&key("x")).unwrap(), None);
        assert!(!mgr.exists_key(&key("x")));
        assert_eq!(stats(&mgr), (0, 1));
    }

    #[test]
    fn own_writes_read_back_before_commit() {
        let mut mgr = TxManager::in_memory();
        let a = mgr.begin();
        mgr.write_key(&a, &key("x"), &7i64).unwrap();
        let bytes = flowscript_codec::to_bytes(&7i64);
        assert_eq!(mgr.read_through(Some(&a), &key("x")), Some(&bytes[..]));
        mgr.delete_key(&a, &key("x")).unwrap();
        assert_eq!(mgr.read_through(Some(&a), &key("x")), None);
        mgr.commit(a).unwrap();
    }

    #[test]
    fn read_through_sees_staged_then_committed() {
        let mut mgr = TxManager::in_memory();
        let point_reads = |mgr: &TxManager| counter(mgr, "tx.fact_point_reads");
        let fact = StoreKey::Fact(FactKey::input(0, 1, 0));
        let a = mgr.begin();
        mgr.write_key(&a, &fact, &1u8).unwrap();
        mgr.commit(a).unwrap();
        let writer = mgr.begin();
        mgr.write_key(&writer, &fact, &2u8).unwrap();
        let reads = point_reads(&mgr);
        assert_eq!(mgr.read_through(Some(&writer), &fact), Some(&[2u8][..]));
        // A read outside the action sees no staging.
        assert_eq!(mgr.read_through(None, &fact), Some(&[1u8][..]));
        assert_eq!(point_reads(&mgr), reads + 2);
        // A staged delete reads as absent; a uid is not a fact read.
        mgr.delete_key(&writer, &fact).unwrap();
        assert_eq!(mgr.read_through(Some(&writer), &fact), None);
        assert_eq!(mgr.read_through(Some(&writer), &key("nothing")), None);
        assert_eq!(point_reads(&mgr), reads + 3);
        mgr.commit(writer).unwrap();
        assert_eq!(mgr.read_through(None, &fact), None);
    }

    /// One action is open at a time: the next `begin` aborts it, and its
    /// stale handle fails loudly rather than act outside the serial order.
    #[test]
    fn a_second_begin_ends_the_open_action() {
        let mut mgr = TxManager::in_memory();
        let a = mgr.begin();
        mgr.write_key(&a, &key("x"), &1u8).unwrap();
        mgr.write_key(&a, &key("y"), &1u8).unwrap();
        assert_eq!(mgr.read_through(Some(&a), &key("x")), Some(&[1u8][..]));
        let b = mgr.begin();
        assert_eq!(stats(&mgr), (0, 1), "the stale action counts as aborted");
        let stale = TxError::UnknownAction(a.id());
        assert_eq!(mgr.write_key(&a, &key("z"), &1u8), Err(stale.clone()));
        assert_eq!(mgr.delete_key(&a, &key("x")), Err(stale.clone()));
        assert_eq!(mgr.read_through(Some(&a), &key("x")), None);
        // It reads nothing, not even what is committed.
        mgr.write_key(&b, &key("y"), &2u8).unwrap();
        assert_eq!(mgr.read_through(Some(&a), &key("y")), None);
        assert_eq!(mgr.read_through(Some(&b), &key("y")), Some(&[2u8][..]));
        mgr.commit(b).unwrap();
        assert_eq!(mgr.read_through(Some(&a), &key("y")), None);
        assert_eq!(mgr.commit(a), Err(stale));
        // Nothing it staged reached the store or the log.
        assert_eq!(mgr.read_committed_key::<u8>(&key("x")).unwrap(), None);
        assert_eq!(mgr.read_committed_key::<u8>(&key("y")).unwrap(), Some(2));
        let records = mgr.wal.scan().unwrap();
        assert_eq!(records.len(), 1, "b's commit alone: {records:?}");
        assert_eq!(stats(&mgr), (1, 1));
    }

    /// A start stages one control block per plan task and a purge a
    /// whole instance, so staging must stay last-write-wins in
    /// first-write order however many keys one action touches — here
    /// 4 000.
    #[test]
    fn large_action_commits_first_write_order_last_write_wins() {
        const N: usize = 4_000;
        let stable = SharedStorage::new();
        let mut mgr = TxManager::open(0, stable.clone()).unwrap();
        let keys: Vec<StoreKey> = (0..N).map(|i| key(&format!("i/7/t/{i:05}"))).collect();
        let mut model: Vec<(StoreKey, Option<Vec<u8>>)> = Vec::new();
        let stage = |model: &mut Vec<(StoreKey, Option<Vec<u8>>)>, i: usize, v| match model
            .iter_mut()
            .find(|(k, _)| *k == keys[i])
        {
            Some((_, slot)) => *slot = v,
            None => model.push((keys[i].clone(), v)),
        };
        let action = mgr.begin();
        for i in (0..N).step_by(2).chain((1..N).step_by(2).rev()) {
            let value = vec![1 + (i % 2) as u8];
            mgr.write_key_raw(&action, &keys[i], value.clone()).unwrap();
            stage(&mut model, i, Some(value));
        }
        // Rewrites and deletions keep each key's first slot.
        for i in (0..N).step_by(3) {
            let value = (i % 7 != 0).then(|| vec![3, i as u8]);
            match &value {
                Some(bytes) => mgr.write_key_raw(&action, &keys[i], bytes.clone()).unwrap(),
                None => mgr.delete_key(&action, &keys[i]).unwrap(),
            }
            stage(&mut model, i, value);
        }
        let read = |key: &StoreKey| mgr.read_through(Some(&action), key).map(<[u8]>::to_vec);
        assert_eq!(read(&keys[3]), Some(vec![3, 3]));
        assert_eq!(read(&keys[5]), Some(vec![2]));
        assert_eq!(read(&keys[21]), None);
        mgr.commit(action).unwrap();
        let records = Wal::new(stable).scan().unwrap();
        let [LogRecord::Commit { writes, .. }] = records.as_slice() else {
            panic!("one commit record, got {records:?}");
        };
        assert_eq!(writes.len(), N);
        assert_eq!(*writes, model);
    }

    #[test]
    fn recovery_replays_committed_state() {
        let stable = SharedStorage::new();
        {
            let mut mgr = TxManager::open(0, stable.clone()).unwrap();
            let a = mgr.begin();
            mgr.write_key(&a, &key("x"), &String::from("durable"))
                .unwrap();
            mgr.write_key(&a, &key("y"), &2u8).unwrap();
            mgr.commit(a).unwrap();
            let b = mgr.begin();
            mgr.delete_key(&b, &key("y")).unwrap();
            mgr.commit(b).unwrap();
            let c = mgr.begin();
            mgr.write_key(&c, &key("z"), &3u8).unwrap();
            // c is never committed: crash here.
        }
        let mgr = TxManager::open(0, stable).unwrap();
        assert_eq!(
            mgr.read_committed_key::<String>(&key("x")).unwrap(),
            Some("durable".to_string())
        );
        assert_eq!(mgr.read_committed_key::<u8>(&key("y")).unwrap(), None);
        assert_eq!(mgr.read_committed_key::<u8>(&key("z")).unwrap(), None);
    }

    /// A torn tail is cut off at recovery, not only skipped: a commit
    /// appended behind the torn bytes would have the torn frame's length
    /// run into it, and the reopen after that commit would fail.
    #[test]
    fn a_torn_tail_is_cut_off_before_the_next_commit() {
        let commit = |mgr: &mut TxManager, name: &str| {
            let a = mgr.begin();
            mgr.write_key(&a, &key(name), &1u8).unwrap();
            mgr.commit(a).unwrap();
        };
        let stable = SharedStorage::new();
        {
            let mut mgr = TxManager::open(0, stable.clone()).unwrap();
            commit(&mut mgr, "a");
            commit(&mut mgr, "b");
        }
        let mut torn = stable.clone();
        torn.truncate(torn.len() - 2).unwrap();
        let mut mgr = TxManager::open(0, stable.clone()).unwrap();
        assert!(mgr.exists_key(&key("a")));
        assert!(!mgr.exists_key(&key("b")), "the torn commit is dropped");
        commit(&mut mgr, "c");
        drop(mgr);
        let mgr = TxManager::open(0, stable).unwrap();
        assert!(mgr.exists_key(&key("a")) && mgr.exists_key(&key("c")));
        assert!(!mgr.exists_key(&key("b")));
        assert_eq!(mgr.object_count(), 2);
    }

    #[test]
    fn recovery_after_checkpoint() {
        let stable = SharedStorage::new();
        {
            let mut mgr = TxManager::open(0, stable.clone()).unwrap();
            for i in 0..10u8 {
                let a = mgr.begin();
                mgr.write_key(&a, &key(&format!("o{i}")), &i).unwrap();
                mgr.commit(a).unwrap();
            }
            mgr.checkpoint().unwrap();
            let a = mgr.begin();
            mgr.write_key(&a, &key("post"), &99u8).unwrap();
            mgr.commit(a).unwrap();
        }
        let mgr = TxManager::open(0, stable).unwrap();
        assert_eq!(mgr.object_count(), 11);
        assert_eq!(mgr.read_committed_key::<u8>(&key("o7")).unwrap(), Some(7));
        assert_eq!(
            mgr.read_committed_key::<u8>(&key("post")).unwrap(),
            Some(99)
        );
    }

    #[test]
    fn checkpoint_shrinks_log() {
        let mut mgr = TxManager::in_memory();
        for i in 0..100u32 {
            let a = mgr.begin();
            mgr.write_key(&a, &key("hot"), &i).unwrap();
            mgr.commit(a).unwrap();
        }
        let before = mgr.log_size();
        mgr.checkpoint().unwrap();
        assert!(mgr.log_size() < before / 10);
        assert_eq!(
            mgr.read_committed_key::<u32>(&key("hot")).unwrap(),
            Some(99)
        );
    }

    #[test]
    fn read_only_commit_appends_nothing() {
        let mut mgr = TxManager::in_memory();
        let a = mgr.begin();
        mgr.write_key(&a, &key("x"), &1u8).unwrap();
        mgr.commit(a).unwrap();
        let size = mgr.log_size();
        let b = mgr.begin();
        assert!(mgr.read_through(Some(&b), &key("x")).is_some());
        mgr.commit(b).unwrap();
        assert_eq!(mgr.log_size(), size);
    }

    #[test]
    fn prefix_enumeration_sorted() {
        let mut mgr = TxManager::in_memory();
        let a = mgr.begin();
        mgr.write_key(&a, &key("inst/1/b"), &1u8).unwrap();
        mgr.write_key(&a, &key("inst/1/a"), &1u8).unwrap();
        mgr.write_key(&a, &key("inst/2/a"), &1u8).unwrap();
        // Fact keys never leak into uid prefix scans.
        mgr.write_key(&a, &StoreKey::Fact(FactKey::output(1, 0, 0)), &1u8)
            .unwrap();
        mgr.commit(a).unwrap();
        let uids = mgr.uids_with_prefix("inst/1/");
        assert_eq!(uids, vec![uid("inst/1/a"), uid("inst/1/b")]);
    }

    #[test]
    fn prefix_scan_counter_tracks_only_prefix_walks() {
        let mut mgr = TxManager::in_memory();
        assert_eq!(counter(&mgr, "tx.prefix_scans"), 0);
        let a = mgr.begin();
        mgr.write_key(&a, &key("inst/1/a"), &1u8).unwrap();
        mgr.write_key(&a, &StoreKey::Fact(FactKey::output(1, 0, 0)), &1u8)
            .unwrap();
        mgr.commit(a).unwrap();
        // Point reads and dense-key range scans are not prefix scans.
        let _ = mgr.read_committed_key::<u8>(&key("inst/1/a")).unwrap();
        let _ = mgr.fact_keys_in_range(FactKey::instance_first(1), FactKey::instance_last(1));
        assert_eq!(counter(&mgr, "tx.prefix_scans"), 0);
        let _ = mgr.uids_with_prefix("inst/");
        let _ = mgr.uids_with_prefix("inst/1/");
        assert_eq!(counter(&mgr, "tx.prefix_scans"), 2);
    }

    #[test]
    fn fact_range_scans_cover_task_and_subtree() {
        let mut mgr = TxManager::in_memory();
        let a = mgr.begin();
        for task in 1..4u32 {
            mgr.write_key(&a, &StoreKey::Fact(FactKey::input(7, task, 0)), &task)
                .unwrap();
            mgr.write_key(&a, &StoreKey::Fact(FactKey::output(7, task, 1)), &task)
                .unwrap();
        }
        // Another instance's facts must not appear.
        mgr.write_key(&a, &StoreKey::Fact(FactKey::output(8, 2, 0)), &1u8)
            .unwrap();
        mgr.commit(a).unwrap();
        let task2 = mgr.fact_keys_in_range(FactKey::task_first(7, 2), FactKey::task_last(7, 2));
        assert_eq!(
            task2,
            vec![FactKey::input(7, 2, 0), FactKey::output(7, 2, 1)]
        );
        // DFS-contiguous subtree 2..=3 in one scan.
        let subtree = mgr.fact_keys_in_range(FactKey::task_first(7, 2), FactKey::task_last(7, 3));
        assert_eq!(subtree.len(), 4);
        let all = mgr.fact_keys_in_range(FactKey::instance_first(7), FactKey::instance_last(7));
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn fact_writes_survive_recovery_and_checkpoint() {
        let stable = SharedStorage::new();
        let fact = StoreKey::Fact(FactKey::output(3, 1, 0));
        {
            let mut mgr = TxManager::open(0, stable.clone()).unwrap();
            let a = mgr.begin();
            mgr.write_key(&a, &fact, &42u32).unwrap();
            mgr.commit(a).unwrap();
            mgr.checkpoint().unwrap();
        }
        let mgr = TxManager::open(0, stable).unwrap();
        assert_eq!(mgr.read_committed_key::<u32>(&fact).unwrap(), Some(42));
        assert!(mgr.exists_key(&fact));
        assert!(mgr.read_committed_bytes(&fact).is_some());
    }

    #[test]
    fn a_group_frame_does_not_replay() {
        // Nothing writes one: a log holding one is refused, not misread.
        let stable = SharedStorage::new();
        let group = LogRecord::GroupCommit { records: vec![] };
        Wal::new(stable.clone()).append(&group).unwrap();
        assert!(matches!(
            TxManager::open(0, stable),
            Err(TxError::Corrupt(_))
        ));
    }

    fn flaky() -> (TxManager<FlakyStorage>, Arc<AtomicBool>) {
        let storage = FlakyStorage::default();
        let fail = storage.fail.clone();
        (TxManager::open(0, storage).unwrap(), fail)
    }

    #[test]
    fn failed_commit_append_aborts_the_action() {
        let (mut mgr, fail) = flaky();
        let a = mgr.begin();
        mgr.write_key(&a, &key("x"), &1u8).unwrap();
        fail.store(true, Ordering::Relaxed);
        assert!(matches!(mgr.commit(a), Err(TxError::Storage(_))));
        fail.store(false, Ordering::Relaxed);
        // Nothing applied — and the action is consumed, so it is no
        // longer open: the next writer gets in, with no second abort.
        assert_eq!(mgr.read_committed_key::<u8>(&key("x")).unwrap(), None);
        let b = mgr.begin();
        mgr.write_key(&b, &key("x"), &2u8).unwrap();
        mgr.commit(b).unwrap();
        assert_eq!(mgr.read_committed_key::<u8>(&key("x")).unwrap(), Some(2));
        assert_eq!(stats(&mgr), (1, 1), "the failed commit counts as an abort");
    }

    /// `wal.writes_per_commit` samples the commit records the log took:
    /// not an action that staged nothing, nor one whose append failed.
    #[test]
    fn writes_per_commit_samples_only_records_the_log_took() {
        let (mut mgr, fail) = flaky();
        *mgr.metrics_mut() = TxMetrics::new(ObserveLevel::Metrics);
        let empty = mgr.begin();
        mgr.commit(empty).unwrap();
        let refused = mgr.begin();
        mgr.write_key(&refused, &key("x"), &1u8).unwrap();
        fail.store(true, Ordering::Relaxed);
        assert!(matches!(mgr.commit(refused), Err(TxError::Storage(_))));
        fail.store(false, Ordering::Relaxed);
        let taken = mgr.begin();
        mgr.write_key(&taken, &key("x"), &2u8).unwrap();
        mgr.write_key(&taken, &key("y"), &3u8).unwrap();
        mgr.commit(taken).unwrap();
        let snapshot = mgr.metrics().snapshot();
        let per_commit = snapshot.histogram("wal.writes_per_commit").unwrap();
        assert_eq!((per_commit.count, per_commit.sum), (1, 2));
        let frames = snapshot.histogram("wal.bytes_per_frame").unwrap();
        assert_eq!(frames.count, 1, "one sample per frame, as here");
    }

    #[test]
    fn fence_blocks_other_nodes_append_mid_run() {
        let stable = SharedStorage::new();
        let mut zombie = TxManager::open(0, stable.clone()).unwrap();
        let a = zombie.begin();
        zombie.write_key(&a, &key("x"), &1u8).unwrap();
        zombie.commit(a).unwrap();
        // Another node claims the storage behind the zombie's back.
        let mut claimant = TxManager::open(2, stable).unwrap();
        claimant.write_fence(9).unwrap();
        // The zombie's next durable act trips over the fence.
        let b = zombie.begin();
        zombie.write_key(&b, &key("x"), &2u8).unwrap();
        assert_eq!(
            zombie.commit(b),
            Err(TxError::Fenced {
                claimant: 2,
                epoch: 9
            })
        );
        assert_eq!(zombie.fenced(), Some((2, 9)));
        // Compaction is refused too — it would erase the fence record.
        assert!(matches!(zombie.checkpoint(), Err(TxError::Fenced { .. })));
    }

    #[test]
    fn fence_survives_replay_and_claimant_is_exempt() {
        let stable = SharedStorage::new();
        {
            let mut claimant = TxManager::open(2, stable.clone()).unwrap();
            claimant.write_fence(4).unwrap();
        }
        // The fenced owner restarting sees the claim at replay.
        let mut owner = TxManager::open(0, stable.clone()).unwrap();
        assert_eq!(owner.fenced(), Some((2, 4)));
        assert_eq!(owner.tail_fence().unwrap(), Some((2, 4)));
        let a = owner.begin();
        owner.write_key(&a, &key("x"), &1u8).unwrap();
        assert!(matches!(owner.commit(a), Err(TxError::Fenced { .. })));
        // The claimant reopening its own claim is not fenced by it.
        let mut again = TxManager::open(2, stable).unwrap();
        assert_eq!(again.fenced(), None);
        let b = again.begin();
        again.write_key(&b, &key("y"), &2u8).unwrap();
        again.commit(b).unwrap();
    }

    #[test]
    fn second_claimant_loses_to_first() {
        let stable = SharedStorage::new();
        let mut first = TxManager::open(2, stable.clone()).unwrap();
        first.write_fence(4).unwrap();
        let mut second = TxManager::open(3, stable).unwrap();
        assert_eq!(
            second.write_fence(5),
            Err(TxError::Fenced {
                claimant: 2,
                epoch: 4
            })
        );
    }

    #[test]
    fn minted_ids_advance_after_recovery() {
        let stable = SharedStorage::new();
        let first;
        {
            let mut mgr = TxManager::open(0, stable.clone()).unwrap();
            let a = mgr.begin();
            first = a.id();
            mgr.write_key(&a, &key("x"), &1u8).unwrap();
            mgr.commit(a).unwrap();
        }
        let mut mgr = TxManager::open(0, stable).unwrap();
        let b = mgr.begin();
        assert!(first.is_older_than(b.id()), "ids must not repeat");
        mgr.abort(b);
    }

    /// A checkpoint keeps no commit record, so the id high-water mark
    /// rides in the checkpoint itself: without it, a reopen mints the
    /// ids of every compacted action again.
    #[test]
    fn minted_ids_advance_after_a_checkpoint() {
        let stable = SharedStorage::new();
        let mut last = None;
        {
            let mut mgr = TxManager::open(0, stable.clone()).unwrap();
            for i in 0..2u8 {
                let a = mgr.begin();
                last = Some(a.id());
                mgr.write_key(&a, &key("x"), &i).unwrap();
                mgr.commit(a).unwrap();
            }
            mgr.checkpoint().unwrap();
        }
        let mut mgr = TxManager::open(0, stable).unwrap();
        let b = mgr.begin();
        let last = last.expect("two commits");
        assert!(
            last.is_older_than(b.id()),
            "{} minted again after {last}",
            b.id()
        );
        mgr.abort(b);
    }
}
