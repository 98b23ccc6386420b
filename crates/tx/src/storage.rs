//! Durable byte storage behind the write-ahead log.
//!
//! In simulation, durable state must survive *simulated node crashes* while
//! living in the test process: a [`Storage`] is shared via [`Shared`] (an
//! `Arc<Mutex>`), so a "crashed" node's `TxManager` can be dropped and a
//! fresh one recovered from the same bytes — exactly the paper's model of
//! stable storage surviving processor crashes. [`MemStorage`] is the
//! simulated disk, [`FileStorage`] provides real on-disk durability, and
//! [`StableStore`] is either — or any other [`Storage`], a test double
//! included — behind one handle.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::TxError;

/// Append-only byte storage with full read-back and truncation.
pub trait Storage {
    /// Appends bytes at the end.
    ///
    /// # Errors
    ///
    /// [`TxError::Storage`] on I/O failure.
    fn append(&mut self, bytes: &[u8]) -> Result<(), TxError>;

    /// Reads the entire contents.
    ///
    /// # Errors
    ///
    /// [`TxError::Storage`] on I/O failure.
    fn read_all(&self) -> Result<Vec<u8>, TxError>;

    /// Truncates to `len` bytes (used to drop a torn tail or after a
    /// checkpoint rewrite).
    ///
    /// # Errors
    ///
    /// [`TxError::Storage`] on I/O failure.
    fn truncate(&mut self, len: u64) -> Result<(), TxError>;

    /// Current length in bytes.
    fn len(&self) -> u64;

    /// Whether the storage is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// In-memory storage.
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    bytes: Vec<u8>,
}

impl MemStorage {
    /// Creates empty in-memory storage.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), TxError> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>, TxError> {
        Ok(self.bytes.clone())
    }

    fn truncate(&mut self, len: u64) -> Result<(), TxError> {
        self.bytes.truncate(len as usize);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }
}

/// File-backed storage, syncing on every append.
#[derive(Debug)]
pub struct FileStorage {
    file: File,
    len: u64,
}

impl FileStorage {
    /// Opens (creating if absent) the log file at `path`.
    ///
    /// # Errors
    ///
    /// [`TxError::Storage`] if the file cannot be opened.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TxError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| TxError::Storage(e.to_string()))?;
        let len = file
            .metadata()
            .map_err(|e| TxError::Storage(e.to_string()))?
            .len();
        Ok(Self { file, len })
    }
}

impl Storage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), TxError> {
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| TxError::Storage(e.to_string()))?;
        self.file
            .write_all(bytes)
            .map_err(|e| TxError::Storage(e.to_string()))?;
        self.file
            .sync_data()
            .map_err(|e| TxError::Storage(e.to_string()))?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>, TxError> {
        let mut file = self
            .file
            .try_clone()
            .map_err(|e| TxError::Storage(e.to_string()))?;
        file.seek(SeekFrom::Start(0))
            .map_err(|e| TxError::Storage(e.to_string()))?;
        let mut out = Vec::with_capacity(self.len as usize);
        file.read_to_end(&mut out)
            .map_err(|e| TxError::Storage(e.to_string()))?;
        Ok(out)
    }

    fn truncate(&mut self, len: u64) -> Result<(), TxError> {
        self.file
            .set_len(len)
            .map_err(|e| TxError::Storage(e.to_string()))?;
        self.len = len;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// A storage cell shared across the "disk" boundary: the simulated
/// machine holds one clone, the simulated stable store the other, and
/// dropping the machine's clone (a crash) does not lose the bytes — a
/// fresh `TxManager` recovers from what the surviving clone holds. A
/// clone is `Send` when the storage is: the façade, a shard and the
/// claimant of a dead shard's disk really share the bytes.
pub struct Shared<S: ?Sized> {
    inner: Arc<Mutex<S>>,
}

/// Simulated stable memory: crash survival without touching a disk.
pub type SharedStorage = Shared<MemStorage>;

/// One open, synced log file shared the same way: every WAL frame append
/// is a `write` + `fdatasync`, the cost that the commit window amortizes.
pub type SharedFileStorage = Shared<FileStorage>;

/// The stable store a coordinator journals to: any shared storage, its
/// type erased. Built `From` a [`SharedStorage`], a
/// [`SharedFileStorage`], or a `Shared::from` of any other [`Storage`].
pub type StableStore = Shared<dyn Storage + Send>;

impl<S: ?Sized> Shared<S> {
    /// The storage. No [`Storage`] call here panics midway, so a
    /// poisoned lock is a bug.
    fn lock(&self) -> MutexGuard<'_, S> {
        self.inner
            .lock()
            .expect("a storage call panicked holding the disk")
    }
}

impl<S: ?Sized> Clone for Shared<S> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: ?Sized> fmt::Debug for Shared<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl<S: Storage> From<S> for Shared<S> {
    fn from(storage: S) -> Self {
        Self {
            inner: Arc::new(Mutex::new(storage)),
        }
    }
}

impl<S: Storage + Send + 'static> From<Shared<S>> for StableStore {
    fn from(storage: Shared<S>) -> Self {
        Self {
            inner: storage.inner,
        }
    }
}

impl<S: Storage + Default> Default for Shared<S> {
    fn default() -> Self {
        Self::from(S::default())
    }
}

impl SharedStorage {
    /// Creates empty shared storage.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SharedFileStorage {
    /// Opens (creating if absent) the log file at `path`, keeping any
    /// existing contents — the restart-over-a-surviving-disk shape.
    ///
    /// # Errors
    ///
    /// [`TxError::Storage`] if the file cannot be opened.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TxError> {
        FileStorage::open(path).map(Self::from)
    }

    /// Opens the log file at `path` truncated to empty — a fresh log
    /// for a brand-new system (benchmarks, throwaway tests).
    ///
    /// # Errors
    ///
    /// [`TxError::Storage`] if the file cannot be opened or truncated.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, TxError> {
        let mut store = Self::open(path)?;
        store.truncate(0)?;
        Ok(store)
    }
}

impl<S: Storage + ?Sized> Storage for Shared<S> {
    fn append(&mut self, bytes: &[u8]) -> Result<(), TxError> {
        self.lock().append(bytes)
    }

    fn read_all(&self) -> Result<Vec<u8>, TxError> {
        self.lock().read_all()
    }

    fn truncate(&mut self, len: u64) -> Result<(), TxError> {
        self.lock().truncate(len)
    }

    fn len(&self) -> u64 {
        self.lock().len()
    }
}

/// A [`MemStorage`] whose appends fail while `fail` is set, or for as
/// many appends as `fail_next` counts down: the one failure a test
/// double injects so far (tearing and crash points are ROADMAP item
/// 2's).
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct FlakyStorage {
    inner: MemStorage,
    /// The switch: keep a clone, set it, and appends fail.
    pub fail: Arc<AtomicBool>,
    /// The count: keep a clone, set it to `n`, and the next `n` appends
    /// fail.
    pub fail_next: Arc<AtomicU32>,
}

impl Storage for FlakyStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), TxError> {
        let counted = self
            .fail_next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
        if self.fail.load(Ordering::Relaxed) || counted.is_ok() {
            return Err(TxError::Storage("injected append failure".into()));
        }
        self.inner.append(bytes)
    }

    fn read_all(&self) -> Result<Vec<u8>, TxError> {
        self.inner.read_all()
    }

    fn truncate(&mut self, len: u64) -> Result<(), TxError> {
        self.inner.truncate(len)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_append_read_truncate() {
        let mut s = MemStorage::new();
        assert!(s.is_empty());
        s.append(b"hello").unwrap();
        s.append(b" world").unwrap();
        assert_eq!(s.read_all().unwrap(), b"hello world");
        s.truncate(5).unwrap();
        assert_eq!(s.read_all().unwrap(), b"hello");
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn file_storage_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fs-tx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-test.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileStorage::open(&path).unwrap();
            s.append(b"abc").unwrap();
            s.append(b"def").unwrap();
            assert_eq!(s.len(), 6);
        }
        // Re-open and verify durability.
        let s = FileStorage::open(&path).unwrap();
        assert_eq!(s.read_all().unwrap(), b"abcdef");
        let mut s = s;
        s.truncate(3).unwrap();
        assert_eq!(s.read_all().unwrap(), b"abc");
        std::fs::remove_file(&path).unwrap();
    }

    /// The shared-disk contract, once, through the handle a coordinator
    /// holds — over memory, a synced file and the failing double.
    #[test]
    fn stable_store_roundtrips_over_every_storage() {
        let dir = std::env::temp_dir().join(format!("fs-tx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-stable.log");
        let stores: [(&str, StableStore); 3] = [
            ("memory", SharedStorage::new().into()),
            ("file", SharedFileStorage::create(&path).unwrap().into()),
            ("double", Shared::from(FlakyStorage::default()).into()),
        ];
        for (name, stable) in stores {
            assert!(stable.is_empty(), "{name}");
            {
                let mut machine_view = stable.clone();
                machine_view.append(b"frame-1").unwrap();
                machine_view.append(b"frame-2").unwrap();
                // machine "crashes": its clone is dropped here.
            }
            assert_eq!(stable.read_all().unwrap(), b"frame-1frame-2", "{name}");
            let mut store = stable.clone();
            store.truncate(7).unwrap();
            assert_eq!(store.len(), 7, "{name}");
            // Clones view the same bytes.
            assert_eq!(stable.read_all().unwrap(), b"frame-1", "{name}");
        }
        // A whole-process restart: reopen from the path, non-truncating.
        let reopened = SharedFileStorage::open(&path).unwrap();
        assert_eq!(reopened.read_all().unwrap(), b"frame-1");
        // `create` starts a fresh log over the same file.
        let fresh = SharedFileStorage::create(&path).unwrap();
        assert!(fresh.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
