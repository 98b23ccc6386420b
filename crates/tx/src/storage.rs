//! Durable byte storage behind the write-ahead log.
//!
//! In simulation, durable state must survive *simulated node crashes* while
//! living in the test process: [`MemStorage`] is shared via
//! [`SharedStorage`] (an `Rc` cell), so a "crashed" node's `TxManager` can
//! be dropped and a fresh one recovered from the same bytes — exactly the
//! paper's model of stable storage surviving processor crashes.
//! [`FileStorage`] provides real on-disk durability for non-simulated use.

use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::rc::Rc;

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

/// A reference-counted storage cell, cloneable across the "disk" boundary:
/// the simulated machine holds one clone, the simulated stable store the
/// other. Dropping the machine's clone (crash) does not lose the bytes.
#[derive(Debug, Clone, Default)]
pub struct SharedStorage {
    inner: Rc<RefCell<MemStorage>>,
}

impl SharedStorage {
    /// Creates empty shared storage.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for SharedStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), TxError> {
        self.inner.borrow_mut().append(bytes)
    }

    fn read_all(&self) -> Result<Vec<u8>, TxError> {
        self.inner.borrow().read_all()
    }

    fn truncate(&mut self, len: u64) -> Result<(), TxError> {
        self.inner.borrow_mut().truncate(len)
    }

    fn len(&self) -> u64 {
        self.inner.borrow().len()
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

/// A [`FileStorage`] behind an `Rc` cell, cloneable across the "disk"
/// boundary exactly like [`SharedStorage`]: the simulated machine and
/// the simulated stable store hold clones of the same open log file, so
/// a crashed node's `TxManager` can be dropped and a fresh one
/// recovered over the surviving file.
#[derive(Debug, Clone)]
pub struct SharedFileStorage {
    inner: Rc<RefCell<FileStorage>>,
}

impl SharedFileStorage {
    /// Opens (creating if absent) the log file at `path`, keeping any
    /// existing contents — the restart-over-a-surviving-disk shape.
    ///
    /// # Errors
    ///
    /// [`TxError::Storage`] if the file cannot be opened.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TxError> {
        Ok(Self {
            inner: Rc::new(RefCell::new(FileStorage::open(path)?)),
        })
    }

    /// Opens the log file at `path` truncated to empty — a fresh log
    /// for a brand-new system (benchmarks, throwaway tests).
    ///
    /// # Errors
    ///
    /// [`TxError::Storage`] if the file cannot be opened or truncated.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, TxError> {
        let store = Self::open(path)?;
        store.inner.borrow_mut().truncate(0)?;
        Ok(store)
    }
}

impl Storage for SharedFileStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), TxError> {
        self.inner.borrow_mut().append(bytes)
    }

    fn read_all(&self) -> Result<Vec<u8>, TxError> {
        self.inner.borrow().read_all()
    }

    fn truncate(&mut self, len: u64) -> Result<(), TxError> {
        self.inner.borrow_mut().truncate(len)
    }

    fn len(&self) -> u64 {
        self.inner.borrow().len()
    }
}

/// The stable store a coordinator journals to: simulated memory (the
/// default — crash survival without touching the real disk) or a real
/// synced file (every WAL frame append is a `write` + `fdatasync`, the
/// cost that group commit amortizes).
#[derive(Debug, Clone)]
pub enum StableStore {
    /// Simulated stable memory ([`SharedStorage`]).
    Mem(SharedStorage),
    /// A synced on-disk log file ([`SharedFileStorage`]).
    File(SharedFileStorage),
}

impl Default for StableStore {
    fn default() -> Self {
        Self::Mem(SharedStorage::default())
    }
}

impl From<SharedStorage> for StableStore {
    fn from(storage: SharedStorage) -> Self {
        Self::Mem(storage)
    }
}

impl From<SharedFileStorage> for StableStore {
    fn from(storage: SharedFileStorage) -> Self {
        Self::File(storage)
    }
}

impl Storage for StableStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), TxError> {
        match self {
            Self::Mem(s) => s.append(bytes),
            Self::File(s) => s.append(bytes),
        }
    }

    fn read_all(&self) -> Result<Vec<u8>, TxError> {
        match self {
            Self::Mem(s) => s.read_all(),
            Self::File(s) => s.read_all(),
        }
    }

    fn truncate(&mut self, len: u64) -> Result<(), TxError> {
        match self {
            Self::Mem(s) => s.truncate(len),
            Self::File(s) => s.truncate(len),
        }
    }

    fn len(&self) -> u64 {
        match self {
            Self::Mem(s) => s.len(),
            Self::File(s) => s.len(),
        }
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
    fn shared_storage_survives_clone_drop() {
        let stable = SharedStorage::new();
        {
            let mut machine_view = stable.clone();
            machine_view.append(b"durable").unwrap();
            // machine "crashes": its clone is dropped here.
        }
        assert_eq!(stable.read_all().unwrap(), b"durable");
        assert_eq!(stable.read_all().unwrap(), b"durable");
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

    #[test]
    fn shared_file_storage_survives_clone_drop_and_reopen() {
        let dir = std::env::temp_dir().join(format!("fs-tx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-shared.log");
        let stable = SharedFileStorage::create(&path).unwrap();
        {
            let mut machine_view = stable.clone();
            machine_view.append(b"durable").unwrap();
            // machine "crashes": its clone is dropped here.
        }
        assert_eq!(stable.read_all().unwrap(), b"durable");
        // A whole-process restart: reopen from the path, non-truncating.
        let reopened = SharedFileStorage::open(&path).unwrap();
        assert_eq!(reopened.read_all().unwrap(), b"durable");
        // `create` starts a fresh log over the same file.
        let fresh = SharedFileStorage::create(&path).unwrap();
        assert!(fresh.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stable_store_variants_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fs-tx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-stable.log");
        let mut stores = [
            StableStore::default(),
            StableStore::from(SharedFileStorage::create(&path).unwrap()),
        ];
        for store in &mut stores {
            assert!(store.is_empty());
            store.append(b"frame-1").unwrap();
            store.append(b"frame-2").unwrap();
            assert_eq!(store.read_all().unwrap(), b"frame-1frame-2");
            store.truncate(7).unwrap();
            assert_eq!(store.read_all().unwrap(), b"frame-1");
            // Clones view the same bytes (the shared-disk contract).
            assert_eq!(store.clone().read_all().unwrap(), b"frame-1");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
