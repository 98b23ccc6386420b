#![warn(missing_docs)]
//! Arjuna-style transaction substrate for the flowscript workflow system.
//!
//! The paper's execution environment "records inter-task dependencies in
//! persistent shared objects and uses atomic transactions to implement
//! notification and dataflow dependencies" (§3), on top of OTSArjuna. This
//! crate rebuilds that substrate:
//!
//! - [`TxManager`]: atomic actions over a persistent object store —
//!   begin / read / write / delete / commit / abort, every object
//!   addressed by one key type, [`StoreKey`]. Actions are flat: the
//!   paper's substrate nests them, but nothing here used a nested
//!   action. One action is open at a time: a manager belongs to one
//!   shard, whose one-at-a-time steps are the serial order, so no action
//!   takes a lock and the next `begin` aborts an action still open,
//! - [`log`]: a redo-only write-ahead log with checksummed frames,
//! - [`storage`]: durable byte storage (in-memory for simulation — it
//!   survives simulated node crashes — or file-backed), shared through
//!   one cell type and erased to one handle, [`StableStore`],
//! - recovery: replaying the log rebuilds the committed store exactly,
//! - [`dist`]: a presumed-abort two-phase-commit state machine nothing
//!   in the workspace runs, kept for the perf ledger's probe,
//! - [`lock`]: strict two-phase locking with wait-die, which nothing in
//!   the workspace takes, kept for the perf ledger's probe.
//!
//! # Examples
//!
//! ```
//! use flowscript_tx::{ObjectUid, StoreKey, TxManager};
//!
//! # fn main() -> Result<(), flowscript_tx::TxError> {
//! let mut mgr = TxManager::in_memory();
//! let key = StoreKey::from(ObjectUid::new("account/a"));
//!
//! let a = mgr.begin();
//! mgr.write_key(&a, &key, &100u64)?;
//! mgr.commit(a)?;
//!
//! let balance: Option<u64> = mgr.read_committed_key(&key)?;
//! assert_eq!(balance, Some(100));
//! # Ok(())
//! # }
//! ```

pub mod dist;
mod error;
mod id;
mod key;
pub mod lock;
pub mod log;
mod manager;
pub mod storage;
mod store;

pub use error::TxError;
pub use id::{ObjectUid, TxId};
pub use key::{FactKey, FactKind, StoreKey};
pub use lock::LockMode;
pub use log::{LogRecord, Wal};
pub use manager::{AtomicAction, TxManager, TxMetrics};
pub use storage::{
    FileStorage, MemStorage, Shared, SharedFileStorage, SharedStorage, StableStore, Storage,
};
