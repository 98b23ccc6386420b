//! Strict two-phase locking with wait-die deadlock avoidance.
//!
//! The lock manager grants read (shared) and write (exclusive) locks on
//! [`StoreKey`]s to transactions. Locks are held until the action commits
//! or aborts (strict 2PL), which together with redo-only logging gives
//! serialisable, recoverable histories.
//!
//! Deadlock is avoided rather than detected: on conflict, an older
//! requester is told to [`Conflict::Wait`] (retry later) while a younger
//! one is told to [`Conflict::Die`] (abort itself). Age comes from
//! [`TxId`] ordering, so the policy is deterministic.
//!
//! **Ledger-pinned.** No transaction manager takes a lock: a manager has
//! one open action at a time, its shard's steps being the serial order.
//! The module stays whole only because the perf ledger's
//! `lock.acquire_ns` probe drives a [`LockManager`], and goes when that
//! probe does.

use std::collections::HashMap;

use crate::id::TxId;
use crate::key::StoreKey;

/// Lock compatibility modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared: compatible with other reads.
    Read,
    /// Exclusive: compatible with nothing.
    Write,
}

/// Wait-die verdict handed to a conflicting requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conflict {
    /// Requester is older than the holder: it may retry later.
    Wait,
    /// Requester is younger: it must abort (it would risk deadlock).
    Die,
}

#[derive(Debug)]
struct LockState {
    mode: LockMode,
    /// Holding transactions. Multiple holders only under `Read`.
    holders: Vec<TxId>,
}

/// The lock table.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: HashMap<StoreKey, LockState>,
}

/// Outcome of an acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquired {
    /// The lock was granted (or upgraded, or already held).
    Granted,
    /// Conflict with `holder`; the requester received the given verdict.
    Conflicted {
        /// A transaction currently blocking the request.
        holder: TxId,
        /// The wait-die verdict for the requester.
        verdict: Conflict,
    },
}

impl LockManager {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to acquire `key` in `mode` for `tx`.
    ///
    /// Re-acquisition by a current holder is granted, including a
    /// read→write upgrade when `tx` is the *sole* holder.
    pub fn acquire(&mut self, tx: TxId, key: &StoreKey, mode: LockMode) -> Acquired {
        match self.locks.get_mut(key) {
            None => {
                self.locks.insert(
                    key.clone(),
                    LockState {
                        mode,
                        holders: vec![tx],
                    },
                );
                Acquired::Granted
            }
            Some(state) => {
                let already_holds = state.holders.contains(&tx);
                match (state.mode, mode) {
                    (LockMode::Read, LockMode::Read) => {
                        if !already_holds {
                            state.holders.push(tx);
                        }
                        Acquired::Granted
                    }
                    (LockMode::Read, LockMode::Write) => {
                        if already_holds && state.holders.len() == 1 {
                            state.mode = LockMode::Write;
                            Acquired::Granted
                        } else {
                            let holder = *state
                                .holders
                                .iter()
                                .find(|h| **h != tx)
                                .expect("conflicting read holder");
                            Acquired::Conflicted {
                                holder,
                                verdict: Self::verdict(tx, holder),
                            }
                        }
                    }
                    (LockMode::Write, _) => {
                        if already_holds {
                            Acquired::Granted
                        } else {
                            let holder = state.holders[0];
                            Acquired::Conflicted {
                                holder,
                                verdict: Self::verdict(tx, holder),
                            }
                        }
                    }
                }
            }
        }
    }

    fn verdict(requester: TxId, holder: TxId) -> Conflict {
        if requester.is_older_than(holder) {
            Conflict::Wait
        } else {
            Conflict::Die
        }
    }

    /// Releases every lock held by `tx`.
    pub fn release_all(&mut self, tx: TxId) {
        self.locks.retain(|_, state| {
            state.holders.retain(|h| *h != tx);
            !state.holders.is_empty()
        });
    }

    /// Whether `tx` holds a lock on `key` in a mode at least `mode`.
    pub fn holds(&self, tx: TxId, key: &StoreKey, mode: LockMode) -> bool {
        match self.locks.get(key) {
            None => false,
            Some(state) => {
                state.holders.contains(&tx)
                    && match (state.mode, mode) {
                        (LockMode::Write, _) => true,
                        (LockMode::Read, LockMode::Read) => true,
                        (LockMode::Read, LockMode::Write) => false,
                    }
            }
        }
    }

    /// Number of objects currently locked (diagnostics).
    pub fn locked_objects(&self) -> usize {
        self.locks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(s: &str) -> StoreKey {
        StoreKey::Uid(crate::id::ObjectUid::new(s))
    }

    #[test]
    fn shared_reads_coexist() {
        let mut lm = LockManager::new();
        let t1 = TxId::new(0, 1);
        let t2 = TxId::new(0, 2);
        assert_eq!(lm.acquire(t1, &uid("o"), LockMode::Read), Acquired::Granted);
        assert_eq!(lm.acquire(t2, &uid("o"), LockMode::Read), Acquired::Granted);
        assert!(lm.holds(t1, &uid("o"), LockMode::Read));
        assert!(lm.holds(t2, &uid("o"), LockMode::Read));
    }

    #[test]
    fn write_excludes_write_with_wait_die() {
        let mut lm = LockManager::new();
        let old = TxId::new(0, 1);
        let young = TxId::new(0, 2);
        assert_eq!(
            lm.acquire(young, &uid("o"), LockMode::Write),
            Acquired::Granted
        );
        // Older requester waits.
        assert_eq!(
            lm.acquire(old, &uid("o"), LockMode::Write),
            Acquired::Conflicted {
                holder: young,
                verdict: Conflict::Wait
            }
        );
        lm.release_all(young);
        let mut lm2 = LockManager::new();
        assert_eq!(
            lm2.acquire(old, &uid("o"), LockMode::Write),
            Acquired::Granted
        );
        // Younger requester dies.
        assert_eq!(
            lm2.acquire(young, &uid("o"), LockMode::Write),
            Acquired::Conflicted {
                holder: old,
                verdict: Conflict::Die
            }
        );
    }

    #[test]
    fn sole_reader_upgrades() {
        let mut lm = LockManager::new();
        let t1 = TxId::new(0, 1);
        assert_eq!(lm.acquire(t1, &uid("o"), LockMode::Read), Acquired::Granted);
        assert_eq!(
            lm.acquire(t1, &uid("o"), LockMode::Write),
            Acquired::Granted
        );
        assert!(lm.holds(t1, &uid("o"), LockMode::Write));
    }

    #[test]
    fn shared_reader_cannot_upgrade() {
        let mut lm = LockManager::new();
        let t1 = TxId::new(0, 1);
        let t2 = TxId::new(0, 2);
        lm.acquire(t1, &uid("o"), LockMode::Read);
        lm.acquire(t2, &uid("o"), LockMode::Read);
        assert!(matches!(
            lm.acquire(t1, &uid("o"), LockMode::Write),
            Acquired::Conflicted { holder, .. } if holder == t2
        ));
    }

    #[test]
    fn release_frees_objects() {
        let mut lm = LockManager::new();
        let t1 = TxId::new(0, 1);
        lm.acquire(t1, &uid("a"), LockMode::Write);
        lm.acquire(t1, &uid("b"), LockMode::Read);
        assert_eq!(lm.locked_objects(), 2);
        lm.release_all(t1);
        assert_eq!(lm.locked_objects(), 0);
        assert!(!lm.holds(t1, &uid("a"), LockMode::Read));
    }

    #[test]
    fn reacquire_same_mode_is_idempotent() {
        let mut lm = LockManager::new();
        let t1 = TxId::new(0, 1);
        lm.acquire(t1, &uid("o"), LockMode::Write);
        assert_eq!(
            lm.acquire(t1, &uid("o"), LockMode::Write),
            Acquired::Granted
        );
        assert_eq!(lm.acquire(t1, &uid("o"), LockMode::Read), Acquired::Granted);
    }
}
