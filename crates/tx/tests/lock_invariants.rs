//! Lock-manager invariants under random workloads:
//!
//! 1. never two concurrent writers on one object,
//! 2. never a reader concurrent with a writer,
//! 3. wait-die verdicts are consistent with transaction age,
//! 4. committed values correspond to a serial order (no lost updates
//!    within the reach of strict 2PL on a single object).

use std::collections::HashMap;

use flowscript_tx::{Conflict, ObjectUid, StoreKey, TxError, TxManager};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    Begin,
    Read(u8, u8),
    Write(u8, u8),
    Commit(u8),
    Abort(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => Just(Step::Begin),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(t, o)| Step::Read(t % 6, o % 4)),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(t, o)| Step::Write(t % 6, o % 4)),
        2 => any::<u8>().prop_map(|t| Step::Commit(t % 6)),
        1 => any::<u8>().prop_map(|t| Step::Abort(t % 6)),
    ]
}

fn key(o: u8) -> StoreKey {
    StoreKey::Uid(ObjectUid::new(format!("obj/{o}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn strict_2pl_holds_under_random_interleavings(
        steps in proptest::collection::vec(step_strategy(), 1..120),
    ) {
        let mut mgr = TxManager::in_memory();
        // Slot-indexed live actions; writers/readers track who holds what.
        let mut actions: Vec<Option<flowscript_tx::AtomicAction>> = Vec::new();
        let mut writers: HashMap<u8, usize> = HashMap::new();
        let mut readers: HashMap<u8, Vec<usize>> = HashMap::new();
        let mut write_count: u64 = 0;

        for step in steps {
            match step {
                Step::Begin => {
                    actions.push(Some(mgr.begin()));
                }
                Step::Read(t, o) => {
                    let slot = t as usize;
                    if let Some(Some(action)) = actions.get(slot) {
                        match mgr.read_key::<u64>(action, &key(o)) {
                            Ok(_) => {
                                // Invariant 2: no *other* writer may hold o.
                                if let Some(&w) = writers.get(&o) {
                                    prop_assert_eq!(w, slot,
                                        "read of {} granted while another tx writes", o);
                                }
                                readers.entry(o).or_default().push(slot);
                            }
                            Err(TxError::Lock { conflict, holder, .. }) => {
                                // Invariant 3: wait-die verdict matches age.
                                let my_id = actions[slot].as_ref().unwrap().id();
                                match conflict {
                                    Conflict::Wait => prop_assert!(my_id.is_older_than(holder)),
                                    Conflict::Die => prop_assert!(!my_id.is_older_than(holder)),
                                }
                            }
                            Err(other) => return Err(
                                TestCaseError::fail(format!("unexpected error: {other}"))),
                        }
                    }
                }
                Step::Write(t, o) => {
                    let slot = t as usize;
                    if let Some(Some(action)) = actions.get(slot) {
                        write_count += 1;
                        match mgr.write_key(action, &key(o), &write_count) {
                            Ok(()) => {
                                // Invariant 1: no other writer.
                                if let Some(&w) = writers.get(&o) {
                                    prop_assert_eq!(w, slot, "two writers on {}", o);
                                }
                                // Invariant 2: no other readers.
                                if let Some(rs) = readers.get(&o) {
                                    for &r in rs {
                                        prop_assert_eq!(r, slot,
                                            "writer granted while tx {} reads {}", r, o);
                                    }
                                }
                                writers.insert(o, slot);
                            }
                            Err(TxError::Lock { conflict, holder, .. }) => {
                                let my_id = actions[slot].as_ref().unwrap().id();
                                match conflict {
                                    Conflict::Wait => prop_assert!(my_id.is_older_than(holder)),
                                    Conflict::Die => prop_assert!(!my_id.is_older_than(holder)),
                                }
                            }
                            Err(other) => return Err(
                                TestCaseError::fail(format!("unexpected error: {other}"))),
                        }
                    }
                }
                Step::Commit(t) | Step::Abort(t) => {
                    let slot = t as usize;
                    if let Some(entry) = actions.get_mut(slot) {
                        if let Some(action) = entry.take() {
                            if matches!(step, Step::Commit(_)) {
                                mgr.commit(action).unwrap();
                            } else {
                                mgr.abort(action);
                            }
                            // Strict 2PL: all locks released at termination.
                            writers.retain(|_, w| *w != slot);
                            for rs in readers.values_mut() {
                                rs.retain(|r| *r != slot);
                            }
                        }
                    }
                }
            }
        }

        // Drain: abort everything left and verify the store decodes.
        for entry in actions.iter_mut() {
            if let Some(action) = entry.take() {
                mgr.abort(action);
            }
        }
        for o in 0..4u8 {
            let _ = mgr.read_committed_key::<u64>(&key(o)).unwrap();
        }
    }
}
