//! Presumed-abort two-phase commit, as a pure state machine: callers
//! feed it votes, acks and time-outs, and it emits [`CoordAction`]s
//! (messages to send, decisions to persist). Keeping I/O outside makes
//! the protocol unit-testable in isolation and reusable over any
//! transport.
//!
//! **Ledger-pinned.** Nothing in the workspace runs it: the engine moves
//! an instance between shards as an idempotent claim, one local commit
//! at the destination, and the transaction manager keeps no prepared
//! stage and no decision record. The module stays whole only because the
//! perf ledger's `dist.round_ns` probe drives a [`Coordinator`] round,
//! and goes when that probe does.
//!
//! Protocol summary (presumed abort):
//!
//! 1. Coordinator sends `Prepare` with each participant's writes.
//! 2. Participants durably stage the writes and vote. A participant
//!    that cannot stage them votes no.
//! 3. On all-yes the coordinator *first persists* the commit decision,
//!    then sends `Decision{commit: true}`. On any no / timeout it sends
//!    `Decision{commit: false}` without persisting (absence ⇒ abort).
//! 4. Participants apply or drop the staged writes and ack; the
//!    coordinator retries decisions until all acks arrive.
//! 5. A recovering in-doubt participant queries the coordinator; a missing
//!    decision record means abort.

use std::collections::{BTreeMap, BTreeSet};

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};

use crate::id::TxId;
use crate::key::StoreKey;

/// Messages exchanged by the 2PC roles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistMsg {
    /// Coordinator → participant: stage these writes and vote.
    Prepare {
        /// Distributed transaction id.
        tx: TxId,
        /// Coordinator node id (for in-doubt queries).
        coordinator: u32,
        /// The participant's share of the writes.
        writes: Vec<(StoreKey, Option<Vec<u8>>)>,
    },
    /// Participant → coordinator: prepare verdict.
    Vote {
        /// Distributed transaction id.
        tx: TxId,
        /// Voting participant.
        from: u32,
        /// `true` when prepared durably.
        yes: bool,
    },
    /// Coordinator → participant: final outcome.
    Decision {
        /// Distributed transaction id.
        tx: TxId,
        /// `true` = commit.
        commit: bool,
    },
    /// Participant → coordinator: decision applied.
    Ack {
        /// Distributed transaction id.
        tx: TxId,
        /// Acknowledging participant.
        from: u32,
    },
    /// Recovering participant → coordinator: what happened to `tx`?
    QueryOutcome {
        /// Distributed transaction id.
        tx: TxId,
        /// Asking participant.
        from: u32,
    },
}

impl Encode for DistMsg {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            DistMsg::Prepare {
                tx,
                coordinator,
                writes,
            } => {
                w.put_u8(0);
                tx.encode(w);
                w.put_u32(*coordinator);
                writes.encode(w);
            }
            DistMsg::Vote { tx, from, yes } => {
                w.put_u8(1);
                tx.encode(w);
                w.put_u32(*from);
                w.put_bool(*yes);
            }
            DistMsg::Decision { tx, commit } => {
                w.put_u8(2);
                tx.encode(w);
                w.put_bool(*commit);
            }
            DistMsg::Ack { tx, from } => {
                w.put_u8(3);
                tx.encode(w);
                w.put_u32(*from);
            }
            DistMsg::QueryOutcome { tx, from } => {
                w.put_u8(4);
                tx.encode(w);
                w.put_u32(*from);
            }
        }
    }
}

impl Decode for DistMsg {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(DistMsg::Prepare {
                tx: TxId::decode(r)?,
                coordinator: r.get_u32()?,
                writes: Vec::decode(r)?,
            }),
            1 => Ok(DistMsg::Vote {
                tx: TxId::decode(r)?,
                from: r.get_u32()?,
                yes: r.get_bool()?,
            }),
            2 => Ok(DistMsg::Decision {
                tx: TxId::decode(r)?,
                commit: r.get_bool()?,
            }),
            3 => Ok(DistMsg::Ack {
                tx: TxId::decode(r)?,
                from: r.get_u32()?,
            }),
            4 => Ok(DistMsg::QueryOutcome {
                tx: TxId::decode(r)?,
                from: r.get_u32()?,
            }),
            other => Err(CodecError::InvalidDiscriminant {
                ty: "DistMsg",
                value: u64::from(other),
            }),
        }
    }
}

/// Instructions the coordinator hands back to its host environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordAction {
    /// Send `msg` to participant node `to`.
    Send {
        /// Destination participant node.
        to: u32,
        /// Message to deliver.
        msg: DistMsg,
    },
    /// Durably record the commit decision *before* emitting any
    /// subsequent `Send` of that decision (presumed abort requires it).
    PersistDecision {
        /// The decided transaction.
        tx: TxId,
        /// `true` = commit.
        commit: bool,
    },
    /// The transaction fully terminated (all acks in).
    Done {
        /// The finished transaction.
        tx: TxId,
        /// Final outcome.
        committed: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Voting,
    Deciding { commit: bool },
}

#[derive(Debug)]
struct TxState {
    participants: BTreeSet<u32>,
    votes_yes: BTreeSet<u32>,
    acked: BTreeSet<u32>,
    phase: Phase,
}

/// One participant's share of a distributed transaction's writes:
/// `(participant node, after-images)`.
pub type ParticipantWrites = (u32, AfterImages);

/// A run of after-images: `(key, new bytes or tombstone)` pairs.
pub type AfterImages = Vec<(StoreKey, Option<Vec<u8>>)>;

/// The 2PC coordinator state machine.
///
/// Decisions that must survive coordinator crashes are emitted as
/// [`CoordAction::PersistDecision`]; after a crash, rebuild with
/// [`Coordinator::new`] and answer in-doubt queries from the persisted
/// decisions.
#[derive(Debug)]
pub struct Coordinator {
    node: u32,
    live: BTreeMap<TxId, TxState>,
}

impl Coordinator {
    /// Creates a coordinator for the given node id.
    pub fn new(node: u32) -> Self {
        Self {
            node,
            live: BTreeMap::new(),
        }
    }

    /// This coordinator's node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Starts 2PC for `tx`, sharding `writes` over participants.
    /// Returns the prepare messages to send.
    ///
    /// An empty participant set commits immediately.
    pub fn begin(&mut self, tx: TxId, writes: Vec<ParticipantWrites>) -> Vec<CoordAction> {
        let participants: BTreeSet<u32> = writes.iter().map(|(n, _)| *n).collect();
        if participants.is_empty() {
            return vec![
                CoordAction::PersistDecision { tx, commit: true },
                CoordAction::Done {
                    tx,
                    committed: true,
                },
            ];
        }
        self.live.insert(
            tx,
            TxState {
                participants: participants.clone(),
                votes_yes: BTreeSet::new(),
                acked: BTreeSet::new(),
                phase: Phase::Voting,
            },
        );
        writes
            .into_iter()
            .map(|(to, writes)| CoordAction::Send {
                to,
                msg: DistMsg::Prepare {
                    tx,
                    coordinator: self.node,
                    writes,
                },
            })
            .collect()
    }

    /// Handles a participant vote.
    pub fn on_vote(&mut self, tx: TxId, from: u32, yes: bool) -> Vec<CoordAction> {
        let Some(state) = self.live.get_mut(&tx) else {
            return Vec::new();
        };
        if state.phase != Phase::Voting || !state.participants.contains(&from) {
            return Vec::new();
        }
        if !yes {
            return self.decide(tx, false);
        }
        state.votes_yes.insert(from);
        if state.votes_yes == state.participants {
            self.decide(tx, true)
        } else {
            Vec::new()
        }
    }

    fn decide(&mut self, tx: TxId, commit: bool) -> Vec<CoordAction> {
        let state = self.live.get_mut(&tx).expect("deciding unknown tx");
        state.phase = Phase::Deciding { commit };
        let mut actions = Vec::new();
        if commit {
            actions.push(CoordAction::PersistDecision { tx, commit });
        }
        for &to in &state.participants {
            actions.push(CoordAction::Send {
                to,
                msg: DistMsg::Decision { tx, commit },
            });
        }
        actions
    }

    /// Handles a participant ack of the decision.
    pub fn on_ack(&mut self, tx: TxId, from: u32) -> Vec<CoordAction> {
        let Some(state) = self.live.get_mut(&tx) else {
            return Vec::new();
        };
        let Phase::Deciding { commit } = state.phase else {
            return Vec::new();
        };
        state.acked.insert(from);
        if state.acked == state.participants {
            self.live.remove(&tx);
            vec![CoordAction::Done {
                tx,
                committed: commit,
            }]
        } else {
            Vec::new()
        }
    }

    /// Periodic timeout driver: aborts stuck votes, re-sends undelivered
    /// decisions. Call on a timer until the transaction is `Done`.
    pub fn on_timeout(&mut self, tx: TxId) -> Vec<CoordAction> {
        let Some(state) = self.live.get(&tx) else {
            return Vec::new();
        };
        match state.phase {
            Phase::Voting => self.decide(tx, false),
            Phase::Deciding { commit } => {
                let state = self.live.get(&tx).expect("checked above");
                state
                    .participants
                    .difference(&state.acked)
                    .map(|&to| CoordAction::Send {
                        to,
                        msg: DistMsg::Decision { tx, commit },
                    })
                    .collect()
            }
        }
    }

    /// Drops `tx` undecided: the host could not make its
    /// [`CoordAction::PersistDecision`] durable, so the decision was
    /// never taken — from now on a query is answered from the log, where
    /// presumed abort reads nothing as abort.
    pub fn abandon(&mut self, tx: TxId) {
        self.live.remove(&tx);
    }

    /// Answers an in-doubt participant. `persisted` is the durable
    /// decision looked up by the host (presumed abort: `None` ⇒ abort).
    pub fn on_query(&self, tx: TxId, from: u32, persisted: Option<bool>) -> Vec<CoordAction> {
        let commit = match (&self.live.get(&tx), persisted) {
            (Some(state), _) => match state.phase {
                Phase::Deciding { commit } => commit,
                Phase::Voting => return Vec::new(), // still undecided; participant waits
            },
            (None, Some(decision)) => decision,
            (None, None) => false, // presumed abort
        };
        vec![CoordAction::Send {
            to: from,
            msg: DistMsg::Decision { tx, commit },
        }]
    }

    /// Transactions still in flight (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(s: &str) -> StoreKey {
        StoreKey::Uid(crate::id::ObjectUid::new(s))
    }

    fn tx() -> TxId {
        TxId::new(0, 42)
    }

    fn writes_for(parts: &[u32]) -> Vec<ParticipantWrites> {
        parts
            .iter()
            .map(|&p| (p, vec![(uid(&format!("o{p}")), Some(vec![p as u8]))]))
            .collect()
    }

    fn sends(actions: &[CoordAction]) -> Vec<(u32, &DistMsg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                CoordAction::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn all_yes_commits_with_persist_before_sends() {
        let mut c = Coordinator::new(0);
        let actions = c.begin(tx(), writes_for(&[1, 2]));
        assert_eq!(sends(&actions).len(), 2);

        assert!(c.on_vote(tx(), 1, true).is_empty());
        let decision_actions = c.on_vote(tx(), 2, true);
        // Persist must come before any decision send.
        assert!(matches!(
            decision_actions[0],
            CoordAction::PersistDecision { commit: true, .. }
        ));
        let decision_sends = sends(&decision_actions);
        assert_eq!(decision_sends.len(), 2);
        for (_, msg) in decision_sends {
            assert_eq!(
                msg,
                &DistMsg::Decision {
                    tx: tx(),
                    commit: true
                }
            );
        }

        assert!(c.on_ack(tx(), 1).is_empty());
        let done = c.on_ack(tx(), 2);
        assert_eq!(
            done,
            vec![CoordAction::Done {
                tx: tx(),
                committed: true
            }]
        );
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn any_no_aborts_without_persist() {
        let mut c = Coordinator::new(0);
        c.begin(tx(), writes_for(&[1, 2]));
        c.on_vote(tx(), 1, true);
        let actions = c.on_vote(tx(), 2, false);
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, CoordAction::PersistDecision { .. })),
            "aborts are presumed, not persisted"
        );
        for (_, msg) in sends(&actions) {
            assert_eq!(
                msg,
                &DistMsg::Decision {
                    tx: tx(),
                    commit: false
                }
            );
        }
    }

    #[test]
    fn timeout_during_voting_aborts() {
        let mut c = Coordinator::new(0);
        c.begin(tx(), writes_for(&[1, 2]));
        c.on_vote(tx(), 1, true);
        let actions = c.on_timeout(tx());
        for (_, msg) in sends(&actions) {
            assert!(matches!(msg, DistMsg::Decision { commit: false, .. }));
        }
    }

    #[test]
    fn timeout_after_decision_resends_to_unacked_only() {
        let mut c = Coordinator::new(0);
        c.begin(tx(), writes_for(&[1, 2]));
        c.on_vote(tx(), 1, true);
        c.on_vote(tx(), 2, true);
        c.on_ack(tx(), 1);
        let actions = c.on_timeout(tx());
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, 2);
    }

    #[test]
    fn empty_participant_set_commits_immediately() {
        let mut c = Coordinator::new(0);
        let actions = c.begin(tx(), vec![]);
        assert!(actions.contains(&CoordAction::Done {
            tx: tx(),
            committed: true
        }));
    }

    #[test]
    fn query_uses_presumed_abort() {
        let c = Coordinator::new(0);
        // Unknown tx, no persisted decision: abort.
        let actions = c.on_query(tx(), 7, None);
        assert_eq!(
            sends(&actions)[0].1,
            &DistMsg::Decision {
                tx: tx(),
                commit: false
            }
        );
        // Unknown tx but persisted commit: commit.
        let actions = c.on_query(tx(), 7, Some(true));
        assert_eq!(
            sends(&actions)[0].1,
            &DistMsg::Decision {
                tx: tx(),
                commit: true
            }
        );
    }

    #[test]
    fn an_abandoned_commit_is_answered_from_the_log() {
        let mut c = Coordinator::new(0);
        c.begin(tx(), writes_for(&[1]));
        let decided = c.on_vote(tx(), 1, true);
        assert!(matches!(
            decided[0],
            CoordAction::PersistDecision { commit: true, .. }
        ));
        // The persist failed: nothing durable, nothing decided.
        c.abandon(tx());
        let actions = c.on_query(tx(), 1, None);
        assert_eq!(
            sends(&actions),
            [(
                1,
                &DistMsg::Decision {
                    tx: tx(),
                    commit: false
                }
            )]
        );
        assert!(c.on_timeout(tx()).is_empty() && c.on_ack(tx(), 1).is_empty());
    }

    #[test]
    fn query_while_voting_gets_no_answer_yet() {
        let mut c = Coordinator::new(0);
        c.begin(tx(), writes_for(&[1]));
        assert!(c.on_query(tx(), 1, None).is_empty());
    }

    #[test]
    fn duplicate_and_stray_messages_ignored() {
        let mut c = Coordinator::new(0);
        c.begin(tx(), writes_for(&[1]));
        // Vote from a non-participant.
        assert!(c.on_vote(tx(), 99, true).is_empty());
        let decided = c.on_vote(tx(), 1, true);
        assert!(!decided.is_empty());
        // Second identical vote after decision: ignored.
        assert!(c.on_vote(tx(), 1, true).is_empty());
        // Ack for unknown tx: ignored.
        assert!(c.on_ack(TxId::new(5, 5), 1).is_empty());
    }

    #[test]
    fn messages_roundtrip_codec() {
        let msgs = vec![
            DistMsg::Prepare {
                tx: tx(),
                coordinator: 3,
                writes: vec![(uid("a"), None), (uid("b"), Some(vec![1]))],
            },
            DistMsg::Vote {
                tx: tx(),
                from: 1,
                yes: true,
            },
            DistMsg::Decision {
                tx: tx(),
                commit: false,
            },
            DistMsg::Ack { tx: tx(), from: 2 },
            DistMsg::QueryOutcome { tx: tx(), from: 2 },
        ];
        for msg in msgs {
            let bytes = flowscript_codec::to_bytes(&msg);
            assert_eq!(
                flowscript_codec::from_bytes::<DistMsg>(&bytes).unwrap(),
                msg
            );
        }
    }
}
