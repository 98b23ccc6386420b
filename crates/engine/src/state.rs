//! Task control blocks and the Fig. 3 state machine.
//!
//! Every task instance (leaf or compound) has a persistent control block
//! ([`TaskCb`]) recording where it is in the paper's lifecycle:
//!
//! ```text
//!            bind inputs          outcome / abort
//!  Waiting ──────────────▶ Executing ─────────────▶ Done / Aborted
//!     │                     │     ▲
//!     │ scope cancelled     │mark │ repeat
//!     ▼                     ▼     │
//!  Cancelled            (marks)───┘        Failed (system gave up)
//! ```
//!
//! Compound tasks use `Active` in place of `Executing` (their "execution"
//! is their constituents'). Transitions are validated by
//! [`TaskCb::transition`]; illegal moves are programming errors and panic
//! in debug tests via the checked constructor.
//!
//! These are the in-memory types. A block is stored relative to the
//! instance's plan — its set or outcome as an ordinal of the task's
//! class, its counters only when one is non-zero — and a task without a
//! stored block is [`TaskCb::waiting`]: the codec and the one reader and
//! writer of block keys live in [`crate::facts`].

use std::sync::Arc;

/// Where a task instance is in its lifecycle. A set or outcome name is
/// shared with the plan that declares it ([`flowscript_plan::Plan::name`]):
/// reading a block copies no name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CbState {
    /// Awaiting input-set satisfaction (Fig. 3 "Wait").
    Waiting,
    /// A compound whose input set `set` is bound; constituents may run.
    Active {
        /// The bound input set.
        set: Arc<str>,
    },
    /// A leaf dispatched to an executor with input set `set`.
    Executing {
        /// The bound input set.
        set: Arc<str>,
    },
    /// Terminated in a non-abort outcome.
    Done {
        /// The outcome name.
        outcome: Arc<str>,
    },
    /// Terminated in an abort outcome (no side effects, §4.2).
    Aborted {
        /// The abort outcome name.
        outcome: Arc<str>,
    },
    /// The system exhausted its automatic retries (paper §3: "finite
    /// number of retries") without the task completing.
    Failed {
        /// Human-readable reason.
        reason: String,
    },
    /// The enclosing scope terminated before this task did.
    Cancelled,
}

impl CbState {
    /// Whether no further transitions are possible.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            CbState::Done { .. }
                | CbState::Aborted { .. }
                | CbState::Failed { .. }
                | CbState::Cancelled
        )
    }

    /// Whether the task is running (leaf dispatched or compound active).
    pub fn is_running(&self) -> bool {
        matches!(self, CbState::Active { .. } | CbState::Executing { .. })
    }
}

/// The persistent control block of one task instance. It does not name
/// its task: it is stored under the task's dense key
/// ([`FactKey::control`](flowscript_tx::FactKey::control)), and the plan
/// that assigned the id names the path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskCb {
    /// Lifecycle state.
    pub state: CbState,
    /// Which incarnation of the *parent* scope this task belongs to
    /// (compared against the parent compound's [`TaskCb::scope_inc`];
    /// stale executor replies are discarded by it).
    pub incarnation: u32,
    /// For compound tasks: the current incarnation of *its own*
    /// constituents (bumped when this compound takes a repeat outcome).
    pub scope_inc: u32,
    /// Dispatch attempt within the current incarnation: bumped by a
    /// retry and a repeat (a restart takes over or re-sends the attempt
    /// it has), and the fence a report must match ([`TaskCb::awaits`]).
    pub attempt: u32,
    /// Retries spent within the current incarnation: what the retry
    /// budget counts (a restart or a repeat spends none).
    pub retries: u32,
    /// Mark outputs already emitted (each mark fires at most once).
    pub marks_emitted: Vec<String>,
    /// Times this task produced a repeat outcome (bounded by policy).
    pub repeats: u32,
}

impl TaskCb {
    /// A fresh control block in `Waiting` — what a task whose block was
    /// never stored reads as.
    pub fn waiting() -> Self {
        Self {
            state: CbState::Waiting,
            incarnation: 0,
            scope_inc: 0,
            attempt: 0,
            retries: 0,
            marks_emitted: Vec::new(),
            repeats: 0,
        }
    }

    /// Whether the Fig. 3 state machine permits `from → to`.
    pub fn transition_allowed(from: &CbState, to: &CbState) -> bool {
        use CbState::*;
        match (from, to) {
            // Bind inputs.
            (Waiting, Executing { .. }) | (Waiting, Active { .. }) => true,
            // Termination from execution.
            (Executing { .. }, Done { .. })
            | (Executing { .. }, Aborted { .. })
            | (Executing { .. }, Failed { .. }) => true,
            (Active { .. }, Done { .. })
            | (Active { .. }, Aborted { .. })
            | (Active { .. }, Failed { .. }) => true,
            // Abort from wait (timer expiry / user abort, Fig. 3).
            (Waiting, Aborted { .. }) | (Waiting, Failed { .. }) => true,
            // Repeat: re-enter execution (same variant, new attempt).
            (Executing { .. }, Executing { .. }) => true,
            (Active { .. }, Active { .. }) => true,
            // Scope reset sends a compound's constituents back to Waiting.
            (Waiting, Waiting)
            | (Executing { .. }, Waiting)
            | (Active { .. }, Waiting)
            | (Done { .. }, Waiting)
            | (Aborted { .. }, Waiting)
            | (Failed { .. }, Waiting)
            | (Cancelled, Waiting) => true,
            // Cancellation of anything non-terminal.
            (from, Cancelled) => !from.is_terminal(),
            _ => false,
        }
    }

    /// Applies a transition.
    ///
    /// # Panics
    ///
    /// Panics if the transition is illegal — the coordinator's logic must
    /// never attempt one, so this is an internal invariant.
    pub fn transition(&mut self, to: CbState) {
        assert!(
            Self::transition_allowed(&self.state, &to),
            "illegal task transition: {:?} -> {:?}",
            self.state,
            to
        );
        self.state = to;
    }

    /// Resets the block for a new scope incarnation (compound repeat).
    pub fn reset_for_incarnation(&mut self, incarnation: u32) {
        self.state = CbState::Waiting;
        self.incarnation = incarnation;
        self.attempt = 0;
        self.retries = 0;
        self.marks_emitted.clear();
    }

    /// Whether the block is waiting for the report of exactly this
    /// dispatch: still `Executing`, in the same scope incarnation, on
    /// the same attempt. Anything else is a stale report (or a stale
    /// watchdog) and must be dropped — this is what makes at-least-once
    /// execution apply each outcome exactly once.
    pub fn awaits(&self, incarnation: u32, attempt: u32) -> bool {
        matches!(self.state, CbState::Executing { .. })
            && self.incarnation == incarnation
            && self.attempt == attempt
    }

    /// Whether this mark was already emitted in this incarnation.
    pub fn mark_emitted(&self, mark: &str) -> bool {
        self.marks_emitted.iter().any(|m| m == mark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_states() -> Vec<CbState> {
        vec![
            CbState::Waiting,
            CbState::Active { set: "main".into() },
            CbState::Executing { set: "main".into() },
            CbState::Done {
                outcome: "done".into(),
            },
            CbState::Aborted {
                outcome: "failed".into(),
            },
            CbState::Failed {
                reason: "retries exhausted".into(),
            },
            CbState::Cancelled,
        ]
    }

    #[test]
    fn terminal_classification() {
        assert!(!CbState::Waiting.is_terminal());
        assert!(!CbState::Executing { set: "m".into() }.is_terminal());
        assert!(CbState::Done {
            outcome: "d".into()
        }
        .is_terminal());
        assert!(CbState::Cancelled.is_terminal());
        assert!(CbState::Executing { set: "m".into() }.is_running());
        assert!(!CbState::Waiting.is_running());
    }

    #[test]
    fn fig3_legal_transitions() {
        use CbState::*;
        let exec = Executing { set: "main".into() };
        let done = Done {
            outcome: "ok".into(),
        };
        let aborted = Aborted {
            outcome: "failed".into(),
        };
        assert!(TaskCb::transition_allowed(&Waiting, &exec));
        assert!(TaskCb::transition_allowed(&exec, &done));
        assert!(TaskCb::transition_allowed(&exec, &aborted));
        // Abort from wait (timer / forced abort).
        assert!(TaskCb::transition_allowed(&Waiting, &aborted));
        // Repeat re-enters execution.
        assert!(TaskCb::transition_allowed(&exec, &exec));
    }

    #[test]
    fn fig3_illegal_transitions() {
        use CbState::*;
        let exec = Executing { set: "main".into() };
        let done = Done {
            outcome: "ok".into(),
        };
        // Terminated tasks cannot resume (except scope reset to Waiting).
        assert!(!TaskCb::transition_allowed(&done, &exec));
        assert!(!TaskCb::transition_allowed(&done, &done));
        assert!(!TaskCb::transition_allowed(&Cancelled, &exec));
        // Waiting cannot jump straight to Done.
        assert!(!TaskCb::transition_allowed(&Waiting, &done));
    }

    #[test]
    fn every_nonterminal_can_be_cancelled() {
        for state in all_states() {
            let allowed = TaskCb::transition_allowed(&state, &CbState::Cancelled);
            assert_eq!(allowed, !state.is_terminal(), "{state:?}");
        }
    }

    #[test]
    fn every_state_can_reset_to_waiting() {
        for state in all_states() {
            assert!(
                TaskCb::transition_allowed(&state, &CbState::Waiting),
                "{state:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "illegal task transition")]
    fn transition_panics_on_illegal_move() {
        let mut cb = TaskCb::waiting();
        cb.transition(CbState::Done {
            outcome: "nope".into(),
        });
    }

    #[test]
    fn reset_clears_marks_and_attempts() {
        let mut cb = TaskCb::waiting();
        cb.transition(CbState::Executing { set: "main".into() });
        cb.attempt = 3;
        cb.retries = 2;
        cb.marks_emitted.push("toPay".into());
        cb.repeats = 1;
        cb.reset_for_incarnation(2);
        assert_eq!(cb.state, CbState::Waiting);
        assert_eq!(cb.incarnation, 2);
        assert_eq!((cb.attempt, cb.retries), (0, 0));
        assert!(cb.marks_emitted.is_empty());
        assert_eq!(cb.repeats, 1, "repeat count survives reset (bounded loop)");
    }

    #[test]
    fn cb_codec_roundtrip_all_states() {
        use crate::facts::{decode_block, encode_block};
        // The diamond's root: class `Diamond`, input set `main`, outcome
        // `done` (`failed` and the mark `m1` it does not declare).
        let schema = flowscript_core::schema::compile_source(
            flowscript_core::samples::FIG1_DIAMOND,
            "diamond",
        )
        .unwrap();
        let plan = flowscript_plan::Plan::lower(&schema);
        for state in all_states() {
            let counted = TaskCb {
                state: state.clone(),
                incarnation: 2,
                scope_inc: u32::MAX,
                attempt: 300,
                retries: 3,
                marks_emitted: vec!["m1".into()],
                repeats: 7,
            };
            let bare = TaskCb {
                state,
                ..TaskCb::waiting()
            };
            for cb in [counted, bare] {
                let bytes = encode_block(&plan, 0, &cb);
                assert_eq!(decode_block(&plan, 0, &bytes), Ok(cb));
            }
        }
        // A block whose counters are zero is its tag and its declared
        // name's ordinal: a bound or finished task two bytes, a waiting
        // or cancelled one a byte.
        let sized = |state: CbState| {
            let cb = TaskCb {
                state,
                ..TaskCb::waiting()
            };
            encode_block(&plan, 0, &cb).len()
        };
        assert_eq!(sized(CbState::Executing { set: "main".into() }), 2);
        assert_eq!(sized(CbState::Active { set: "main".into() }), 2);
        let done = CbState::Done {
            outcome: "done".into(),
        };
        assert_eq!(sized(done), 2);
        assert_eq!(sized(CbState::Waiting), 1);
        assert_eq!(sized(CbState::Cancelled), 1);
        // A counter past `u32` is a typed error, not a truncation: a
        // `Waiting` tag with counters (bit 3), then an oversized varint.
        let wide = [0b1000, 0xFF, 0xFF, 0xFF, 0xFF, 0x10, 0, 0, 0, 0];
        assert_eq!(
            decode_block(&plan, 0, &wide),
            Err(flowscript_codec::CodecError::VarintOverflow)
        );
    }
}
