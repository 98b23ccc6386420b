#![warn(missing_docs)]
//! Compiled execution plans: a dense, index-based IR lowered from
//! [`flowscript_core::schema::Schema`].
//!
//! The schema is the right shape for diagnostics and reconfiguration —
//! hierarchical, name-keyed, close to the source text — but a hostile
//! shape for the coordinator's hot loop: every dispatch decision walks
//! nested `Vec`s by string comparison and rebuilds `scope/task` path
//! strings per probe. Following REL's split between fault-tolerance
//! *specification* and compact runtime *configuration* (De Florio &
//! Deconinck) and the check-once/execute-lowered component model of
//! Griffin et al., this crate lowers a validated schema **once** into a
//! [`Plan`]:
//!
//! - every task (leaf or compound scope) is a `u32` [`TaskId`] into one
//!   flat, DFS-pre-ordered `Vec` — a scope's descendants are a
//!   contiguous id range, so subtree cancellation/reset is a linear
//!   scan,
//! - all names (task paths, input sets, outputs, objects, classes) are
//!   interned [`StrId`]s; absolute producer paths are precomputed per
//!   dependency source, so readiness probes never format strings,
//! - input sets carry precomputed satisfaction bitmasks
//!   ([`PlanInputSet::required_mask`]) for cheap partial-readiness
//!   introspection,
//! - reverse dependency edges ([`Plan::consumers`]) record, per
//!   producer task, which tasks and scopes may become ready when it
//!   publishes a fact,
//! - the whole plan implements `flowscript_codec::Encode`, a
//!   deterministic wire form the ledger prices; nothing decodes one —
//!   a plan is always lowered from its source.
//!
//! [`eval`] evaluates input-set satisfaction and compound output
//! mappings off the plan with semantics identical to the schema
//! interpreter in `tests/deps/` (property-tested for equivalence by
//! `tests/proptest_equivalence.rs`).
//!
//! # Examples
//!
//! ```
//! use flowscript_core::schema::compile_source;
//! use flowscript_plan::Plan;
//!
//! let schema = compile_source(
//!     flowscript_core::samples::ORDER_PROCESSING,
//!     "processOrderApplication",
//! )?;
//! let plan = Plan::lower(&schema);
//! assert_eq!(plan.task_paths(), schema.task_paths());
//! let dispatch = plan.task_by_path("processOrderApplication/dispatch").unwrap();
//! assert_eq!(plan.str(plan.task(dispatch).name), "dispatch");
//! // Lowering is deterministic, down to the encoded bytes.
//! let again = Plan::lower(&schema);
//! assert_eq!(flowscript_codec::to_bytes(&again), flowscript_codec::to_bytes(&plan));
//! # Ok::<(), flowscript_core::Diagnostics>(())
//! ```

pub mod eval;
mod ir;
mod lower;

pub use eval::{PlanFacts, Probe, Worklist};
pub use ir::{
    ClassId, Plan, PlanClass, PlanClassOutput, PlanClassSet, PlanCond, PlanInputSet,
    PlanNotification, PlanObjectSig, PlanOutput, PlanSlot, PlanSource, PlanTask, Range32, StrId,
    TaskId,
};
