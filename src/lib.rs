#![warn(missing_docs)]
//! # flowscript
//!
//! A scripting language and transactional workflow engine for composing
//! **reliable distributed applications** — a from-scratch reproduction of
//! *"A Language for Specifying the Composition of Reliable Distributed
//! Applications"* (F. Ranno, S. K. Shrivastava, S. M. Wheater,
//! ICDCS 1998).
//!
//! The system is layered as a Cargo workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`flowscript_core`] | the language: parser, semantic analysis, templates, formatter, DOT export, compiled schemas |
//! | [`flowscript_plan`] | compiled execution plans: the dense, index-based IR the coordinator's hot paths run off (lowered once per script version, cached by the repository) |
//! | [`flowscript_engine`] | the execution environment: repository + execution services, Fig. 3 task lifecycle, compound scopes, retries, recovery, dynamic reconfiguration |
//! | [`flowscript_tx`] | Arjuna-style transactions: flat atomic actions, one open per shard, write-ahead log, recovery, fencing |
//! | [`flowscript_sim`] | deterministic discrete-event simulation: nodes, faulty network, RPC, virtual time |
//! | [`flowscript_codec`] | binary encoding, framing, checksums |
//! | [`flowscript_obs`] | flight recorder, histograms and metric snapshots |
//!
//! (The perf ledger — the one performance instrument — is the
//! stand-alone `ledger/` package.)
//!
//! # Quick start
//!
//! ```
//! use flowscript::prelude::*;
//!
//! let mut sys = WorkflowSystem::builder().executors(2).seed(7).build();
//! sys.register_script("hello", flowscript::samples::QUICKSTART, "pipeline")?;
//! sys.bind_fn("refProduce", |ctx| {
//!     TaskBehavior::outcome("produced")
//!         .with_object("message", ObjectVal::text("Message", format!("{}!", ctx.input_text("seed"))))
//! });
//! sys.bind_fn("refConsume", |ctx| {
//!     TaskBehavior::outcome("consumed")
//!         .with_object("result", ObjectVal::text("Message", ctx.input_text("message")))
//! });
//! sys.start("run", "hello", "main", [("seed", ObjectVal::text("Message", "hi"))])?;
//! sys.run();
//! assert_eq!(sys.outcome("run").unwrap().objects["result"].as_text(), "hi!");
//! # Ok::<(), EngineError>(())
//! ```

pub use flowscript_codec as codec;
pub use flowscript_core as lang;
pub use flowscript_engine as engine;
pub use flowscript_plan as plan;
pub use flowscript_sim as sim;
pub use flowscript_tx as tx;

/// The paper's example applications as ready-to-run scripts.
pub use flowscript_core::samples;

/// The most common imports in one place.
pub mod prelude {
    pub use flowscript_core::schema::{compile_source, Schema};
    pub use flowscript_core::{parse, sema, Diagnostics};
    pub use flowscript_engine::{
        CbState, EngineConfig, EngineError, InstanceStatus, ObjectVal, ObsEvent, ObsEventKind,
        ObserveLevel, Outcome, Reconfig, Snapshot, TaskBehavior, WorkflowSystem,
    };
    pub use flowscript_sim::{FaultAction, FaultPlan, SimDuration, SimTime};
}

/// README.md's Rust blocks, compiled and run as doctests: its quick
/// start is checked the way this crate's own is.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let sys = WorkflowSystem::builder().seed(1).build();
        let _ = sys.stats();
        let _ = SimDuration::from_millis(1);
    }
}
