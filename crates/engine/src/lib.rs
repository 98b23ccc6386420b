#![warn(missing_docs)]
//! The flowscript execution environment: a transactional workflow system.
//!
//! This crate is the paper's §3 "execution environment", rebuilt on the
//! crate stack below it:
//!
//! - a **Workflow Repository Service** ([`Repository`]) that stores,
//!   validates and versions scripts,
//! - a **Workflow Execution Service** (the coordinator) that records
//!   inter-task dependencies in persistent atomic objects
//!   (`flowscript-tx`), drives tasks through the Fig. 3 state machine,
//!   propagates dataflow and notifications under atomic transactions,
//!   retries system-level failures a bounded number of times, and
//!   survives coordinator crashes by write-ahead-log recovery,
//! - **task executors** on separate simulated nodes, running
//!   implementations bound *at run time* by name
//!   ([`WorkflowSystem::bind_fn`], [`WorkflowSystem::bind_script`]),
//!   including the built-in timer: each executor holds its own frozen
//!   binding table, and a rebind reaches it as an operator's input
//!   before the world next delivers anything,
//! - **adaptive, load-aware scheduling** ([`Scheduler`]): dispatch honors
//!   the implementation clause's typed hints — `location` as a hard
//!   placement constraint, `priority` ordering ready tasks, declared
//!   durations/deadlines shaping the watchdog — picks the least loaded
//!   eligible executor (respecting declared **capacities**, parking
//!   excess dispatches in a priority-ordered ready queue), relocates
//!   retries off failed nodes, and feeds **observed completion times**
//!   back into load costs and watchdog timeouts; a
//!   per-shard **admission cap**
//!   ([`EngineConfig::max_inflight_instances`]) queues or rejects
//!   (typed [`EngineError::Busy`]) excess instance starts,
//! - **dynamic reconfiguration** ([`Reconfig`]): transactional
//!   addition/removal of tasks and dependencies in a running instance,
//!   and implementation rebinding (online upgrade) — each a new version
//!   of the instance's script, checked by the front end and committed as
//!   one step,
//! - **sharded coordinators** ([`ShardMap`]): instance ownership split
//!   across multiple execution-service nodes by rendezvous hash of the
//!   instance name, each shard owning its facts, WAL and worklists,
//!   with misdirected requests forwarded and per-shard crash recovery,
//! - an **elastic fleet**: epoch-versioned shard maps with hop-capped
//!   forwarding; [`WorkflowSystem::add_coordinator`] /
//!   [`WorkflowSystem::rebalance`] / [`WorkflowSystem::remove_coordinator`]
//!   move running instances between shards as rounds of ONE idempotent
//!   claim — a source's move record is its outbox, a destination lands
//!   it in one local commit, all spoken over the simulated network, so
//!   a crash, partition or lossy link from a fault plan reaches every
//!   step — and [`WorkflowSystem::adopt_dead_shard`] claims a dead
//!   shard's instances out of its fenced storage the same way; pauses
//!   are virtual time ([`MoveReport`]),
//! - a high-level facade, [`WorkflowSystem`], that wires all services
//!   onto `flowscript-sim` nodes (the paper's Fig. 4 topology). Every
//!   node — repository, shard, executor, client — is a value that does
//!   no I/O: one driver applies what it returns to the simulated world.
//!
//! # Examples
//!
//! ```
//! use flowscript_engine::{ObjectVal, TaskBehavior, WorkflowSystem};
//!
//! let mut sys = WorkflowSystem::builder().executors(2).seed(7).build();
//! sys.register_script("quickstart", flowscript_core::samples::QUICKSTART, "pipeline")
//!     .expect("valid script");
//! sys.bind_fn("refProduce", |ctx| {
//!     let seed = ctx.input_text("seed");
//!     TaskBehavior::outcome("produced")
//!         .with_object("message", ObjectVal::text("Message", format!("{seed}!")))
//! });
//! sys.bind_fn("refConsume", |ctx| {
//!     TaskBehavior::outcome("consumed")
//!         .with_object("result", ObjectVal::text("Message", ctx.input_text("message")))
//! });
//! sys.start(
//!     "run1",
//!     "quickstart",
//!     "main",
//!     [("seed", ObjectVal::text("Message", "hello"))],
//! )
//! .expect("instance starts");
//! sys.run();
//! let outcome = sys.outcome("run1").expect("completed");
//! assert_eq!(outcome.name, "done");
//! assert_eq!(outcome.objects["result"].as_text(), "hello!");
//! ```

mod api;
mod coordinator;
mod driver;
mod error;
mod executor;
mod facts;
mod impl_registry;
mod keys;
mod msg;
mod reconfig;
mod repository;
mod sched;
mod shard;
mod state;
mod value;

pub use api::{NodeKind, SystemBuilder, WorkflowSystem};
pub use coordinator::{
    CommitBatch, CoordStats, DispatchRecord, EngineConfig, FailoverReport, InstanceStatus,
    MoveReport, Outcome, MAX_FORWARD_HOPS,
};
pub use error::EngineError;
pub use flowscript_obs::{ObsEvent, ObsEventKind, ObserveLevel, Snapshot};
pub use flowscript_tx::StableStore;
pub use impl_registry::{Completion, InvokeCtx, MarkEmission, TaskBehavior};
pub use reconfig::Reconfig;
pub use repository::{Repository, ScriptVersion};
pub use sched::{
    ExecutorSlot, ExecutorSpec, ImplHints, Placement, SchedError, SchedPolicy, Scheduler,
};
pub use shard::ShardMap;
pub use state::CbState;
pub use value::{ObjectRef, ObjectVal};
