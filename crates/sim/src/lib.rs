#![warn(missing_docs)]
//! Deterministic discrete-event simulation of a distributed system.
//!
//! The ICDCS'98 workflow system ran over a CORBA ORB on real machines; this
//! crate provides the equivalent substrate as a *deterministic, seeded*
//! simulator so that every failure scenario in the paper (processor crashes,
//! temporary network failures, partitions that refuse to heal) can be
//! reproduced exactly:
//!
//! - [`World`]: the simulation facade — virtual clock, event queue, nodes,
//!   network, RNG and trace; a node's timers and calls queue as values,
//!   and what reaches a node comes to its one handler as a [`NodeEvent`],
//! - [`net`]: per-link latency/jitter/loss plus named partitions,
//! - [`rpc`]: correlated request/response with timeouts over the network,
//! - [`fault`]: declarative fault plans (crash at *t*, partition, heal …),
//! - [`trace`]: a structured event trace used by tests to assert
//!   determinism (same seed ⇒ identical trace).
//!
//! # Examples
//!
//! ```
//! use flowscript_sim::World;
//!
//! let mut world = World::new(42);
//! let a = world.add_node("a");
//! let b = world.add_node("b");
//! world.set_handler(b, move |world, envelope| {
//!     let greeting = String::from_utf8(envelope.payload.clone()).unwrap();
//!     assert_eq!(greeting, "hello");
//!     world.trace_custom("b", "greeted");
//! });
//! world.send(a, b, b"hello".to_vec());
//! world.run();
//! assert!(world.trace().contains_custom("greeted"));
//! ```

mod event;
pub mod fault;
pub mod net;
mod node;
pub mod rpc;
mod sched;
mod time;
pub mod trace;
mod world;

pub use event::EventId;
pub use fault::{FaultAction, FaultPlan};
pub use net::{LinkConfig, Network};
pub use node::{NodeId, NodeStatus};
pub use rpc::RpcError;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent};
pub use world::{Envelope, NodeEvent, ReplyToken, World};
