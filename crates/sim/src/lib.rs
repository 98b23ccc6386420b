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
//!   network, RNG and trace; a node's timers and calls, and the faults
//!   of the environment's script, queue as values, and [`World::next`]
//!   hands out what reaches a node, one [`NodeEvent`] at a time,
//! - [`net`]: per-link latency/jitter/loss plus named partitions,
//! - [`rpc`]: correlated request/response with timeouts over the network,
//! - [`fault`]: declarative fault plans (crash at *t*, partition, heal …),
//! - [`trace`]: a structured event trace used by tests to assert
//!   determinism (same seed ⇒ identical trace).
//!
//! # Examples
//!
//! ```
//! use flowscript_sim::{NodeEvent, World};
//!
//! let mut world = World::new(42);
//! let a = world.add_node("a");
//! let b = world.add_node("b");
//! world.send(a, b, b"hello".to_vec());
//! // The one loop: the world hands out an event, the caller feeds the
//! // node it names.
//! while let Some((node, event)) = world.next() {
//!     if let NodeEvent::Message(envelope) = event {
//!         assert_eq!((node, envelope.payload.as_slice()), (b, &b"hello"[..]));
//!         world.trace_custom("b", "greeted");
//!     }
//! }
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
