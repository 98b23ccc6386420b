//! Correlated request/response messaging with timeouts.
//!
//! The workflow services (repository, execution coordinator, task
//! executors) talk RPC, mirroring the CORBA request/reply interactions of
//! the paper's architecture (Fig. 4). A call either completes with the
//! reply payload or fails with a [`RpcError`]; lost messages surface as
//! timeouts, exactly the failure the engine's retry logic must absorb.

use std::fmt;

use flowscript_codec::IdMap;

use crate::event::EventId;
use crate::node::NodeId;
use crate::time::SimDuration;
use crate::world::{PayloadKind, World};

/// Why an RPC did not return a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// No reply arrived within the timeout (request or reply lost, server
    /// down or partitioned — indistinguishable, as in a real network).
    Timeout,
    /// The calling node was down at call time.
    SenderDown,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Timeout => write!(f, "rpc timed out"),
            RpcError::SenderDown => write!(f, "calling node is down"),
        }
    }
}

impl std::error::Error for RpcError {}

type Callback = Box<dyn FnOnce(&mut World, Result<Vec<u8>, RpcError>)>;

struct PendingCall {
    from: NodeId,
    from_incarnation: u64,
    timeout_event: EventId,
    on_done: Callback,
}

/// Book-keeping for in-flight calls, owned by the [`World`].
pub(crate) struct RpcState {
    next_id: u64,
    /// By call id, the state's own sequence: under the fixed hasher.
    pending: IdMap<u64, PendingCall>,
}

impl RpcState {
    pub(crate) fn new() -> Self {
        Self {
            next_id: 0,
            pending: IdMap::default(),
        }
    }

    /// Number of in-flight calls (diagnostics).
    pub(crate) fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

pub(crate) fn call(
    world: &mut World,
    src: NodeId,
    dst: NodeId,
    payload: Vec<u8>,
    timeout: SimDuration,
    on_done: Callback,
) {
    if !world.is_up(src) {
        on_done(world, Err(RpcError::SenderDown));
        return;
    }
    let call_id = world.rpc.next_id;
    world.rpc.next_id += 1;
    let timeout_event = world.schedule_after(timeout, move |world| {
        complete_call(world, call_id, Err(RpcError::Timeout));
    });
    let pending = PendingCall {
        from: src,
        from_incarnation: world.incarnation(src),
        timeout_event,
        on_done,
    };
    world.rpc.pending.insert(call_id, pending);
    world.send_kind(src, dst, PayloadKind::Request(call_id), payload);
}

/// Resolves a pending call. Invoked by reply delivery or by the timeout
/// event; whichever runs first wins and the other finds nothing pending.
pub(crate) fn complete_call(world: &mut World, call_id: u64, result: Result<Vec<u8>, RpcError>) {
    let Some(pending) = world.rpc.pending.remove(&call_id) else {
        return;
    };
    world.cancel(pending.timeout_event);
    // The caller crashed (or restarted) while the call was in flight: the
    // continuation belonged to its lost volatile state.
    if !world.is_up(pending.from) || world.incarnation(pending.from) != pending.from_incarnation {
        return;
    }
    (pending.on_done)(world, result);
}

/// Drops every pending call originated by `node` (crash handling).
pub(crate) fn fail_calls_from(world: &mut World, node: NodeId) {
    let stale: Vec<u64> = world
        .rpc
        .pending
        .iter()
        .filter(|(_, p)| p.from == node)
        .map(|(id, _)| *id)
        .collect();
    for id in stale {
        if let Some(pending) = world.rpc.pending.remove(&id) {
            world.cancel(pending.timeout_event);
        }
    }
}

/// Number of in-flight RPCs in `world` (diagnostic helper for tests).
pub fn in_flight(world: &World) -> usize {
    world.rpc.in_flight()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn request_reply_roundtrip() {
        let mut world = World::new(3);
        let client = world.add_node("client");
        let server = world.add_node("server");
        world.set_handler(server, |world, env| {
            let mut reply = env.payload.clone();
            reply.reverse();
            world.rpc_reply_to(env.reply_token().expect("a request"), reply);
        });
        let result = Rc::new(RefCell::new(None));
        let result2 = result.clone();
        world.rpc_call(
            client,
            server,
            vec![1, 2, 3],
            SimDuration::from_secs(1),
            move |_, r| {
                *result2.borrow_mut() = Some(r);
            },
        );
        world.run();
        assert_eq!(*result.borrow(), Some(Ok(vec![3, 2, 1])));
        assert_eq!(in_flight(&world), 0);
    }

    #[test]
    fn timeout_when_server_down() {
        let mut world = World::new(3);
        let client = world.add_node("client");
        let server = world.add_node("server");
        world.crash(server);
        let result = Rc::new(RefCell::new(None));
        let result2 = result.clone();
        world.rpc_call(
            client,
            server,
            vec![9],
            SimDuration::from_millis(10),
            move |_, r| {
                *result2.borrow_mut() = Some(r);
            },
        );
        world.run();
        assert_eq!(*result.borrow(), Some(Err(RpcError::Timeout)));
    }

    #[test]
    fn timeout_when_partitioned() {
        let mut world = World::new(3);
        let client = world.add_node("client");
        let server = world.add_node("server");
        world.set_handler(server, |world, env| {
            world.rpc_reply_to(env.reply_token().expect("a request"), vec![]);
        });
        world.partition(&[client], &[server]);
        let result = Rc::new(RefCell::new(None));
        let result2 = result.clone();
        world.rpc_call(
            client,
            server,
            vec![],
            SimDuration::from_millis(5),
            move |_, r| {
                *result2.borrow_mut() = Some(r);
            },
        );
        world.run();
        assert_eq!(*result.borrow(), Some(Err(RpcError::Timeout)));
    }

    #[test]
    fn sender_down_fails_immediately() {
        let mut world = World::new(3);
        let client = world.add_node("client");
        let server = world.add_node("server");
        world.crash(client);
        let result = Rc::new(RefCell::new(None));
        let result2 = result.clone();
        world.rpc_call(
            client,
            server,
            vec![],
            SimDuration::from_millis(5),
            move |_, r| {
                *result2.borrow_mut() = Some(r);
            },
        );
        assert_eq!(*result.borrow(), Some(Err(RpcError::SenderDown)));
    }

    #[test]
    fn callback_discarded_when_caller_crashes_midflight() {
        let mut world = World::new(3);
        let client = world.add_node("client");
        let server = world.add_node("server");
        world.set_handler(server, |world, env| {
            world.rpc_reply_to(env.reply_token().expect("a request"), vec![1]);
        });
        let ran = Rc::new(RefCell::new(false));
        let ran2 = ran.clone();
        world.rpc_call(
            client,
            server,
            vec![],
            SimDuration::from_secs(1),
            move |_, _| {
                *ran2.borrow_mut() = true;
            },
        );
        world.crash(client);
        world.run();
        assert!(
            !*ran.borrow(),
            "continuation of crashed caller must not run"
        );
        assert_eq!(in_flight(&world), 0);
    }

    #[test]
    fn late_reply_after_timeout_is_ignored() {
        let mut world = World::new(3);
        let client = world.add_node("client");
        let server = world.add_node("server");
        // Slow link server -> client so the reply arrives after timeout.
        world.net_mut().set_link(
            server,
            client,
            crate::net::LinkConfig {
                base_latency: SimDuration::from_secs(10),
                jitter: SimDuration::ZERO,
                drop_prob: 0.0,
            },
        );
        world.set_handler(server, |world, env| {
            world.rpc_reply_to(env.reply_token().expect("a request"), vec![42]);
        });
        let results = Rc::new(RefCell::new(Vec::new()));
        let results2 = results.clone();
        world.rpc_call(
            client,
            server,
            vec![],
            SimDuration::from_millis(1),
            move |_, r| {
                results2.borrow_mut().push(r);
            },
        );
        world.run();
        assert_eq!(results.borrow().len(), 1, "callback must run exactly once");
        assert_eq!(results.borrow()[0], Err(RpcError::Timeout));
    }
}
