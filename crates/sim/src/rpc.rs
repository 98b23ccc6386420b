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
use crate::sched::Event;
use crate::time::SimDuration;
use crate::world::{NodeEvent, PayloadKind, World};

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

/// A call awaiting its answer: who made it, and its time-out's event.
struct PendingCall {
    from: NodeId,
    timeout: EventId,
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

    /// Forgets every call `node` made (crash handling: the world drops
    /// their time-outs with the node's timers, so no answer reaches a
    /// later incarnation).
    pub(crate) fn drop_calls_from(&mut self, node: NodeId) {
        self.pending.retain(|_, call| call.from != node);
    }
}

impl World {
    /// Issues an RPC from `src` to `dst`, and returns its call id: the
    /// reply's payload, or [`RpcError::Timeout`] once `timeout` passes,
    /// comes out of [`World::next`] to `src` as [`NodeEvent::Answer`]
    /// under that id — unless `src` crashes first.
    ///
    /// # Errors
    ///
    /// [`RpcError::SenderDown`] at once if `src` is down.
    pub fn call(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: Vec<u8>,
        timeout: SimDuration,
    ) -> Result<u64, RpcError> {
        if !self.is_up(src) {
            return Err(RpcError::SenderDown);
        }
        let call = self.rpc.next_id;
        self.rpc.next_id += 1;
        let at = self.now() + timeout;
        let timeout = self
            .sched
            .schedule(at, Event::Timeout { caller: src, call });
        let pending = PendingCall { from: src, timeout };
        self.rpc.pending.insert(call, pending);
        self.send_kind(src, dst, PayloadKind::Request(call), payload);
        Ok(call)
    }

    /// Resolves a pending call into the answer its caller is handed:
    /// invoked by reply delivery or by the time-out; whichever runs
    /// first wins and the other finds nothing pending.
    pub(crate) fn answer(
        &mut self,
        call: u64,
        answer: Result<Vec<u8>, RpcError>,
    ) -> Option<(NodeId, NodeEvent)> {
        let pending = self.rpc.pending.remove(&call)?;
        self.sched.cancel(pending.timeout);
        Some((pending.from, NodeEvent::Answer(call, answer)))
    }
}

/// Number of in-flight RPCs in `world` (diagnostic helper for tests).
pub fn in_flight(world: &World) -> usize {
    world.rpc.pending.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    type Answers = Vec<(u64, Result<Vec<u8>, RpcError>)>;

    /// Runs `world` dry, every request answered with `reply` of its
    /// payload, and returns the answers `client` is handed, in order,
    /// each beside its call id.
    fn serve(world: &mut World, client: NodeId, reply: impl Fn(&[u8]) -> Vec<u8>) -> Answers {
        let mut answers = Answers::new();
        while let Some((node, event)) = world.next() {
            match event {
                NodeEvent::Message(env) => {
                    let token = env.reply_token().expect("a request");
                    world.rpc_reply_to(token, reply(&env.payload));
                }
                NodeEvent::Answer(call, answer) if node == client => answers.push((call, answer)),
                _ => {}
            }
        }
        answers
    }

    #[test]
    fn request_reply_roundtrip() {
        let mut world = World::new(3);
        let client = world.add_node("client");
        let server = world.add_node("server");
        let call = world
            .call(client, server, vec![1, 2, 3], SimDuration::from_secs(1))
            .expect("the client is up");
        let reversed = |payload: &[u8]| payload.iter().rev().copied().collect();
        let result = serve(&mut world, client, reversed);
        assert_eq!(result, [(call, Ok(vec![3, 2, 1]))]);
        assert_eq!(in_flight(&world), 0);
    }

    #[test]
    fn timeout_when_server_down() {
        let mut world = World::new(3);
        let client = world.add_node("client");
        let server = world.add_node("server");
        world.crash(server);
        let call = world
            .call(client, server, vec![9], SimDuration::from_millis(10))
            .expect("the client is up");
        let result = serve(&mut world, client, |_| unreachable!("the server is down"));
        assert_eq!(result, [(call, Err(RpcError::Timeout))]);
    }

    #[test]
    fn timeout_when_partitioned() {
        let mut world = World::new(3);
        let client = world.add_node("client");
        let server = world.add_node("server");
        world.partition(&[client], &[server]);
        let call = world
            .call(client, server, vec![], SimDuration::from_millis(5))
            .expect("the client is up");
        let result = serve(&mut world, client, |_| vec![]);
        assert_eq!(result, [(call, Err(RpcError::Timeout))]);
    }

    #[test]
    fn sender_down_fails_immediately() {
        let mut world = World::new(3);
        let client = world.add_node("client");
        let server = world.add_node("server");
        world.crash(client);
        let result = world.call(client, server, vec![], SimDuration::from_millis(5));
        assert_eq!(result, Err(RpcError::SenderDown));
    }

    #[test]
    fn callback_discarded_when_caller_crashes_midflight() {
        let mut world = World::new(3);
        let client = world.add_node("client");
        let server = world.add_node("server");
        world
            .call(client, server, vec![], SimDuration::from_secs(1))
            .expect("the client is up");
        world.crash(client);
        let ran = serve(&mut world, client, |_| vec![1]);
        assert!(
            ran.is_empty(),
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
        world
            .call(client, server, vec![], SimDuration::from_millis(1))
            .expect("the client is up");
        let results = serve(&mut world, client, |_| vec![42]);
        assert_eq!(results.len(), 1, "callback must run exactly once");
        assert_eq!(results[0].1, Err(RpcError::Timeout));
    }
}
