use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event::EventId;
use crate::net::{DeliveryFailure, Network};
use crate::node::{NodeId, NodeState, NodeStatus};
use crate::rpc::{RpcError, RpcState};
use crate::sched::{Delivery, Event, Scheduler};
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, Trace, TraceEvent};

/// How a payload should be interpreted at the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PayloadKind {
    /// Plain one-way message.
    Raw,
    /// RPC request carrying a correlation id; the destination may reply
    /// through [`Envelope::reply_token`] and [`World::rpc_reply_to`].
    Request(u64),
    /// RPC reply; handed to the caller as [`NodeEvent::Answer`].
    Reply(u64),
}

/// A message as handed to its destination.
#[derive(Debug)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Opaque message body.
    pub payload: Vec<u8>,
    pub(crate) kind: PayloadKind,
}

impl Envelope {
    /// The token to answer this message through, now or later. Returns
    /// `None` for non-request envelopes.
    pub fn reply_token(&self) -> Option<ReplyToken> {
        match self.kind {
            PayloadKind::Request(call_id) => Some(ReplyToken::new(self.dst, self.src, call_id)),
            _ => None,
        }
    }
}

/// The capability to answer one request, captured from its envelope via
/// [`Envelope::reply_token`].
#[derive(Debug, Clone, Copy)]
pub struct ReplyToken {
    server: NodeId,
    client: NodeId,
    call_id: u64,
}

impl ReplyToken {
    /// The token of call `call_id` from `client` to `server`, for a
    /// node fed by hand rather than by a world.
    pub fn new(server: NodeId, client: NodeId, call_id: u64) -> Self {
        Self {
            server,
            client,
            call_id,
        }
    }
}

/// What [`World::next`] hands a node: everything that reaches a node,
/// one event at a time.
#[derive(Debug)]
pub enum NodeEvent {
    /// A message delivered to the node.
    Message(Envelope),
    /// A timer the node armed with [`World::arm_timer`] went off: its tag.
    Timer(u64),
    /// A call the node made with [`World::call`] was answered, or timed
    /// out: its call id and the answer.
    Answer(u64, Result<Vec<u8>, RpcError>),
    /// The node restarted: everything volatile is gone.
    Restart,
}

type MessageHandler = Box<dyn Fn(&mut World, &Envelope)>;

/// The simulation: virtual clock, event queue, nodes, network, RNG, trace.
///
/// The single-threaded scheduler pops one event at a time, in
/// deterministic order. [`World::next`] does the world's own part of
/// each — drops a message to a node that is down or restarted, skips a
/// timer of a dead incarnation, resolves a call, applies a fault — and
/// hands over the first event a node must handle. The caller feeds the
/// node, whose sends, timers and calls go back into the world, and asks
/// for the next one (the crate-level example runs one):
///
/// ```
/// # let mut world = flowscript_sim::World::new(7);
/// while let Some((node, event)) = world.next() {
///     println!("{node} is handed {event:?}");
/// }
/// ```
pub struct World {
    pub(crate) sched: Scheduler,
    rng: SmallRng,
    net: Network,
    nodes: Vec<NodeState>,
    /// The messages-only handlers [`World::run`] feeds.
    handlers: Vec<Option<MessageHandler>>,
    trace: Trace,
    pub(crate) rpc: RpcState,
    /// Hard cap on events popped between two times the queue ran dry
    /// (or had nothing due); guards against accidental infinite event
    /// loops in tests.
    event_budget: u64,
    popped: u64,
}

impl World {
    /// Creates a world with the given RNG seed. Equal seeds and equal
    /// programs produce identical traces.
    pub fn new(seed: u64) -> Self {
        Self {
            sched: Scheduler::new(),
            rng: SmallRng::seed_from_u64(seed),
            net: Network::new(),
            nodes: Vec::new(),
            handlers: Vec::new(),
            trace: Trace::new(),
            rpc: RpcState::new(),
            event_budget: 50_000_000,
            popped: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Mutable access to the network fabric.
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Read access to the network fabric.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace (e.g. to disable recording in benches).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Caps the number of events popped before the queue runs dry.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Adds a node, initially up.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeState::new(name));
        self.handlers.push(None);
        id
    }

    /// A node's configured name.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this world.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].name
    }

    /// A node's liveness status.
    pub fn node_status(&self, node: NodeId) -> NodeStatus {
        self.nodes[node.index()].status
    }

    /// Whether the node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.nodes[node.index()].status == NodeStatus::Up
    }

    pub(crate) fn incarnation(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].incarnation
    }

    /// Installs a handler of `node`'s messages for [`World::run`],
    /// replacing any previous one.
    pub fn set_handler<F>(&mut self, node: NodeId, handler: F)
    where
        F: Fn(&mut World, &Envelope) + 'static,
    {
        self.handlers[node.index()] = Some(Box::new(handler));
    }

    /// Draws a uniform sample in `[0, 1)` from the world RNG.
    pub fn sample_f64(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Records a custom annotation in the trace.
    pub fn trace_custom(&mut self, node: impl Into<String>, label: impl Into<String>) {
        let event = TraceEvent::Custom {
            node: node.into(),
            label: label.into(),
        };
        self.trace.record(self.sched.now(), event);
    }

    /// Arms a timer of `node`: [`World::next`] hands it
    /// [`NodeEvent::Timer`] with `tag` after `delay`. A crash of the node
    /// takes it out of the queue, and one armed while the node is down
    /// is skipped (a restarted process does not inherit its
    /// predecessor's timers).
    pub fn arm_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) -> EventId {
        let incarnation = self.incarnation(node);
        let at = self.sched.now() + delay;
        let timer = Event::Timer {
            node,
            incarnation,
            tag,
        };
        self.sched.schedule(at, timer)
    }

    /// Cancels a scheduled event.
    pub fn cancel(&mut self, id: EventId) {
        self.sched.cancel(id);
    }

    /// Sends a one-way message. Silently dropped (with a trace entry) if
    /// the sender is down, the pair is partitioned, the link loses it, or
    /// the destination is down/restarted at delivery time.
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: Vec<u8>) {
        self.send_kind(src, dst, PayloadKind::Raw, payload);
    }

    pub(crate) fn send_kind(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: PayloadKind,
        payload: Vec<u8>,
    ) {
        let now = self.sched.now();
        if !self.is_up(src) {
            self.trace.record(
                now,
                TraceEvent::MessageDropped {
                    src,
                    dst,
                    reason: DropReason::SenderDown,
                },
            );
            return;
        }
        self.trace.record(
            now,
            TraceEvent::MessageSent {
                src,
                dst,
                bytes: payload.len(),
            },
        );
        let drop_sample = self.sample_f64();
        let jitter_sample = self.sample_f64();
        match self.net.route(src, dst, drop_sample, jitter_sample) {
            Err(failure) => {
                let reason = match failure {
                    DeliveryFailure::Dropped => DropReason::Loss,
                    DeliveryFailure::Partitioned => DropReason::Partition,
                };
                self.trace
                    .record(now, TraceEvent::MessageDropped { src, dst, reason });
            }
            Ok(latency) => {
                let delivery = Delivery {
                    src,
                    dst,
                    kind,
                    payload,
                    incarnation: self.incarnation(dst),
                };
                self.sched.schedule(now + latency, Event::Deliver(delivery));
            }
        }
    }

    /// A message arriving: the envelope its destination is handed, or
    /// `None` if the destination is down or restarted since the send, or
    /// the message is the reply to a call no longer pending.
    fn deliver(&mut self, delivery: Delivery) -> Option<(NodeId, NodeEvent)> {
        let Delivery {
            src,
            dst,
            kind,
            payload,
            incarnation: expected_incarnation,
        } = delivery;
        let now = self.sched.now();
        let dropped = if !self.is_up(dst) {
            Some(DropReason::NodeDown)
        } else if self.incarnation(dst) != expected_incarnation {
            Some(DropReason::StaleIncarnation)
        } else {
            None
        };
        if let Some(reason) = dropped {
            let drop = TraceEvent::MessageDropped { src, dst, reason };
            self.trace.record(now, drop);
            return None;
        }
        self.trace
            .record(now, TraceEvent::MessageDelivered { src, dst });
        if let PayloadKind::Reply(call) = kind {
            return self.answer(call, Ok(payload));
        }
        let envelope = Envelope {
            src,
            dst,
            payload,
            kind,
        };
        Some((dst, NodeEvent::Message(envelope)))
    }

    /// Replies to an RPC request through its [`ReplyToken`].
    pub fn rpc_reply_to(&mut self, token: ReplyToken, payload: Vec<u8>) {
        self.send_kind(
            token.server,
            token.client,
            PayloadKind::Reply(token.call_id),
            payload,
        );
    }

    /// Crashes a node: volatile state is lost, in-flight messages to and
    /// from it will be dropped, and its timers leave the event queue —
    /// the clock does not run on to when they would have gone off.
    pub fn crash(&mut self, node: NodeId) {
        if self.nodes[node.index()].status == NodeStatus::Crashed {
            return;
        }
        self.nodes[node.index()].status = NodeStatus::Crashed;
        self.trace
            .record(self.sched.now(), TraceEvent::NodeCrashed { node });
        self.rpc.drop_calls_from(node);
        self.sched.cancel_owned_by(node);
    }

    /// Restarts a crashed node, and returns whether it came up: the
    /// caller then owes it [`NodeEvent::Restart`] (recovery), before any
    /// other event. A restart a [`crate::FaultPlan`] scripts comes out
    /// of [`World::next`] as that event.
    #[must_use = "a node that came up is owed `NodeEvent::Restart`"]
    pub fn restart(&mut self, node: NodeId) -> bool {
        if self.nodes[node.index()].status == NodeStatus::Up {
            return false;
        }
        self.nodes[node.index()].status = NodeStatus::Up;
        self.nodes[node.index()].incarnation += 1;
        self.trace
            .record(self.sched.now(), TraceEvent::NodeRestarted { node });
        true
    }

    /// Partitions two groups of nodes (trace-recorded).
    pub fn partition(&mut self, side_a: &[NodeId], side_b: &[NodeId]) {
        self.net.partition(side_a, side_b);
        self.trace.record(self.sched.now(), TraceEvent::Partitioned);
    }

    /// Heals all partitions (trace-recorded).
    pub fn heal_all(&mut self) {
        self.net.heal_all();
        self.trace.record(self.sched.now(), TraceEvent::Healed);
    }

    /// Pops events, doing the world's part of each, until one a node
    /// must handle: that node and its event. `None` once the queue runs
    /// dry.
    ///
    /// # Panics
    ///
    /// Panics if the event budget is exhausted, which indicates a runaway
    /// event loop; so do [`World::next_until`] and [`World::run`].
    // Not `Iterator::next`: the trait's adaptors would shadow the world's
    // own methods (`partition`) on a world held by value.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(NodeId, NodeEvent)> {
        self.next_due(SimTime::MAX)
    }

    /// [`World::next`] over the events due by `deadline`, leaving later
    /// ones queued: with nothing due, advances the clock to `deadline`
    /// itself — so waiting out a quiet stretch (retry backoff, admission
    /// polling) really spends the virtual time instead of spinning at
    /// the last event's timestamp — and returns `None`.
    pub fn next_until(&mut self, deadline: SimTime) -> Option<(NodeId, NodeEvent)> {
        let next = self.next_due(deadline);
        if next.is_none() {
            self.sched.advance_to(deadline);
        }
        next
    }

    fn next_due(&mut self, deadline: SimTime) -> Option<(NodeId, NodeEvent)> {
        while let Some((_, _, event)) = self.sched.pop(deadline) {
            self.popped += 1;
            assert!(
                self.popped <= self.event_budget,
                "event budget exhausted after {} events: runaway loop?",
                self.popped
            );
            let handed = match event {
                Event::Deliver(delivery) => self.deliver(delivery),
                Event::Timer {
                    node,
                    incarnation,
                    tag,
                } => (self.is_up(node) && self.incarnation(node) == incarnation)
                    .then_some((node, NodeEvent::Timer(tag))),
                Event::Timeout { call, .. } => self.answer(call, Err(RpcError::Timeout)),
                Event::Fault(action) => action.apply(self),
            };
            if handed.is_some() {
                return handed;
            }
        }
        self.popped = 0;
        None
    }

    /// Runs until the event queue is empty, handing each message to its
    /// destination's handler ([`World::set_handler`]); every other node
    /// event is dropped.
    pub fn run(&mut self) {
        while let Some((node, event)) = self.next() {
            let NodeEvent::Message(envelope) = event else {
                continue;
            };
            if let Some(handler) = self.handlers[node.index()].take() {
                handler(self, &envelope);
                self.handlers[node.index()].get_or_insert(handler);
            }
        }
    }

    /// Number of pending (uncancelled) events.
    pub fn pending_events(&self) -> usize {
        self.sched.pending()
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now())
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.pending_events())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultAction, FaultPlan};
    use std::cell::Cell;
    use std::rc::Rc;

    /// Every event `world` hands over until it runs dry, with its node.
    fn drain(world: &mut World) -> Vec<(NodeId, NodeEvent)> {
        std::iter::from_fn(|| world.next()).collect()
    }

    /// The tags of the timers among `events`, in order.
    fn timer_tags(events: &[(NodeId, NodeEvent)]) -> Vec<u64> {
        let tag = |(_, event): &(NodeId, NodeEvent)| match event {
            NodeEvent::Timer(tag) => Some(*tag),
            _ => None,
        };
        events.iter().filter_map(tag).collect()
    }

    #[test]
    fn message_roundtrip_advances_clock() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        let b = world.add_node("b");
        world.send(a, b, b"ping".to_vec());
        let Some((node, NodeEvent::Message(env))) = world.next() else {
            panic!("the ping reaches b");
        };
        assert_eq!((node, env.src, env.dst), (b, a, b));
        assert_eq!(env.payload, b"ping");
        world.trace_custom("b", "got ping");
        assert!(world.next().is_none());
        assert!(world.now() > SimTime::ZERO);
        assert!(world.trace().contains_custom("got ping"));
        assert_eq!(world.trace().deliveries(), 1);
    }

    #[test]
    fn crashed_destination_drops_message() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        let b = world.add_node("b");
        world.crash(b);
        world.send(a, b, b"x".to_vec());
        assert!(drain(&mut world).is_empty(), "nothing reaches b");
        assert_eq!(world.trace().drops(DropReason::NodeDown), 1);
    }

    #[test]
    fn message_sent_before_crash_dropped_after_restart() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        let b = world.add_node("b");
        world.send(a, b, b"x".to_vec());
        // Crash and immediately restart b before delivery.
        world.crash(b);
        assert!(world.restart(b));
        assert!(drain(&mut world).is_empty(), "stale message delivered");
        assert_eq!(world.trace().drops(DropReason::StaleIncarnation), 1);
    }

    #[test]
    fn node_timer_skipped_after_crash() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        world.arm_timer(a, SimDuration::from_millis(1), 7);
        world.crash(a);
        assert!(timer_tags(&drain(&mut world)).is_empty());
    }

    #[test]
    fn a_crashed_nodes_timers_leave_the_queue() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        world.arm_timer(a, SimDuration::from_secs(300), 0);
        FaultPlan::crash_restart(a, SimTime::from_nanos(1_000_000_000), SimDuration::ZERO)
            .apply(&mut world);
        let events = drain(&mut world);
        assert!(
            timer_tags(&events).is_empty(),
            "a timer of the dead incarnation fired"
        );
        assert!(matches!(events[..], [(node, NodeEvent::Restart)] if node == a));
        assert_eq!(world.now(), SimTime::from_nanos(1_000_000_000));
        assert_eq!(world.pending_events(), 0);
    }

    #[test]
    fn a_restart_reaches_the_node() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        world.crash(a);
        assert!(world.restart(a), "a crashed node comes up");
        assert!(!world.restart(a), "one that is up does not come up again");
        assert_eq!(world.node_status(a), NodeStatus::Up);
        let at = SimTime::from_nanos(5);
        FaultPlan::crash_restart(a, at, SimDuration::ZERO).apply(&mut world);
        assert!(matches!(world.next(), Some((node, NodeEvent::Restart)) if node == a));
        assert_eq!(world.now(), at);
    }

    /// The ordering contract: a node that restarts at the instant a
    /// message is due hears of its restart first, and nothing of the
    /// incarnation that died surfaces — not the message sent to it, not
    /// its timer, not the answer to its call.
    #[test]
    fn a_restart_comes_first_and_nothing_of_the_dead_incarnation_follows() {
        let mut world = World::new(1);
        let (a, b) = (world.add_node("a"), world.add_node("b"));
        let link = crate::net::LinkConfig {
            base_latency: SimDuration::from_nanos(10),
            jitter: SimDuration::ZERO,
            drop_prob: 0.0,
        };
        world.net_mut().set_default_link(link);
        let at = SimTime::from_nanos(10);
        world.arm_timer(a, SimDuration::from_nanos(10), 1);
        world
            .call(a, b, Vec::new(), SimDuration::from_nanos(10))
            .expect("a is up");
        world.send(b, a, b"queued before the restart".to_vec());
        world.crash(a);
        let plan = FaultPlan::new().at(at, FaultAction::Restart(a));
        plan.apply(&mut world);
        world.send(b, a, b"queued after it".to_vec());
        assert!(matches!(world.next(), Some((node, NodeEvent::Message(_))) if node == b));
        assert!(matches!(world.next(), Some((node, NodeEvent::Restart)) if node == a));
        assert_eq!(world.now(), at);
        // A message to the new incarnation, due at the same instant,
        // comes after the restart; the one queued for the dead one never.
        let instant = crate::net::LinkConfig {
            base_latency: SimDuration::ZERO,
            ..link
        };
        world.net_mut().set_link(b, a, instant);
        world.send(b, a, b"to the new incarnation".to_vec());
        let Some((node, NodeEvent::Message(env))) = world.next() else {
            panic!("the message to the new incarnation is handed over");
        };
        assert_eq!(
            (node, env.payload.as_slice()),
            (a, &b"to the new incarnation"[..])
        );
        assert_eq!(world.now(), at);
        assert!(
            world.next().is_none(),
            "an event of the dead incarnation surfaced"
        );
        assert_eq!(world.trace().drops(DropReason::NodeDown), 1);
        assert_eq!(world.trace().drops(DropReason::StaleIncarnation), 1);
        assert_eq!(crate::rpc::in_flight(&world), 0);
    }

    #[test]
    fn partition_blocks_then_heal_restores() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        let b = world.add_node("b");
        world.partition(&[a], &[b]);
        world.send(a, b, b"lost".to_vec());
        assert_eq!(drain(&mut world).len(), 0);
        world.heal_all();
        world.send(a, b, b"found".to_vec());
        assert_eq!(drain(&mut world).len(), 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once(seed: u64) -> String {
            let mut world = World::new(seed);
            let a = world.add_node("a");
            let b = world.add_node("b");
            world.net_mut().set_default_link(crate::net::LinkConfig {
                drop_prob: 0.3,
                ..Default::default()
            });
            for i in 0..50u8 {
                world.send(a, b, vec![i]);
            }
            while let Some((node, event)) = world.next() {
                let NodeEvent::Message(env) = event else {
                    continue;
                };
                if node == b && env.payload[0] < 100 {
                    world.send(b, a, vec![env.payload[0] + 100]);
                } else if node == a {
                    world.trace_custom("a", format!("echo {}", env.payload[0]));
                }
            }
            world.trace().render()
        }
        let t1 = run_once(7);
        let t2 = run_once(7);
        let t3 = run_once(8);
        assert_eq!(t1, t2, "same seed must give identical traces");
        assert_ne!(t1, t3, "different seed should differ under loss");
    }

    #[test]
    fn next_until_stops_at_deadline() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        world.arm_timer(a, SimDuration::from_nanos(10), 1);
        world.arm_timer(a, SimDuration::from_nanos(20), 2);
        let deadline = SimTime::from_nanos(15);
        let early: Vec<_> = std::iter::from_fn(|| world.next_until(deadline)).collect();
        assert_eq!(timer_tags(&early), [1]);
        assert_eq!(world.now(), deadline, "the quiet stretch is spent");
        assert_eq!(world.pending_events(), 1);
        assert_eq!(timer_tags(&drain(&mut world)), [2]);
    }

    #[test]
    #[should_panic(expected = "event budget")]
    fn runaway_loop_trips_budget() {
        let mut world = World::new(1);
        world.set_event_budget(100);
        let a = world.add_node("a");
        world.arm_timer(a, SimDuration::from_nanos(1), 0);
        while let Some((node, _)) = world.next() {
            world.arm_timer(node, SimDuration::from_nanos(1), 0);
        }
    }

    #[test]
    fn run_feeds_the_message_handlers() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        let b = world.add_node("b");
        let left = Rc::new(Cell::new(3u32));
        for (node, peer) in [(a, b), (b, a)] {
            let left = left.clone();
            world.set_handler(node, move |world, env| {
                if left.get() > 0 {
                    left.set(left.get() - 1);
                    world.send(node, peer, env.payload.clone());
                }
            });
        }
        world.send(a, b, b"ball".to_vec());
        world.run();
        assert_eq!(left.get(), 0);
        assert_eq!(world.trace().deliveries(), 4);
    }
}
