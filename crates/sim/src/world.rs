use std::rc::Rc;

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
    /// RPC request carrying a correlation id; the handler may reply
    /// through [`Envelope::reply_token`] and [`World::rpc_reply_to`].
    Request(u64),
    /// RPC reply; handed to the caller as [`NodeEvent::Answer`].
    Reply(u64),
}

/// A message as seen by a node's handler.
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
    /// The token to answer this message through, now or after the
    /// handler returns. Returns `None` for non-request envelopes.
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
    /// handler fed by hand rather than by a world.
    pub fn new(server: NodeId, client: NodeId, call_id: u64) -> Self {
        Self {
            server,
            client,
            call_id,
        }
    }
}

/// What the world hands a node's handler: everything that reaches a
/// node, one event at a time.
#[derive(Debug)]
pub enum NodeEvent<'a> {
    /// A message delivered to the node.
    Message(&'a Envelope),
    /// A timer the node armed with [`World::arm_timer`] went off: its tag.
    Timer(u64),
    /// A call the node made with [`World::call`] was answered, or timed
    /// out: its call id and the answer.
    Answer(u64, Result<Vec<u8>, RpcError>),
    /// The node restarted: everything volatile is gone.
    Restart,
}

type Handler = Rc<dyn Fn(&mut World, NodeEvent<'_>)>;

/// The simulation: virtual clock, event queue, nodes, network, RNG, trace.
///
/// The single-threaded scheduler runs one event at a time, in
/// deterministic order: it hands a node its [`NodeEvent`]s through the
/// node's handler, and runs the environment's script
/// ([`World::schedule_at`]). All state mutation happens through
/// `&mut World` inside those. See the crate-level example for typical
/// use.
pub struct World {
    pub(crate) sched: Scheduler,
    rng: SmallRng,
    net: Network,
    nodes: Vec<NodeState>,
    handlers: Vec<Option<Handler>>,
    trace: Trace,
    pub(crate) rpc: RpcState,
    /// Hard cap on events processed by [`World::run`]; guards against
    /// accidental infinite event loops in tests.
    event_budget: u64,
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

    /// Caps the number of events [`World::run`] will process.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Adds a node, initially up, with no handler.
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

    /// Installs the handler of everything that reaches `node`, replacing
    /// any previous one.
    pub fn set_node_handler<F>(&mut self, node: NodeId, handler: F)
    where
        F: Fn(&mut World, NodeEvent<'_>) + 'static,
    {
        self.handlers[node.index()] = Some(Rc::new(handler));
    }

    /// Installs a handler of `node`'s messages only, replacing any
    /// previous one.
    pub fn set_handler<F>(&mut self, node: NodeId, handler: F)
    where
        F: Fn(&mut World, &Envelope) + 'static,
    {
        self.set_node_handler(node, move |world, event| {
            if let NodeEvent::Message(envelope) = event {
                handler(world, envelope);
            }
        });
    }

    /// Hands `node` `event` through its handler, if it has one.
    pub(crate) fn dispatch(&mut self, node: NodeId, event: NodeEvent<'_>) {
        if let Some(handler) = self.handlers[node.index()].clone() {
            handler(self, event);
        }
    }

    /// Draws a uniform sample in `[0, 1)` from the world RNG.
    pub fn sample_f64(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Draws a uniform integer in `[lo, hi)` from the world RNG.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn sample_range(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_range(lo..hi)
    }

    /// Records a custom annotation in the trace.
    pub fn trace_custom(&mut self, node: impl Into<String>, label: impl Into<String>) {
        let event = TraceEvent::Custom {
            node: node.into(),
            label: label.into(),
        };
        self.trace.record(self.sched.now(), event);
    }

    /// Schedules `f`, a step of the environment's script (a fault, a
    /// flaky disk), to run at absolute time `at`.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut World) + 'static,
    {
        self.sched.schedule(at, Event::Run(Box::new(f)))
    }

    /// Arms a timer of `node`: [`NodeEvent::Timer`] hands it `tag` after
    /// `delay`. A crash of the node takes it out of the queue, and one
    /// armed while the node is down is skipped (a restarted process does
    /// not inherit its predecessor's timers).
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

    fn deliver(&mut self, delivery: Delivery) {
        let Delivery {
            src,
            dst,
            kind,
            payload,
            incarnation: expected_incarnation,
        } = delivery;
        let now = self.sched.now();
        if !self.is_up(dst) {
            self.trace.record(
                now,
                TraceEvent::MessageDropped {
                    src,
                    dst,
                    reason: DropReason::NodeDown,
                },
            );
            return;
        }
        if self.incarnation(dst) != expected_incarnation {
            self.trace.record(
                now,
                TraceEvent::MessageDropped {
                    src,
                    dst,
                    reason: DropReason::StaleIncarnation,
                },
            );
            return;
        }
        self.trace
            .record(now, TraceEvent::MessageDelivered { src, dst });
        if let PayloadKind::Reply(call) = kind {
            self.answer(call, Ok(payload));
            return;
        }
        let envelope = Envelope {
            src,
            dst,
            payload,
            kind,
        };
        self.dispatch(dst, NodeEvent::Message(&envelope));
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

    /// Restarts a crashed node and hands it [`NodeEvent::Restart`]
    /// (recovery).
    pub fn restart(&mut self, node: NodeId) {
        if self.nodes[node.index()].status == NodeStatus::Up {
            return;
        }
        self.nodes[node.index()].status = NodeStatus::Up;
        self.nodes[node.index()].incarnation += 1;
        self.trace
            .record(self.sched.now(), TraceEvent::NodeRestarted { node });
        self.dispatch(node, NodeEvent::Restart);
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

    /// Runs a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((_, _, event)) = self.sched.pop() else {
            return false;
        };
        match event {
            Event::Deliver(delivery) => self.deliver(delivery),
            Event::Timer {
                node,
                incarnation,
                tag,
            } => {
                if self.is_up(node) && self.incarnation(node) == incarnation {
                    self.dispatch(node, NodeEvent::Timer(tag));
                }
            }
            Event::Timeout { call, .. } => self.answer(call, Err(RpcError::Timeout)),
            Event::Run(run) => run(self),
        }
        true
    }

    /// Runs until the event queue is empty (or the event budget trips).
    ///
    /// # Panics
    ///
    /// Panics if the event budget is exhausted, which indicates a runaway
    /// event loop.
    pub fn run(&mut self) {
        let mut processed = 0u64;
        while self.step() {
            processed += 1;
            assert!(
                processed <= self.event_budget,
                "event budget exhausted after {processed} events: runaway loop?"
            );
        }
    }

    /// Runs events with time ≤ `deadline`, leaving later events queued,
    /// then advances the clock to `deadline` itself — so waiting out a
    /// quiet stretch (retry backoff, admission polling) really spends
    /// the virtual time instead of spinning at the last event's
    /// timestamp.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.step_until(deadline) {}
    }

    /// Runs the next event if it is due by `deadline` and returns
    /// `true`; with nothing due, advances the clock to `deadline` and
    /// returns `false`. The single step of [`World::run_until`], for
    /// callers that wait on a condition of their own between events.
    pub fn step_until(&mut self, deadline: SimTime) -> bool {
        match self.sched.peek_time() {
            Some(next) if next <= deadline => self.step(),
            _ => {
                self.sched.advance_to(deadline);
                false
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
    use std::cell::RefCell;

    #[test]
    fn message_roundtrip_advances_clock() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        let b = world.add_node("b");
        world.set_handler(b, |world, env| {
            assert_eq!(env.payload, b"ping");
            world.trace_custom("b", "got ping");
        });
        world.send(a, b, b"ping".to_vec());
        world.run();
        assert!(world.now() > SimTime::ZERO);
        assert!(world.trace().contains_custom("got ping"));
        assert_eq!(world.trace().deliveries(), 1);
    }

    #[test]
    fn crashed_destination_drops_message() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        let b = world.add_node("b");
        world.set_handler(b, |_, _| panic!("handler must not run"));
        world.crash(b);
        world.send(a, b, b"x".to_vec());
        world.run();
        assert_eq!(world.trace().drops(DropReason::NodeDown), 1);
    }

    #[test]
    fn message_sent_before_crash_dropped_after_restart() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        let b = world.add_node("b");
        world.set_handler(b, |_, _| panic!("stale message delivered"));
        world.send(a, b, b"x".to_vec());
        // Crash and immediately restart b before delivery.
        world.crash(b);
        world.restart(b);
        world.run();
        assert_eq!(world.trace().drops(DropReason::StaleIncarnation), 1);
    }

    /// The tags of `node`'s timers, in the order they went off.
    fn record_timers(world: &mut World, node: NodeId) -> Rc<RefCell<Vec<u64>>> {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let seen = fired.clone();
        world.set_node_handler(node, move |_, event| {
            if let NodeEvent::Timer(tag) = event {
                seen.borrow_mut().push(tag);
            }
        });
        fired
    }

    #[test]
    fn node_timer_skipped_after_crash() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        let fired = record_timers(&mut world, a);
        world.arm_timer(a, SimDuration::from_millis(1), 7);
        world.crash(a);
        world.run();
        assert!(fired.borrow().is_empty());
    }

    #[test]
    fn a_crashed_nodes_timers_leave_the_queue() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        world.set_node_handler(a, |_, event| {
            if let NodeEvent::Timer(_) = event {
                panic!("a timer of the dead incarnation fired")
            }
        });
        world.arm_timer(a, SimDuration::from_secs(300), 0);
        world.schedule_at(SimTime::from_nanos(1_000_000_000), move |world| {
            world.crash(a);
            world.restart(a);
        });
        world.run();
        assert_eq!(world.now(), SimTime::from_nanos(1_000_000_000));
        assert_eq!(world.pending_events(), 0);
    }

    #[test]
    fn a_restart_reaches_the_node_handler() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        world.set_node_handler(a, move |world, event| {
            if let NodeEvent::Restart = event {
                let name = world.node_name(a).to_string();
                world.trace_custom(name, "recovered");
            }
        });
        world.crash(a);
        world.restart(a);
        assert!(world.trace().contains_custom("recovered"));
        assert_eq!(world.node_status(a), NodeStatus::Up);
    }

    #[test]
    fn partition_blocks_then_heal_restores() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        let b = world.add_node("b");
        let seen = Rc::new(RefCell::new(0u32));
        let seen2 = seen.clone();
        world.set_handler(b, move |_, _| *seen2.borrow_mut() += 1);
        world.partition(&[a], &[b]);
        world.send(a, b, b"lost".to_vec());
        world.run();
        assert_eq!(*seen.borrow(), 0);
        world.heal_all();
        world.send(a, b, b"found".to_vec());
        world.run();
        assert_eq!(*seen.borrow(), 1);
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
            world.set_handler(b, |world, env| {
                if env.payload[0] < 100 {
                    let (src, dst) = (env.dst, env.src);
                    world.send(src, dst, vec![env.payload[0] + 100]);
                }
            });
            world.set_handler(a, |world, env| {
                let label = format!("echo {}", env.payload[0]);
                world.trace_custom("a", label);
            });
            for i in 0..50u8 {
                world.send(a, b, vec![i]);
            }
            world.run();
            world.trace().render()
        }
        let t1 = run_once(7);
        let t2 = run_once(7);
        let t3 = run_once(8);
        assert_eq!(t1, t2, "same seed must give identical traces");
        assert_ne!(t1, t3, "different seed should differ under loss");
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        let order = record_timers(&mut world, a);
        world.arm_timer(a, SimDuration::from_nanos(10), 1);
        world.arm_timer(a, SimDuration::from_nanos(20), 2);
        world.run_until(SimTime::from_nanos(15));
        assert_eq!(*order.borrow(), vec![1]);
        assert_eq!(world.pending_events(), 1);
        world.run();
        assert_eq!(*order.borrow(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "event budget")]
    fn runaway_loop_trips_budget() {
        let mut world = World::new(1);
        world.set_event_budget(100);
        let a = world.add_node("a");
        world.set_node_handler(a, move |world, _| {
            world.arm_timer(a, SimDuration::from_nanos(1), 0);
        });
        world.arm_timer(a, SimDuration::from_nanos(1), 0);
        world.run();
    }
}
