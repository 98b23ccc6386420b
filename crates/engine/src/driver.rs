//! The one driver of every [`Node`] — a shard, an executor, the
//! repository, the client — on its simulated node: the events
//! [`World::next`] hands the node and the operator's requests become
//! its inputs, and its outputs the world's calls. Timers and calls are
//! values on both sides: the world queues a timer's tag and a call's
//! id, and the driver keeps each armed timer's value beside its world
//! event and each open call's value under its call id, until a
//! [`NodeEvent`] names it; each answer to the operator is filed in the
//! driver's queue.
//!
//! **Emission order is the traffic contract.** Outputs are applied in the
//! order the node emitted them: every [`World::send`] draws two samples
//! from the world's one random stream, and events due at the same instant
//! run in the order they were scheduled, so reordering outputs would make
//! a different simulation.

use std::collections::VecDeque;

use flowscript_codec::IdMap;
use flowscript_sim::{
    EventId, NodeEvent, NodeId, ReplyToken, RpcError, SimDuration, SimTime, World,
};

/// A node as a value: inputs at a virtual time in, what it owes the
/// world out; what its timers and calls resume is data it names.
pub(crate) trait Node {
    /// What an armed timer resumes when it goes off.
    type Timer;
    /// What an answered call resumes.
    type Call;
    /// An operator's request.
    type Op;
    /// What the node answers the operator.
    type Answer;

    /// The node this value runs on.
    fn node(&self) -> NodeId;

    /// Handles `input` at `now`, and returns what it owes the world in
    /// the order owed.
    fn handle(
        &mut self,
        now: SimTime,
        input: Input<Self::Timer, Self::Call, Self::Op>,
    ) -> Vec<Output<Self::Timer, Self::Call, Self::Answer>>;
}

/// What the world, or the operator, feeds a node.
pub(crate) enum Input<T, C, O> {
    /// A message delivered to the node from `from`, with the token to
    /// answer it through when it is a request: its payload moved out of
    /// the envelope, so a node may keep it as it arrived.
    Message {
        from: NodeId,
        payload: Vec<u8>,
        token: Option<ReplyToken>,
    },
    /// A timer the node armed went off.
    Fired(T),
    /// A call the node made was answered, or timed out.
    Answered(C, Result<Vec<u8>, RpcError>),
    /// The node restarted: everything volatile is gone, storage is not.
    Restart,
    /// An operator's request, at the world's time, whether the node is
    /// up or not.
    Op(O),
}

/// What a node owes the world, in the order the world must carry it
/// out (the traffic contract above).
#[derive(Debug)]
pub(crate) enum Output<T, C, A> {
    /// A one-way message from this node.
    Send { to: NodeId, bytes: Vec<u8> },
    /// The answer to a request this node holds the token of.
    Reply { token: ReplyToken, bytes: Vec<u8> },
    /// A request from this node; `call` comes back with the answer, or
    /// with the time-out `timeout` later.
    Call {
        to: NodeId,
        bytes: Vec<u8>,
        timeout: SimDuration,
        call: C,
    },
    /// `timer` comes back `after` from now, unless cancelled by `id`
    /// first or the node restarts.
    Arm {
        id: TimerId,
        after: SimDuration,
        timer: T,
    },
    /// The timer armed under this id does not come back (a no-op once it
    /// went off).
    Cancel(TimerId),
    /// An answer to the operator, filed after those before it.
    Answer(A),
}

/// The name a node gives a timer it arms, for cancelling it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct TimerId(pub(crate) u64);

/// A node and what the world owes it back: the value the façade's
/// loop feeds.
#[allow(private_bounds)]
pub struct Driver<N: Node> {
    value: N,
    /// Every timer the node armed that has neither gone off nor been
    /// cancelled: its world event, and what it resumes, by the id the
    /// node minted for it.
    timers: IdMap<TimerId, (EventId, N::Timer)>,
    /// What each call the node made resumes, by the world's call id,
    /// until it is answered.
    calls: IdMap<u64, N::Call>,
    /// The node's answers not yet taken, oldest first: the caller's, so
    /// a restart leaves them as they were.
    answers: VecDeque<N::Answer>,
}

// Outside the crate, a driver is `get`, `get_mut` and `armed_timers`.
#[allow(private_bounds)]
impl<N: Node> Driver<N> {
    /// `value`, with no timer armed, no call open and nothing answered.
    pub(crate) fn new(value: N) -> Self {
        Self {
            value,
            timers: IdMap::default(),
            calls: IdMap::default(),
            answers: VecDeque::new(),
        }
    }

    /// Hands the node the event [`World::next`] named it for: the
    /// value a timer or call resumes, looked up by its tag or id (one
    /// the node cancelled, or a restart forgot, resumes nothing).
    pub(crate) fn deliver(&mut self, world: &mut World, event: NodeEvent) {
        let input = match event {
            NodeEvent::Message(envelope) => {
                let token = envelope.reply_token();
                let (from, payload) = (envelope.src, envelope.payload);
                Input::Message {
                    from,
                    payload,
                    token,
                }
            }
            NodeEvent::Timer(tag) => match self.timers.remove(&TimerId(tag)) {
                Some((_, timer)) => Input::Fired(timer),
                None => return,
            },
            NodeEvent::Answer(id, answer) => match self.calls.remove(&id) {
                Some(call) => Input::Answered(call, answer),
                None => return,
            },
            NodeEvent::Restart => Input::Restart,
        };
        self.input(world, input);
    }

    /// Hands the node `input` at the world's time, and carries out what
    /// it owes: the one way in, the operator's requests included. A
    /// restart (or a start over a previous run's storage) forgets the
    /// timers and calls first: the world dropped those of the
    /// incarnation that died.
    pub(crate) fn input(&mut self, world: &mut World, input: Input<N::Timer, N::Call, N::Op>) {
        if let Input::Restart = input {
            self.timers.clear();
            self.calls.clear();
        }
        let outputs = self.value.handle(world.now(), input);
        self.apply(world, outputs);
    }

    /// The node's oldest answer to the operator not yet taken.
    pub(crate) fn take_answer(&mut self) -> Option<N::Answer> {
        self.answers.pop_front()
    }

    /// The simulated node it runs on.
    pub(crate) fn node(&self) -> NodeId {
        self.value.node()
    }

    /// Carries out `outputs` in emission order.
    fn apply(&mut self, world: &mut World, outputs: Vec<Output<N::Timer, N::Call, N::Answer>>) {
        let node = self.node();
        for output in outputs {
            match output {
                Output::Send { to, bytes } => world.send(node, to, bytes),
                Output::Reply { token, bytes } => world.rpc_reply_to(token, bytes),
                Output::Call {
                    to,
                    bytes,
                    timeout,
                    call,
                } => match world.call(node, to, bytes, timeout) {
                    Ok(id) => _ = self.calls.insert(id, call),
                    Err(down) => self.input(world, Input::Answered(call, Err(down))),
                },
                Output::Arm { id, after, timer } => {
                    let event = world.arm_timer(node, after, id.0);
                    self.timers.insert(id, (event, timer));
                }
                Output::Cancel(id) => {
                    if let Some((event, _)) = self.timers.remove(&id) {
                        world.cancel(event);
                    }
                }
                Output::Answer(answer) => self.answers.push_back(answer),
            }
        }
    }

    /// The node, for reading.
    pub fn get(&self) -> &N {
        &self.value
    }

    /// The node, for a read that needs `&mut` (one that probes the log
    /// tail), or a test's edit by hand: what changes what a node holds
    /// is an input, the operator's an op.
    pub fn get_mut(&mut self) -> &mut N {
        &mut self.value
    }

    /// Timers armed and not yet gone off or cancelled: none once the
    /// world is quiescent.
    pub fn armed_timers(&self) -> usize {
        self.timers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arms one timer and makes one call per operator request, and notes
    /// what comes back.
    struct Probe {
        node: NodeId,
        peer: NodeId,
        seen: Vec<&'static str>,
    }

    impl Node for Probe {
        type Timer = &'static str;
        type Call = &'static str;
        type Op = ();
        type Answer = ();

        fn node(&self) -> NodeId {
            self.node
        }

        fn handle(
            &mut self,
            _: SimTime,
            input: Input<&'static str, &'static str, ()>,
        ) -> Vec<Output<&'static str, &'static str, ()>> {
            match input {
                Input::Op(()) => {
                    let after = SimDuration::from_millis(5);
                    return vec![
                        Output::Arm {
                            id: TimerId(0),
                            after,
                            timer: "timer",
                        },
                        Output::Call {
                            to: self.peer,
                            bytes: Vec::new(),
                            timeout: after,
                            call: "call",
                        },
                    ];
                }
                Input::Fired(seen) | Input::Answered(seen, _) => self.seen.push(seen),
                Input::Restart => self.seen.push("restart"),
                Input::Message { .. } => {}
            }
            Vec::new()
        }
    }

    /// Runs `world` dry, feeding `driver` its events; `peer` answers
    /// every request with nothing.
    fn run(world: &mut World, driver: &mut Driver<Probe>, peer: NodeId) {
        while let Some((node, event)) = world.next() {
            match event {
                NodeEvent::Message(envelope) if node == peer => {
                    let token = envelope.reply_token().expect("a request");
                    world.rpc_reply_to(token, Vec::new());
                }
                event => driver.deliver(world, event),
            }
        }
    }

    #[test]
    fn a_restart_forgets_the_timers_and_calls_of_the_incarnation_that_died() {
        let mut world = World::new(1);
        let (node, peer) = (world.add_node("probe"), world.add_node("peer"));
        let seen = Vec::new();
        let mut driver = Driver::new(Probe { node, peer, seen });
        driver.input(&mut world, Input::Op(()));
        assert_eq!((driver.armed_timers(), driver.calls.len()), (1, 1));
        world.crash(node);
        assert!(world.restart(node));
        driver.deliver(&mut world, NodeEvent::Restart);
        run(&mut world, &mut driver, peer);
        assert_eq!(driver.get().seen, ["restart"]);
        assert_eq!((driver.armed_timers(), driver.calls.len()), (0, 0));
        assert_eq!(flowscript_sim::rpc::in_flight(&world), 0);

        // The new incarnation's own timer and call do come back.
        driver.input(&mut world, Input::Op(()));
        run(&mut world, &mut driver, peer);
        assert_eq!(driver.get().seen, ["restart", "call", "timer"]);
        assert_eq!((driver.armed_timers(), driver.calls.len()), (0, 0));
    }
}
