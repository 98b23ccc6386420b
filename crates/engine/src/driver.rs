//! The one driver of a shard: a [`Coordinator`] on a simulated node. It
//! turns the world's events into the shard's inputs — borrowing the
//! shard's one cell once per input — and the shard's outputs into the
//! world's calls, keeping the world's event for every timer the shard
//! armed under the id the shard named it by.
//!
//! **Emission order is the traffic contract.** Outputs are applied in the
//! order the shard emitted them: every [`World::send`] draws two samples
//! from the world's one random stream, and events due at the same instant
//! run in the order they were scheduled, so reordering outputs would make
//! a different simulation.

use std::cell::{Ref, RefCell, RefMut};
use std::collections::BTreeMap;
use std::rc::Rc;

use flowscript_sim::{EventId, NodeId, SimTime, World};

use crate::coordinator::{Coordinator, Input, Output, TimerId};

/// A shard installed on its node. Clones share the shard.
#[derive(Clone)]
pub struct Driver(Rc<Shard>);

struct Shard {
    node: NodeId,
    coordinator: RefCell<Coordinator>,
    /// The world's event for every timer the shard armed that has
    /// neither gone off nor been cancelled.
    timers: RefCell<BTreeMap<TimerId, EventId>>,
}

impl Driver {
    /// Installs `coordinator` on its node: the node's messages and
    /// restarts become its inputs.
    pub(crate) fn install(coordinator: Coordinator, world: &mut World) -> Self {
        let node = coordinator.node();
        let driver = Self(Rc::new(Shard {
            node,
            coordinator: RefCell::new(coordinator),
            timers: RefCell::default(),
        }));
        let handler = driver.clone();
        world.set_handler(node, move |world, envelope| {
            handler.input(
                world,
                Input::Message(&envelope.payload, envelope.reply_token()),
            );
        });
        let restarted = driver.clone();
        world.set_restart_hook(node, move |world, _| restarted.restart(world));
        driver
    }

    /// The node restarted — or came up over storage a previous run left
    /// behind: the world dropped the timers of the incarnation that
    /// died, and the shard reloads from its log.
    pub(crate) fn restart(&self, world: &mut World) {
        self.0.timers.borrow_mut().clear();
        self.input(world, Input::Restart);
    }

    fn input(&self, world: &mut World, input: Input<'_>) {
        let outputs = self.0.coordinator.borrow_mut().handle(world.now(), input);
        self.apply(world, outputs);
    }

    /// Runs an operator call on the shard at the world's time and
    /// applies the outputs it returns beside its result.
    pub(crate) fn call<T>(
        &self,
        world: &mut World,
        op: impl FnOnce(&mut Coordinator, SimTime) -> (T, Vec<Output>),
    ) -> T {
        let (result, outputs) = op(&mut self.0.coordinator.borrow_mut(), world.now());
        self.apply(world, outputs);
        result
    }

    /// Carries out `outputs` in emission order.
    fn apply(&self, world: &mut World, outputs: Vec<Output>) {
        let node = self.0.node;
        for output in outputs {
            match output {
                Output::Send { to, bytes } => world.send(node, to, bytes),
                Output::Reply { token, bytes } => world.rpc_reply_to(token, bytes),
                Output::Call {
                    to,
                    bytes,
                    timeout,
                    call,
                } => {
                    let caller = self.clone();
                    world.rpc_call(node, to, bytes, timeout, move |world, answer| {
                        caller.input(world, Input::Answered(call, answer));
                    });
                }
                Output::Arm { id, after, timer } => {
                    let owner = self.clone();
                    let event = world.schedule_node_after(node, after, move |world| {
                        owner.0.timers.borrow_mut().remove(&id);
                        owner.input(world, Input::Fired(timer));
                    });
                    self.0.timers.borrow_mut().insert(id, event);
                }
                Output::Cancel(id) => {
                    if let Some(event) = self.0.timers.borrow_mut().remove(&id) {
                        world.cancel(event);
                    }
                }
            }
        }
    }

    /// The shard, for reading.
    pub fn get(&self) -> Ref<'_, Coordinator> {
        self.0.coordinator.borrow()
    }

    /// The shard, for an edit that owes the world nothing.
    pub fn get_mut(&self) -> RefMut<'_, Coordinator> {
        self.0.coordinator.borrow_mut()
    }

    /// Timers armed and not yet gone off or cancelled: none once the
    /// world is quiescent.
    pub fn armed_timers(&self) -> usize {
        self.0.timers.borrow().len()
    }
}
