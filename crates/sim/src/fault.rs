//! Declarative fault plans.
//!
//! A [`FaultPlan`] scripts the environmental failures of the paper's §2 —
//! processor crashes, network partitions (healing or not), lossy periods —
//! as timed actions applied to the [`World`]. Benchmarks and tests build
//! plans once and replay them deterministically. An action is a queued
//! value: [`World::next`] applies it when its time comes, and hands a
//! restarted node its [`NodeEvent::Restart`] before any other event.
//!
//! # Examples
//!
//! ```
//! use flowscript_sim::{FaultAction, FaultPlan, NodeEvent, SimTime, World};
//!
//! let mut world = World::new(1);
//! let a = world.add_node("a");
//! let b = world.add_node("b");
//! let plan = FaultPlan::new()
//!     .at(SimTime::from_nanos(100), FaultAction::Crash(a))
//!     .at(SimTime::from_nanos(500), FaultAction::Restart(a))
//!     .at(
//!         SimTime::from_nanos(200),
//!         FaultAction::Partition(vec![a], vec![b]),
//!     )
//!     .at(SimTime::from_nanos(900), FaultAction::HealAll);
//! plan.apply(&mut world);
//! assert!(matches!(world.next(), Some((node, NodeEvent::Restart)) if node == a));
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::net::LinkConfig;
use crate::node::NodeId;
use crate::sched::Event;
use crate::time::SimTime;
use crate::world::{NodeEvent, World};

/// One scripted environmental failure (or repair).
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Crash a node.
    Crash(NodeId),
    /// Restart a crashed node (handing it `NodeEvent::Restart`).
    Restart(NodeId),
    /// Partition two groups of nodes.
    Partition(Vec<NodeId>, Vec<NodeId>),
    /// Heal all partitions.
    HealAll,
    /// Replace the default link configuration (e.g. enter a lossy period).
    SetDefaultLink(LinkConfig),
    /// Set a switch the environment shares with a node's code (say, a
    /// flaky disk that refuses writes while it is on).
    Switch(Arc<AtomicBool>, bool),
}

impl FaultAction {
    /// Applies the action to `world`: the restarted node and its
    /// [`NodeEvent::Restart`], if the action brought one up.
    pub(crate) fn apply(self, world: &mut World) -> Option<(NodeId, NodeEvent)> {
        match self {
            FaultAction::Crash(node) => world.crash(node),
            FaultAction::Restart(node) => {
                return world.restart(node).then_some((node, NodeEvent::Restart))
            }
            FaultAction::Partition(a, b) => world.partition(&a, &b),
            FaultAction::HealAll => world.heal_all(),
            FaultAction::SetDefaultLink(config) => world.net_mut().set_default_link(config),
            FaultAction::Switch(switch, on) => switch.store(on, Ordering::Relaxed),
        }
        None
    }
}

/// A timed sequence of [`FaultAction`]s.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    actions: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an action at an absolute virtual time (builder style).
    /// Times already in the past when the plan is applied fire
    /// immediately.
    pub fn at(mut self, time: SimTime, action: FaultAction) -> Self {
        self.actions.push((time, action));
        self
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The scheduled actions, in insertion order.
    pub fn actions(&self) -> &[(SimTime, FaultAction)] {
        &self.actions
    }

    /// Queues every action onto the world.
    pub fn apply(&self, world: &mut World) {
        for (time, action) in &self.actions {
            world.sched.schedule(*time, Event::Fault(action.clone()));
        }
    }

    /// Convenience: a plan that crashes `node` at `at` and restarts it
    /// after `downtime`.
    pub fn crash_restart(node: NodeId, at: SimTime, downtime: crate::SimDuration) -> Self {
        Self::new()
            .at(at, FaultAction::Crash(node))
            .at(at + downtime, FaultAction::Restart(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::NodeStatus;

    #[test]
    fn crash_restart_cycle() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        FaultPlan::crash_restart(a, SimTime::from_nanos(10), SimDuration::from_nanos(20))
            .apply(&mut world);
        assert!(world.next_until(SimTime::from_nanos(15)).is_none());
        assert_eq!(world.node_status(a), NodeStatus::Crashed);
        assert!(matches!(world.next(), Some((node, NodeEvent::Restart)) if node == a));
        assert_eq!(world.node_status(a), NodeStatus::Up);
    }

    #[test]
    fn partition_and_heal_scheduled() {
        let mut world = World::new(1);
        let a = world.add_node("a");
        let b = world.add_node("b");
        FaultPlan::new()
            .at(
                SimTime::from_nanos(5),
                FaultAction::Partition(vec![a], vec![b]),
            )
            .at(SimTime::from_nanos(10), FaultAction::HealAll)
            .apply(&mut world);
        assert!(world.next_until(SimTime::from_nanos(7)).is_none());
        assert!(!world.net().can_communicate(a, b));
        assert!(world.next().is_none());
        assert!(world.net().can_communicate(a, b));
    }

    #[test]
    fn lossy_period_via_link_swap() {
        let mut world = World::new(1);
        let lossy = LinkConfig {
            drop_prob: 1.0,
            ..LinkConfig::default()
        };
        FaultPlan::new()
            .at(SimTime::from_nanos(1), FaultAction::SetDefaultLink(lossy))
            .apply(&mut world);
        assert!(world.next().is_none());
        assert_eq!(world.net().default_link().drop_prob, 1.0);
    }

    #[test]
    fn a_switch_flips_at_its_time() {
        let mut world = World::new(1);
        let switch = Arc::new(AtomicBool::new(false));
        FaultPlan::new()
            .at(
                SimTime::from_nanos(5),
                FaultAction::Switch(switch.clone(), true),
            )
            .at(
                SimTime::from_nanos(9),
                FaultAction::Switch(switch.clone(), false),
            )
            .apply(&mut world);
        assert!(world.next_until(SimTime::from_nanos(4)).is_none());
        assert!(!switch.load(Ordering::Relaxed));
        assert!(world.next_until(SimTime::from_nanos(5)).is_none());
        assert!(switch.load(Ordering::Relaxed));
        assert!(world.next().is_none());
        assert!(!switch.load(Ordering::Relaxed));
    }

    #[test]
    fn plan_introspection() {
        let plan = FaultPlan::new().at(SimTime::ZERO, FaultAction::HealAll);
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
        assert_eq!(plan.actions().len(), 1);
        assert!(FaultPlan::new().is_empty());
    }
}
