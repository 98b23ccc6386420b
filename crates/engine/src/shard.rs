//! Instance sharding across coordinator nodes.
//!
//! The paper separates the script repository from the execution service
//! precisely so the execution service can scale out (§3, Fig. 4). This
//! module supplies the missing piece: a [`ShardMap`] assigning every
//! workflow instance — by **name** — to exactly one coordinator node.
//! Each coordinator owns its instances' facts, control blocks,
//! write-ahead log and worklists; the repository
//! (and its per-version plan cache) stays shared by all shards.
//!
//! Ownership is decided by **rendezvous (highest-random-weight)
//! hashing**: every shard computes a weight from `(shard index,
//! instance name)` and the highest weight wins. Compared with a mod-N
//! ring this gives
//!
//! - a deterministic, coordination-free mapping every node (and every
//!   client) can compute locally from the same coordinator list, and
//! - minimal disruption under growth: appending a coordinator only
//!   moves the instances the new shard now wins — everything else
//!   stays put (see `growth_moves_only_to_the_new_shard`).
//!
//! The map is no longer static: it carries an **epoch** that bumps on
//! every membership change ([`ShardMap::add_node`] /
//! [`ShardMap::remove_node`]). Every coordinator of a system starts
//! from the same epoch-1 map; a rebalance installs a successor map on
//! all of them after the hand-off protocol (see
//! [`crate::coordinator::Coordinator`]) has claimed the moving
//! instances' facts onto their new owners. Requests landing on the wrong
//! shard are forwarded to the owner with a count of their hops, and a
//! hop cap breaks the ping-pong two disagreeing maps could otherwise
//! sustain mid-flip. No message names the epoch it was routed under
//! save a claim, which the receiver refuses when it is stale.
//!
//! Each shard's rendezvous weight is keyed by a **stable seed**
//! assigned when the shard joins (not by its current index), so
//! removing a shard re-indexes the survivors without re-hashing them:
//! only the removed shard's instances move (see
//! `shrink_moves_only_from_the_removed_shard`).

use flowscript_sim::NodeId;

/// Seed for the per-(shard, instance) weight (an arbitrary odd
/// constant; any fixed value works, it just decorrelates the weights
/// from other FNV uses in the codebase).
const WEIGHT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The instance → coordinator-node assignment, shared verbatim by every
/// coordinator of one workflow system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    nodes: Vec<NodeId>,
    /// Stable per-shard rendezvous seed, parallel to `nodes`. A fresh
    /// map seeds shard `i` with `i` (identical placement to the old
    /// index-keyed scheme); later joins draw fresh seeds so removals
    /// never re-key survivors.
    seeds: Vec<u64>,
    /// Bumps on every membership change; starts at 1.
    epoch: u64,
    next_seed: u64,
}

impl ShardMap {
    /// Builds an epoch-1 map over the given coordinator nodes (shard
    /// `i` is `nodes[i]`).
    ///
    /// # Panics
    ///
    /// Panics on an empty node list — a system always has at least one
    /// coordinator.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "a shard map needs at least one node");
        let seeds = (0..nodes.len() as u64).collect();
        let next_seed = nodes.len() as u64;
        Self {
            nodes,
            seeds,
            epoch: 1,
            next_seed,
        }
    }

    /// Number of shards (= coordinator nodes).
    pub fn shard_count(&self) -> usize {
        self.nodes.len()
    }

    /// The coordinator nodes, in shard order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The membership epoch. Starts at 1 and bumps on every
    /// [`add_node`](Self::add_node) / [`remove_node`](Self::remove_node);
    /// requests and executor reports carry it so stale routing is
    /// diagnosable.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Appends a coordinator as a new shard, bumps the epoch, and
    /// returns the new shard's index. Only instances the new shard
    /// wins move (rendezvous growth property).
    ///
    /// # Panics
    ///
    /// Panics if `node` is already a shard.
    pub fn add_node(&mut self, node: NodeId) -> usize {
        assert!(
            !self.nodes.contains(&node),
            "node is already a shard of this map"
        );
        self.nodes.push(node);
        self.seeds.push(self.next_seed);
        self.next_seed += 1;
        self.epoch += 1;
        self.nodes.len() - 1
    }

    /// Removes a coordinator and bumps the epoch. Survivors keep their
    /// seeds, so only the removed shard's instances move (rendezvous
    /// shrink property).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a shard, or if removing it would leave
    /// the map empty.
    pub fn remove_node(&mut self, node: NodeId) {
        let idx = self
            .nodes
            .iter()
            .position(|&n| n == node)
            .expect("node is not a shard of this map");
        assert!(self.nodes.len() > 1, "a shard map needs at least one node");
        self.nodes.remove(idx);
        self.seeds.remove(idx);
        self.epoch += 1;
    }

    /// The rendezvous weight of `instance` on the shard with stable
    /// seed `seed`: an FNV-1a hash over the seed and the instance
    /// name, mixed once more so short names still spread.
    fn weight(seed: u64, instance: &str) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ WEIGHT_SEED;
        for byte in seed.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        for byte in instance.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        // Final avalanche (splitmix64 tail).
        hash ^= hash >> 30;
        hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        hash ^= hash >> 27;
        hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
        hash ^ (hash >> 31)
    }

    /// The shard index owning `instance` (highest weight wins; ties —
    /// astronomically unlikely — break toward the lower index).
    pub fn shard_of(&self, instance: &str) -> usize {
        let mut best = 0usize;
        let mut best_weight = Self::weight(self.seeds[0], instance);
        for shard in 1..self.nodes.len() {
            let weight = Self::weight(self.seeds[shard], instance);
            if weight > best_weight {
                best = shard;
                best_weight = weight;
            }
        }
        best
    }

    /// The coordinator node owning `instance`.
    pub fn node_of(&self, instance: &str) -> NodeId {
        self.nodes[self.shard_of(instance)]
    }

    /// Whether `node` is the owner of `instance`.
    pub fn owns(&self, node: NodeId, instance: &str) -> bool {
        self.node_of(instance) == node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        // NodeId's internals are sim-crate private; fabricate ids via a
        // throwaway world.
        let mut world = flowscript_sim::World::new(0);
        (0..n).map(|i| world.add_node(format!("c{i}"))).collect()
    }

    #[test]
    fn single_shard_owns_everything() {
        let map = ShardMap::new(nodes(1));
        for name in ["a", "order-17", "", "漢字"] {
            assert_eq!(map.shard_of(name), 0);
            assert_eq!(map.node_of(name), map.nodes()[0]);
        }
    }

    #[test]
    fn mapping_is_deterministic_and_total() {
        let map_a = ShardMap::new(nodes(8));
        let map_b = ShardMap::new(nodes(8));
        for i in 0..500 {
            let name = format!("instance{i}");
            let shard = map_a.shard_of(&name);
            assert!(shard < 8);
            assert_eq!(shard, map_b.shard_of(&name), "{name}");
            assert!(map_a.owns(map_a.node_of(&name), &name));
        }
    }

    #[test]
    fn distribution_is_roughly_balanced() {
        let map = ShardMap::new(nodes(8));
        let mut counts = [0usize; 8];
        for i in 0..4000 {
            counts[map.shard_of(&format!("wf-{i}"))] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            // Perfect balance is 500; accept a generous band.
            assert!(
                (300..=700).contains(&count),
                "shard {shard} got {count} of 4000: {counts:?}"
            );
        }
    }

    #[test]
    fn growth_moves_only_to_the_new_shard() {
        // The rendezvous property: appending a shard never moves an
        // instance between two pre-existing shards.
        let eight = nodes(9);
        let map_small = ShardMap::new(eight[..8].to_vec());
        let map_grown = ShardMap::new(eight.clone());
        let mut moved = 0usize;
        for i in 0..2000 {
            let name = format!("wf-{i}");
            let before = map_small.shard_of(&name);
            let after = map_grown.shard_of(&name);
            if before != after {
                assert_eq!(after, 8, "{name} moved between old shards");
                moved += 1;
            }
        }
        assert!(moved > 0, "the new shard should win some instances");
        // Roughly 1/9th of the keyspace moves.
        assert!(moved < 2000 / 4, "moved {moved}: far more than expected");
    }

    #[test]
    fn shrink_moves_only_from_the_removed_shard() {
        // The other half of the rendezvous guarantee: removing a shard
        // never moves an instance between two surviving shards.
        let nine = nodes(9);
        let map_full = ShardMap::new(nine.clone());
        let removed = 3usize;
        let mut map_shrunk = map_full.clone();
        map_shrunk.remove_node(nine[removed]);
        let mut moved = 0usize;
        for i in 0..2000 {
            let name = format!("wf-{i}");
            let before = map_full.node_of(&name);
            let after = map_shrunk.node_of(&name);
            if before != after {
                assert_eq!(before, nine[removed], "{name} moved off a surviving shard");
                moved += 1;
            }
        }
        assert!(moved > 0, "the removed shard owned some instances");
        // Roughly 1/9th of the keyspace moves.
        assert!(moved < 2000 / 4, "moved {moved}: far more than expected");
    }

    #[test]
    fn add_then_remove_round_trips_ownership() {
        let ten = nodes(10);
        let map_before = ShardMap::new(ten[..9].to_vec());
        let mut map = map_before.clone();
        let idx = map.add_node(ten[9]);
        assert_eq!(idx, 9);
        map.remove_node(ten[9]);
        for i in 0..500 {
            let name = format!("wf-{i}");
            assert_eq!(map.node_of(&name), map_before.node_of(&name), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "already a shard")]
    fn duplicate_add_rejected() {
        let two = nodes(2);
        let mut map = ShardMap::new(two.clone());
        map.add_node(two[0]);
    }

    #[test]
    #[should_panic(expected = "not a shard")]
    fn absent_remove_rejected() {
        let three = nodes(3);
        let mut map = ShardMap::new(three[..2].to_vec());
        map.remove_node(three[2]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn remove_to_empty_rejected() {
        let one = nodes(1);
        let mut map = ShardMap::new(one.clone());
        map.remove_node(one[0]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_map_rejected() {
        let _ = ShardMap::new(Vec::new());
    }

    mod epoch_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The epoch strictly increases across any add/remove
            /// sequence, and survivors never re-key on shrink.
            #[test]
            fn epoch_is_strictly_monotonic(ops in proptest::collection::vec(any::<bool>(), 1..20)) {
                let pool = nodes(24);
                let mut used = 2usize; // nodes 0..used are in the map
                let mut map = ShardMap::new(pool[..used].to_vec());
                let mut last_epoch = map.epoch();
                prop_assert_eq!(last_epoch, 1);
                for &grow in &ops {
                    if grow && used < pool.len() {
                        map.add_node(pool[used]);
                        used += 1;
                    } else if !grow && map.shard_count() > 1 {
                        let victim = *map.nodes().last().unwrap();
                        let before: Vec<_> = (0..64)
                            .map(|i| map.node_of(&format!("p{i}")))
                            .collect();
                        map.remove_node(victim);
                        for (i, owner) in before.into_iter().enumerate() {
                            if owner != victim {
                                prop_assert_eq!(map.node_of(&format!("p{i}")), owner);
                            }
                        }
                    } else {
                        continue;
                    }
                    prop_assert!(map.epoch() > last_epoch);
                    prop_assert_eq!(map.epoch(), last_epoch + 1);
                    last_epoch = map.epoch();
                }
            }
        }
    }
}
