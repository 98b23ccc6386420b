//! The resident set: each resident instance's runtime in the slot of its
//! dense id, and one index from names to ids. A name is a client's
//! choice, so it is resolved once, where the input that carries it
//! enters the shard ([`Residents::resolve`]); from there on the instance
//! is its id, and each step, effect, flight and queue entry names it so.
//! The index is ordered, because names are chosen by clients and the
//! fixed hasher is only for keys the program mints
//! ([`flowscript_codec::IdHasher`]), and every walk of the set goes
//! through it, in name order.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use super::InstanceRt;

/// The shard's resident instances, by id and by name.
#[derive(Default)]
pub(super) struct Residents {
    /// Each resident instance's id, by name.
    names: BTreeMap<Arc<str>, u32>,
    /// One slot per id the shard has minted, filled while its instance
    /// is resident.
    slots: Vec<Option<InstanceRt>>,
    /// How many names [`Residents::resolve`] was asked for: a test
    /// hook, which a golden pins per instance.
    resolved: Cell<u64>,
}

impl Residents {
    /// The id of the resident instance called `name`: the one lookup of
    /// a name in the shard.
    pub(super) fn resolve(&self, name: &str) -> Option<u32> {
        self.resolved.set(self.resolved.get() + 1);
        self.names.get(name).copied()
    }

    /// The runtime of resident instance `id`.
    pub(super) fn get(&self, id: u32) -> Option<&InstanceRt> {
        self.slots.get(id as usize)?.as_ref()
    }

    pub(super) fn get_mut(&mut self, id: u32) -> Option<&mut InstanceRt> {
        self.slots.get_mut(id as usize)?.as_mut()
    }

    /// Makes `rt` resident under its name and id.
    pub(super) fn insert(&mut self, rt: InstanceRt) {
        let slot = rt.id as usize;
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        self.names.insert(rt.name.clone(), rt.id);
        self.slots[slot] = Some(rt);
    }

    /// Takes resident instance `id` out of the set.
    pub(super) fn remove(&mut self, id: u32) -> Option<InstanceRt> {
        let rt = self.slots.get_mut(id as usize)?.take()?;
        self.names.remove(&rt.name);
        Some(rt)
    }

    /// Empties the set, its table freed and a slot ready for each of the
    /// `ids` first ids: a restart sizes the table once, from the first id
    /// its store leaves free.
    pub(super) fn reset(&mut self, ids: u32) {
        self.names.clear();
        self.slots = std::iter::repeat_with(|| None).take(ids as usize).collect();
    }

    /// The resident names, in name order.
    pub(super) fn names(&self) -> impl Iterator<Item = &Arc<str>> {
        self.names.keys()
    }

    pub(super) fn len(&self) -> usize {
        self.names.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// How many names were resolved so far.
    pub(super) fn resolutions(&self) -> u64 {
        self.resolved.get()
    }

    /// The runtime of the resident instance called `name`.
    pub(super) fn named(&self, name: &str) -> Option<&InstanceRt> {
        self.get(self.resolve(name)?)
    }

    pub(super) fn named_mut(&mut self, name: &str) -> Option<&mut InstanceRt> {
        self.get_mut(self.resolve(name)?)
    }
}
