//! The committed store: every object a [`TxManager`](crate::TxManager)'s
//! actions committed, and nothing they only staged.
//!
//! Uids carry names a client chose and are read by prefix, so they stay
//! in an ordered map, which no choice of names can flood. Fact keys and
//! control blocks, the commit hot path, are grouped by the instance id
//! the engine mints ([`FactKey::instance`]): each instance's objects are
//! one run sorted by key, found by one probe of an [`IdMap`] under the
//! fixed hasher. A point read or write is that probe and a binary search
//! over one instance's keys, and a range within one instance is one
//! slice of its run. A run is never empty: an instance whose last key
//! goes leaves no entry behind.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

use flowscript_codec::IdMap;

use crate::id::ObjectUid;
use crate::key::{FactKey, StoreKey};
use crate::log;

/// The most bytes an object holds in place ([`Stored`]): every control
/// block, and a fact object of a short payload.
const INLINE: usize = 22;

/// One object's bytes as the store and a workspace hold them: up to
/// [`INLINE`] bytes in place, so staging and committing one allocates
/// nothing, and longer ones on the heap. A staged after-image is
/// encoded into the manager's scratch writer and copied here
/// ([`TxManager::write_key_with`](crate::TxManager::write_key_with)),
/// not into a `Vec` of its own.
#[derive(Clone)]
pub(crate) enum Stored {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Box<[u8]>),
}

impl Stored {
    /// A copy of `bytes`.
    pub(crate) fn copy_of(bytes: &[u8]) -> Self {
        let mut inline = [0; INLINE];
        match inline.get_mut(..bytes.len()) {
            Some(held) => {
                held.copy_from_slice(bytes);
                let len = bytes.len() as u8;
                Stored::Inline { len, bytes: inline }
            }
            None => Stored::Heap(bytes.into()),
        }
    }

    /// The bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            Stored::Inline { len, bytes } => bytes.get(..usize::from(*len)).unwrap_or_default(),
            Stored::Heap(bytes) => bytes,
        }
    }
}

/// Bytes that arrived in a `Vec` of their own (a caller's raw write)
/// move to the heap as they are, or in place if short.
impl From<Vec<u8>> for Stored {
    fn from(bytes: Vec<u8>) -> Self {
        if bytes.len() <= INLINE {
            Stored::copy_of(&bytes)
        } else {
            Stored::Heap(bytes.into_boxed_slice())
        }
    }
}

impl std::fmt::Debug for Stored {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A workspace's after-image, written to the log where it lies, and a
/// replayed one, made from the frame where it lies.
impl log::Image for Option<Stored> {
    fn bytes(&self) -> Option<&[u8]> {
        self.as_ref().map(Stored::as_slice)
    }

    fn from_bytes(bytes: Option<&[u8]>) -> Self {
        bytes.map(Stored::copy_of)
    }
}

/// The room a new run takes per image of the commit that opens it. At
/// the end of a `--seconds 2` ledger run, seed 1, a run holds 4.0 times
/// its opening images in `wave` (a diamond opens with 4 control blocks
/// and ends at 16 keys), 2.5 or 5.8–6.0 in `closed_apps` (an order or a
/// trip opens with 6 and ends at 15, or at 35–36; 3.6 over all runs) and
/// 2.25 or 4.0 in `crash_recover`: so most runs never grow again.
const RUN_ROOM: usize = 4;

/// One instance's committed fact keys and control blocks, sorted by
/// key, each key once.
type Run = Vec<(FactKey, Stored)>;

/// The committed objects, uids by name and fact keys by instance (see
/// the module doc).
#[derive(Debug, Default)]
pub(crate) struct Store {
    uids: BTreeMap<ObjectUid, Stored>,
    runs: IdMap<u32, Run>,
}

impl Store {
    /// The store a checkpoint's `states` hold, each run at its length,
    /// emptying `states`. A state naming a key a second time (a hostile
    /// log: a checkpoint lists each key once, in key order) wins over
    /// the first.
    pub(crate) fn restored(states: &mut Vec<(StoreKey, Option<Stored>)>) -> Self {
        let mut store = Store::default();
        store.put(states, 1);
        store
    }

    /// The object at `key`.
    pub(crate) fn get(&self, key: &StoreKey) -> Option<&Stored> {
        match key {
            StoreKey::Uid(uid) => self.uids.get(uid),
            StoreKey::Fact(fact) => {
                let run = self.runs.get(&fact.instance)?;
                let at = run.binary_search_by_key(fact, |(key, _)| *key).ok()?;
                run.get(at).map(|(_, bytes)| bytes)
            }
        }
    }

    /// How many objects there are.
    pub(crate) fn len(&self) -> usize {
        self.uids.len() + self.runs.values().map(Vec::len).sum::<usize>()
    }

    /// The uids that start with `prefix`, in order: one range walk.
    pub(crate) fn uids_from<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a ObjectUid> + 'a {
        let start = ObjectUid::new(prefix);
        self.uids
            .range((Bound::Included(start), Bound::Unbounded))
            .map(|(uid, _)| uid)
            .take_while(move |uid| uid.as_str().starts_with(prefix))
    }

    /// The fact keys in `lo..=hi` and their objects, in key order. A
    /// range within one instance is one slice of its run; a wider one
    /// walks the instance ids it spans in order, a slice each.
    pub(crate) fn facts(
        &self,
        lo: FactKey,
        hi: FactKey,
    ) -> impl Iterator<Item = &(FactKey, Stored)> + '_ {
        let one = (lo.instance == hi.instance).then_some(lo.instance);
        let mut wider = Vec::new();
        if lo.instance < hi.instance {
            let spanned = lo.instance..=hi.instance;
            wider.extend(self.runs.keys().filter(|id| spanned.contains(id)));
            wider.sort_unstable();
        }
        one.into_iter().chain(wider).flat_map(move |id| {
            let run = self.runs.get(&id).map_or(&[][..], Vec::as_slice);
            let start = run.partition_point(|(key, _)| *key < lo);
            let end = run.partition_point(|(key, _)| *key <= hi);
            run.get(start..end).unwrap_or_default()
        })
    }

    /// The greatest fact key: the largest of the runs' last keys, a max
    /// over the instances.
    pub(crate) fn last_fact(&self) -> Option<FactKey> {
        self.runs
            .values()
            .filter_map(|run| run.last().map(|(key, _)| *key))
            .max()
    }

    /// Every object in key order: the uids, which order first, then each
    /// instance's run in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (StoreKey, &Stored)> {
        let mut ids: Vec<u32> = self.runs.keys().copied().collect();
        ids.sort_unstable();
        let uids = self
            .uids
            .iter()
            .map(|(uid, bytes)| (StoreKey::Uid(uid.clone()), bytes));
        let facts = ids
            .into_iter()
            .flat_map(|id| self.runs.get(&id).into_iter().flatten())
            .map(|(key, bytes)| (StoreKey::Fact(*key), bytes));
        uids.chain(facts)
    }

    /// Moves committed after-images in, emptying `writes` (`None`
    /// deletes its key): a uid's as a point write, fact keys one group
    /// at a time, each group the images of one instance that lie
    /// together in the list ([`apply_run`]). A step that writes a whole
    /// instance (a start, a landing, a purge, a remap) stages its keys
    /// together, so that instance is one group. The order within a
    /// group is free, as an action stages each key once; a list that
    /// names a key twice (a hostile log) ends with its last image, as
    /// applying the list in order would. A new run takes [`RUN_ROOM`]
    /// slots per image it opens with.
    pub(crate) fn apply<V: Into<Stored>>(&mut self, writes: &mut Vec<(StoreKey, Option<V>)>) {
        self.put(writes, RUN_ROOM);
    }

    /// [`Store::apply`], a new run taking `room` slots per image.
    fn put<V: Into<Stored>>(&mut self, writes: &mut Vec<(StoreKey, Option<V>)>, room: usize) {
        writes.retain_mut(|(key, image)| {
            let StoreKey::Uid(uid) = key else {
                return true;
            };
            match image.take() {
                Some(bytes) => {
                    let uid = std::mem::replace(uid, ObjectUid::new(String::new()));
                    self.uids.insert(uid, bytes.into());
                }
                None => {
                    self.uids.remove(uid);
                }
            }
            false
        });
        let instance = |(key, _): &(StoreKey, Option<V>)| fact(key).instance;
        for images in writes.chunk_by_mut(|a, b| instance(a) == instance(b)) {
            let Some(id) = images.first().map(instance) else {
                continue;
            };
            let run = match self.runs.entry(id) {
                Entry::Occupied(run) => run.into_mut(),
                Entry::Vacant(_) if images.iter().all(|(_, image)| image.is_none()) => continue,
                Entry::Vacant(slot) => slot.insert(Vec::with_capacity(images.len() * room)),
            };
            apply_run(run, images);
            if run.is_empty() {
                self.runs.remove(&id);
            }
        }
        writes.clear();
    }
}

/// The fact key a write names: [`Store::apply`] takes every uid out of
/// a list before it groups the rest.
fn fact(key: &StoreKey) -> FactKey {
    match key {
        StoreKey::Fact(fact) => *fact,
        StoreKey::Uid(_) => unreachable!("a uid write is applied before the runs"),
    }
}

/// Applies one instance's images to its run, in list order. An
/// overwrite, or an insert past the run's end, is a point write, and so
/// is the first image that shifts the run (a deletion, an insert before
/// the end); from the second such image on, the rest go in one linear
/// pass ([`merge`]). So k images on an N-key run cost O(N + k log k),
/// never O(N·k): a start, a landing, a purge or a remap of a whole
/// instance included. The point writes pay for their branch: with
/// `merge` alone, over 10 alternating `--seconds 20` ledger pairs, seed 1,
/// `instances_per_cpu_s` fell 1.3–3.8 % and `recovery_cpu_s` rose
/// 1.6–6.5 % on all three workloads, even with `merge` starting at the
/// first key an image names.
fn apply_run<V: Into<Stored>>(run: &mut Run, images: &mut [(StoreKey, Option<V>)]) {
    let mut shifted = false;
    for at in 0..images.len() {
        let (key, image) = &mut images[at];
        let key = fact(key);
        let found = run.binary_search_by_key(&key, |(key, _)| *key);
        let shifts = match (found, &image) {
            (Ok(_), None) => true,
            (Err(slot), Some(_)) => slot < run.len(),
            _ => false,
        };
        if shifts && shifted {
            merge(run, &mut images[at..]);
            return;
        }
        shifted |= shifts;
        match (found, image.take()) {
            (Ok(slot), Some(bytes)) => run[slot].1 = bytes.into(),
            (Ok(slot), None) => {
                run.remove(slot);
            }
            (Err(slot), Some(bytes)) => run.insert(slot, (key, bytes.into())),
            (Err(_), None) => {}
        }
    }
}

/// Applies `images` to `run` in one pass over each: the images sorted
/// by key first unless they already are (a stable sort, so a key named
/// twice keeps its images in list order, and only its last one counts),
/// overwrites and deletions forward in place, then inserts backward
/// into the room they need.
fn merge<V: Into<Stored>>(run: &mut Run, images: &mut [(StoreKey, Option<V>)]) {
    if !images.is_sorted_by_key(|(key, _)| fact(key)) {
        images.sort_by_key(|(key, _)| fact(key));
    }
    for at in 1..images.len() {
        if fact(&images[at - 1].0) == fact(&images[at].0) {
            images[at - 1].1 = None;
        }
    }
    // Forward: the images of a key the run holds, in order, so the last
    // one decides; the run closes over what they delete.
    let (mut kept, mut next) = (0, 0);
    for at in 0..run.len() {
        let key = run[at].0;
        while images.get(next).is_some_and(|(image, _)| fact(image) < key) {
            next += 1;
        }
        let mut keep = true;
        while let Some((_, image)) = images.get_mut(next).filter(|(image, _)| fact(image) == key) {
            keep = match image.take() {
                Some(bytes) => {
                    run[at].1 = bytes.into();
                    true
                }
                None => false,
            };
            next += 1;
        }
        if keep {
            run.swap(kept, at);
            kept += 1;
        }
    }
    run.truncate(kept);
    // Backward: an image left writes a key the run lacks. The room goes
    // on the end, and the run's entries move up past each insert from
    // the greatest down; `run[at..room]` is the room still free.
    let inserts = images.iter().filter(|(_, image)| image.is_some()).count();
    if inserts == 0 {
        return;
    }
    let held = run.len();
    run.resize_with(held + inserts, || {
        (FactKey::control(0, 0), Stored::copy_of(&[]))
    });
    let (mut at, mut room) = (held, run.len());
    for (key, image) in images.iter_mut().rev() {
        let Some(bytes) = image.take() else {
            continue;
        };
        let key = fact(key);
        while at > 0 && run[at - 1].0 > key {
            at -= 1;
            room -= 1;
            run.swap(at, room);
        }
        room -= 1;
        run[room] = (key, bytes.into());
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::key::FactKind;

    /// Key `k` of a small key space: a uid from 96 on, else a fact key
    /// over 3 instances, 4 tasks, the 3 kinds and 3 sub-keys.
    fn key(k: u8) -> StoreKey {
        if k >= 96 {
            return StoreKey::Uid(ObjectUid::new(format!("u/{k}")));
        }
        let k = u32::from(k);
        let kind = [FactKind::Input, FactKind::Output, FactKind::Control][(k / 12 % 3) as usize];
        StoreKey::Fact(FactKey {
            instance: k % 3,
            task: k / 3 % 4,
            kind,
            item: 0,
            obj: k / 36,
        })
    }

    /// The store holds what `model` does, in its order, and each run
    /// is sorted, holds each key once and is not empty.
    fn check(store: &Store, model: &BTreeMap<StoreKey, Vec<u8>>) {
        let held: Vec<(StoreKey, &[u8])> = store
            .iter()
            .map(|(key, bytes)| (key, bytes.as_slice()))
            .collect();
        let modelled: Vec<(StoreKey, &[u8])> = model
            .iter()
            .map(|(key, bytes)| (key.clone(), bytes.as_slice()))
            .collect();
        assert_eq!(held, modelled);
        assert_eq!(store.len(), model.len());
        for run in store.runs.values() {
            assert!(!run.is_empty());
            assert!(run.windows(2).all(|pair| pair[0].0 < pair[1].0), "{run:?}");
        }
    }

    /// Applies `list` to both, the model one image at a time in order.
    fn apply(
        store: &mut Store,
        model: &mut BTreeMap<StoreKey, Vec<u8>>,
        list: &[(u8, Option<u8>)],
    ) {
        let mut writes: Vec<(StoreKey, Option<Vec<u8>>)> = list
            .iter()
            .map(|&(k, image)| (key(k), image.map(|byte| vec![byte; usize::from(byte % 30)])))
            .collect();
        for (key, image) in &writes {
            match image {
                Some(bytes) => model.insert(key.clone(), bytes.clone()),
                None => model.remove(key),
            };
        }
        store.apply(&mut writes);
        assert!(writes.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// However a list orders or repeats its keys, the store ends
        /// where applying it in order to an ordered map does: the point
        /// writes of a short list and the linear pass of a long one.
        #[test]
        fn lists_apply_as_an_ordered_map_in_list_order(
            lists in proptest::collection::vec(
                proptest::collection::vec((0u8..108, proptest::option::of(any::<u8>())), 0..48),
                1..10,
            ),
        ) {
            let (mut store, mut model) = (Store::default(), BTreeMap::new());
            for list in &lists {
                apply(&mut store, &mut model, list);
                check(&store, &model);
            }
        }
    }

    #[test]
    fn a_run_takes_inserts_in_any_order_and_deletions_between_them() {
        let (mut store, mut model) = (Store::default(), BTreeMap::new());
        let descending: Vec<(u8, Option<u8>)> = (0..96).rev().map(|k| (k, Some(k))).collect();
        apply(&mut store, &mut model, &descending);
        check(&store, &model);
        let every_other: Vec<(u8, Option<u8>)> = (0..96).step_by(2).map(|k| (k, None)).collect();
        apply(&mut store, &mut model, &every_other);
        check(&store, &model);
        let mixed = [
            (5, Some(1)),
            (4, Some(2)),
            (7, None),
            (3, None),
            (2, Some(3)),
            (4, None),
        ];
        apply(&mut store, &mut model, &mixed);
        check(&store, &model);
        let all: Vec<(u8, Option<u8>)> = (0..108).map(|k| (k, None)).collect();
        apply(&mut store, &mut model, &all);
        check(&store, &model);
        assert!(store.runs.is_empty(), "an emptied instance leaves no run");
    }

    #[test]
    fn a_range_is_a_slice_of_a_run_or_a_walk_in_id_order() {
        let (mut store, mut model) = (Store::default(), BTreeMap::new());
        let every: Vec<(u8, Option<u8>)> = (0..96).map(|k| (k, Some(k))).collect();
        apply(&mut store, &mut model, &every);
        let facts = |lo: FactKey, hi: FactKey| -> Vec<FactKey> {
            store.facts(lo, hi).map(|(key, _)| *key).collect()
        };
        let modelled = |lo: FactKey, hi: FactKey| -> Vec<FactKey> {
            model
                .range(StoreKey::Fact(lo)..=StoreKey::Fact(hi))
                .filter_map(|(key, _)| key.as_fact())
                .collect()
        };
        let ranges = [
            (FactKey::task_first(1, 1), FactKey::task_last(1, 2)),
            (FactKey::instance_first(0), FactKey::instance_last(2)),
            (FactKey::task_first(0, 3), FactKey::task_first(2, 1)),
            (FactKey::instance_first(0), FactKey::instance_last(u32::MAX)),
            (FactKey::instance_first(5), FactKey::instance_last(9)),
        ];
        for (lo, hi) in ranges {
            assert_eq!(facts(lo, hi), modelled(lo, hi), "{lo}..={hi}");
        }
        assert!(facts(FactKey::task_last(1, 2), FactKey::task_first(1, 1)).is_empty());
        assert_eq!(
            store.last_fact(),
            modelled(FactKey::instance_first(0), FactKey::instance_last(2)).pop()
        );
    }
}
