//! Fact storage layout: per-object sub-keys over the transactional
//! store.
//!
//! A dependency fact (a bound input set or a published output) is a
//! small map of named objects. Storing it as one encoded record makes
//! every readiness probe — the engine's innermost loop — decode the
//! *whole* map to extract a single object. This module stores facts
//! **per object** instead:
//!
//! - sub-key `obj = 0` (the *presence record*) exists iff the fact
//!   fired; its payload holds only objects with no declared ordinal
//!   (normally none, so it encodes as an empty map),
//! - sub-key `obj = i + 1` holds the value of the declaration's `i`-th
//!   object alone.
//!
//! A probe through [`StoreFacts`] is then a single `BTreeMap` point
//! read of exactly the bytes it needs — zero record decode, zero
//! string allocation — while whole-fact consumers (recovery
//! re-dispatch, monitoring, reconfiguration remapping) reconstruct the
//! map with one contiguous range scan. Subtree cancel/reset ranges
//! widen transparently: object sub-keys sort inside their fact.
//!
//! A task's control block shares the facts' dense key space (one key,
//! after the task's facts), so the instance-wide walks here — the
//! reconfiguration remap — carry it along.

use std::cell::RefCell;
use std::collections::BTreeMap;

use flowscript_codec::Decode;
use flowscript_plan::{eval as plan_eval, Plan, Probe, Range32, StrId, TaskId};
use flowscript_tx::{
    AtomicAction, FactKey, FactKind, SharedStorage, Storage, StoreKey, TxError, TxManager,
};

use crate::keys::{InstanceKeys, ProbeKeys};
use crate::value::ObjectVal;

/// The fact view the plan evaluator runs over: every probe resolves
/// through the instance's interned key table to dense point reads — of
/// committed state, or, for the step staging a cascade, of what its
/// action has staged over it ([`TxManager::read_through`]).
///
/// Storage or decode faults do **not** read as "fact absent" (a corrupt
/// record must not silently mis-evaluate readiness): the first fault is
/// latched and surfaced to the caller via [`StoreFacts::take_fault`] —
/// the coordinator's drain checks it after every evaluation and fails
/// the instance diagnosably.
pub struct StoreFacts<'a, S: Storage = SharedStorage> {
    mgr: &'a TxManager<S>,
    action: Option<&'a AtomicAction>,
    keys: &'a InstanceKeys,
    fault: RefCell<Option<String>>,
}

impl<'a, S: Storage> StoreFacts<'a, S> {
    /// A view of `mgr`'s facts — as committed, or as `action` would
    /// read them — resolving probes through `keys`.
    pub fn new(
        mgr: &'a TxManager<S>,
        action: Option<&'a AtomicAction>,
        keys: &'a InstanceKeys,
    ) -> Self {
        Self {
            mgr,
            action,
            keys,
            fault: RefCell::new(None),
        }
    }

    /// The first storage/decode fault any probe hit, if one did
    /// (clears the latch).
    pub fn take_fault(&self) -> Option<String> {
        self.fault.borrow_mut().take()
    }

    /// Reads and decodes one sub-key, latching the first fault.
    fn read<T: Decode>(&self, key: FactKey) -> Option<T> {
        match decoded(self.mgr.read_through(self.action, &StoreKey::Fact(key))) {
            Ok(value) => value,
            Err(err) => {
                let mut fault = self.fault.borrow_mut();
                if fault.is_none() {
                    *fault = Some(err.to_string());
                }
                None
            }
        }
    }
}

impl<S: Storage> plan_eval::PlanFacts for StoreFacts<'_, S> {
    type Value = ObjectVal;

    fn fact_object(&self, probe: Probe<'_>, object: &str) -> Option<ObjectVal> {
        let keys = self.keys.probe_keys(&probe)?;
        // The probed object's bytes, nothing else.
        if let Some(value) = keys.data.and_then(|data| self.read::<ObjectVal>(data)) {
            return Some(value);
        }
        // The declared sub-key missed: the fact never fired, fired
        // without this object, or the object has no declared ordinal.
        // The presence record settles all three (its extras map is
        // normally empty — a two-byte decode, never a whole record).
        let mut extras: BTreeMap<String, ObjectVal> = self.read(keys.presence)?;
        extras.remove(object)
    }

    fn fact_fired(&self, probe: Probe<'_>) -> bool {
        let presence = |keys: ProbeKeys| StoreKey::Fact(keys.presence);
        let keys = self.keys.probe_keys(&probe).map(presence);
        keys.is_some_and(|key| self.mgr.read_through(self.action, &key).is_some())
    }
}

/// Decodes what a [`TxManager::read_through`] found.
pub(crate) fn decoded<T: Decode>(bytes: Option<&[u8]>) -> Result<Option<T>, TxError> {
    Ok(bytes.map(flowscript_codec::from_bytes).transpose()?)
}

/// Interns a plan-eval binding list into an owned, name-keyed map (the
/// executor wire format).
pub fn bound_map(plan: &Plan, bound: &[(StrId, ObjectVal)]) -> BTreeMap<String, ObjectVal> {
    bound
        .iter()
        .map(|(name, value)| (plan.str(*name).to_string(), value.clone()))
        .collect()
}

/// Writes one fact from a name-keyed object map (outputs and marks
/// arriving from the wire, reconstructed records during remapping).
///
/// Each declared object goes under its dense sub-key (stale declared
/// sub-keys from a previous publication are cleared so rewrites never
/// resurrect old objects), undeclared names land in the presence
/// record's extras map.
///
/// # Errors
///
/// Lock conflicts or storage failures.
pub fn write_fact_map<S: Storage>(
    mgr: &mut TxManager<S>,
    action: &AtomicAction,
    plan: &Plan,
    base: FactKey,
    objects: &BTreeMap<String, ObjectVal>,
) -> Result<(), TxError> {
    debug_assert_eq!(base.obj, 0, "facts are addressed by their presence key");
    let decl = plan
        .fact_decl_objects(base.task, base.kind == FactKind::Input, base.item)
        .unwrap_or(Range32::EMPTY);
    let decl_sigs = &plan.class_objects[decl.as_range()];
    for (ordinal, sig) in decl_sigs.iter().enumerate() {
        let sub = StoreKey::Fact(base.object(ordinal as u32));
        match objects.get(plan.str(sig.name)) {
            Some(value) => mgr.write_key(action, &sub, value)?,
            None => {
                if mgr.read_through(Some(action), &sub).is_some() {
                    mgr.delete_key(action, &sub)?;
                }
            }
        }
    }
    let extras: BTreeMap<&String, &ObjectVal> = objects
        .iter()
        .filter(|(name, _)| {
            decl_sigs
                .iter()
                .all(|sig| plan.str(sig.name) != name.as_str())
        })
        .collect();
    mgr.write_key(action, &StoreKey::Fact(base), &extras)
}

/// Writes one fact straight from the evaluator's slot-aligned binding
/// list — the commit hot path. Each bound object's sub-key ordinal was
/// interned at plan lowering ([`PlanSlot::obj_ordinal`]), so the write
/// touches no strings at all; only names with no declared ordinal
/// (rare) are materialized into the presence extras.
///
/// `slots` is the bound input set's (or output mapping's) slot range:
/// the evaluator produces exactly one bound value per slot, in slot
/// order.
///
/// # Errors
///
/// Lock conflicts or storage failures.
///
/// [`PlanSlot::obj_ordinal`]: flowscript_plan::PlanSlot::obj_ordinal
pub fn write_fact_bound<S: Storage>(
    mgr: &mut TxManager<S>,
    action: &AtomicAction,
    plan: &Plan,
    base: FactKey,
    slots: Range32,
    bound: &[(StrId, ObjectVal)],
) -> Result<(), TxError> {
    debug_assert_eq!(base.obj, 0, "facts are addressed by their presence key");
    debug_assert_eq!(
        bound.len(),
        slots.len(),
        "the evaluator binds one value per slot"
    );
    let decl = plan
        .fact_decl_objects(base.task, base.kind == FactKind::Input, base.item)
        .unwrap_or(Range32::EMPTY);
    let mut covered = vec![false; decl.len()];
    let mut extras: BTreeMap<String, ObjectVal> = BTreeMap::new();
    for (i, (name, value)) in bound.iter().enumerate() {
        let ordinal = plan
            .slots
            .get(slots.start as usize + i)
            .and_then(|slot| slot.obj_ordinal);
        match ordinal {
            Some(ordinal) => {
                if let Some(flag) = covered.get_mut(ordinal as usize) {
                    *flag = true;
                }
                mgr.write_key(action, &StoreKey::Fact(base.object(ordinal)), value)?;
            }
            None => {
                extras.insert(plan.str(*name).to_string(), value.clone());
            }
        }
    }
    // Clear declared sub-keys this binding did not (re)produce, so a
    // rebinding never resurrects a stale object.
    for (ordinal, _) in covered.iter().enumerate().filter(|(_, covered)| !**covered) {
        let sub = StoreKey::Fact(base.object(ordinal as u32));
        if mgr.read_through(Some(action), &sub).is_some() {
            mgr.delete_key(action, &sub)?;
        }
    }
    mgr.write_key(action, &StoreKey::Fact(base), &extras)
}

/// Deletes every fact of `tasks` that `action` can see — committed, or
/// staged by it earlier in its step, which no store scan would find —
/// and leaves their control blocks: one probe per declared fact's
/// presence key (object sub-keys exist only under one), in key order.
/// `inputs_only` spares the published outputs.
///
/// # Errors
///
/// Lock conflicts or storage failures.
pub fn delete_facts<S: Storage>(
    mgr: &mut TxManager<S>,
    action: &AtomicAction,
    plan: &Plan,
    instance_id: u32,
    tasks: impl Iterator<Item = TaskId>,
    inputs_only: bool,
) -> Result<(), TxError> {
    for task in tasks {
        let class = plan.class_of(plan.task(task));
        let sets = plan.class_sets[class.sets.as_range()].iter().zip(0..);
        let sets = sets.map(|(set, item)| (FactKey::input(instance_id, task, item), set.objects));
        let outs = plan.class_outputs[class.outputs.as_range()].iter().zip(0..);
        let outs = outs.map(|(out, item)| (FactKey::output(instance_id, task, item), out.objects));
        for (base, objects) in sets.chain(outs.filter(|_| !inputs_only)) {
            for obj in 0..=objects.len() as u32 {
                let key = StoreKey::Fact(base.with_obj(obj));
                if mgr.read_through(Some(action), &key).is_some() {
                    mgr.delete_key(action, &key)?;
                } else if obj == 0 {
                    break; // the fact never fired
                }
            }
        }
    }
    Ok(())
}

/// Reads one fact back as a name-keyed map (whole-fact consumers:
/// recovery re-dispatch, monitoring, remapping): one contiguous range
/// scan over the fact's sub-keys, naming each by its declared ordinal;
/// the presence record contributes the extras.
///
/// # Errors
///
/// Decode failures (corrupt storage).
pub fn read_fact_map<S: Storage>(
    mgr: &TxManager<S>,
    plan: &Plan,
    base: FactKey,
) -> Result<Option<BTreeMap<String, ObjectVal>>, TxError> {
    debug_assert_eq!(base.obj, 0, "facts are addressed by their presence key");
    let Some(mut map) =
        mgr.read_committed_key::<BTreeMap<String, ObjectVal>>(&StoreKey::Fact(base))?
    else {
        return Ok(None);
    };
    let decl = plan
        .fact_decl_objects(base.task, base.kind == FactKind::Input, base.item)
        .unwrap_or(Range32::EMPTY);
    for (key, bytes) in mgr.facts_in_range(base.object(0), base.fact_last()) {
        let ordinal = (key.obj - 1) as usize;
        let Some(sig) = plan.class_objects[decl.as_range()].get(ordinal) else {
            continue; // stale sub-key past the declaration: unreachable by probes
        };
        map.insert(
            plan.str(sig.name).to_string(),
            flowscript_codec::from_bytes(&bytes)?,
        );
    }
    Ok(Some(map))
}

/// Resolves one fact's identity (producer path, fact kind, set/output
/// name) — or one control block's (its task's path) — under a
/// replacement plan and re-keys its presence key. `None` when the task
/// or its declaration no longer exists.
fn remap_fact_base(
    old_plan: &Plan,
    new_plan: &Plan,
    base: FactKey,
    instance_id: u32,
) -> Option<FactKey> {
    let old_task = old_plan.tasks.get(base.task as usize)?;
    let path = old_plan.str(old_task.path);
    let old_class = old_plan.class_of(old_task);
    let new_task = new_plan.task_by_path(path)?;
    let new_class = new_plan.class_of(new_plan.task(new_task));
    match base.kind {
        FactKind::Input => {
            let sets = &old_plan.class_sets[old_class.sets.as_range()];
            let name = old_plan.str(sets.get(base.item as usize)?.name);
            let item = new_plan.class_set_ordinal(new_class, name)?;
            Some(FactKey::input(instance_id, new_task, item))
        }
        FactKind::Output => {
            let outputs = &old_plan.class_outputs[old_class.outputs.as_range()];
            let name = old_plan.str(outputs.get(base.item as usize)?.name);
            let item = new_plan.class_output_ordinal(new_class, name)?;
            Some(FactKey::output(instance_id, new_task, item))
        }
        FactKind::Control => Some(FactKey::control(instance_id, new_task)),
    }
}

/// Whether a fact's declared object names (and order) are identical
/// under both plans — when they are *and* the base key is unchanged,
/// every sub-key already has the right address.
fn decl_names_match(old_plan: &Plan, new_plan: &Plan, base: FactKey) -> bool {
    let is_input = base.kind == FactKind::Input;
    let old = old_plan.fact_decl_objects(base.task, is_input, base.item);
    let new = new_plan.fact_decl_objects(base.task, is_input, base.item);
    let (Some(old), Some(new)) = (old, new) else {
        return false;
    };
    old.len() == new.len()
        && old_plan.class_objects[old.as_range()]
            .iter()
            .zip(&new_plan.class_objects[new.as_range()])
            .all(|(a, b)| old_plan.str(a.name) == new_plan.str(b.name))
}

/// What a staged move carries to its new key: a fact's reconstructed
/// record, or a control block's bytes verbatim.
enum Moved {
    Fact(BTreeMap<String, ObjectVal>),
    Block(Vec<u8>),
}

/// One staged move: the keys to vacate, and (unless the object dies with
/// its task or declaration) the new base key with what to write there.
type KeyMove = (Vec<FactKey>, Option<(FactKey, Moved)>);

/// Moves every persisted fact and control block of an instance from the
/// old plan's dense id space onto the new plan's (reconfiguration shifts
/// task ids, set/output ordinals *and* object ordinals; a block follows
/// its task, by path; facts whose task or declaration vanished and
/// blocks whose task did are deleted; objects whose declared slot
/// vanished demote to the presence extras). Deletes are staged before
/// writes so a key vacated by one move can be reoccupied by another
/// within the same action.
///
/// # Errors
///
/// Lock conflicts, storage failures, or corrupt records.
pub fn remap_instance_facts<S: Storage>(
    mgr: &mut TxManager<S>,
    action: &AtomicAction,
    old_plan: &Plan,
    old_keys: &InstanceKeys,
    new_plan: &Plan,
    instance_id: u32,
) -> Result<(), TxError> {
    let (lo, hi) = old_keys.instance_fact_range();
    // Group sub-keys per fact; key order keeps a fact's range adjacent
    // (a control block is a group of one).
    let mut groups: Vec<(FactKey, Vec<FactKey>)> = Vec::new();
    for key in mgr.fact_keys_in_range(lo, hi) {
        let base = key.with_obj(0);
        match groups.last_mut() {
            Some((current, members)) if *current == base => members.push(key),
            _ => groups.push((base, vec![key])),
        }
    }
    let mut moves: Vec<KeyMove> = Vec::new();
    for (base, members) in groups {
        let target = remap_fact_base(old_plan, new_plan, base, instance_id);
        // A block has no sub-keys to misplace.
        let is_block = base.kind == FactKind::Control;
        if target == Some(base) && (is_block || decl_names_match(old_plan, new_plan, base)) {
            continue; // identity: every sub-key already lives at its address
        }
        let moved = if is_block {
            let bytes = mgr.read_committed_bytes(&StoreKey::Fact(base));
            bytes.map(|bytes| Moved::Block(bytes.to_vec()))
        } else {
            read_fact_map(mgr, old_plan, base)?.map(Moved::Fact)
        };
        moves.push((members, target.zip(moved)));
    }
    for (members, _) in &moves {
        for key in members {
            mgr.delete_key(action, &StoreKey::Fact(*key))?;
        }
    }
    for (_, target) in moves {
        match target {
            Some((base, Moved::Fact(record))) => {
                write_fact_map(mgr, action, new_plan, base, &record)?;
            }
            Some((base, Moved::Block(bytes))) => {
                mgr.write_key_raw(action, &StoreKey::Fact(base), bytes)?;
            }
            None => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowscript_core::schema;
    use flowscript_plan::eval::PlanFacts;

    fn order_plan() -> Plan {
        let schema = schema::compile_source(
            flowscript_core::samples::ORDER_PROCESSING,
            "processOrderApplication",
        )
        .unwrap();
        Plan::lower(&schema)
    }

    fn obj(value: &str) -> ObjectVal {
        ObjectVal::text("StockInfo", value)
    }

    fn write_output(
        mgr: &mut TxManager<SharedStorage>,
        plan: &Plan,
        base: FactKey,
        objects: &BTreeMap<String, ObjectVal>,
    ) {
        let action = mgr.begin();
        write_fact_map(mgr, &action, plan, base, objects).unwrap();
        mgr.commit(action).unwrap();
    }

    #[test]
    fn records_roundtrip_with_undeclared_extras() {
        let plan = order_plan();
        let keys = InstanceKeys::build(&plan, "i", 0);
        let check = plan
            .task_by_path("processOrderApplication/checkStock")
            .unwrap();
        let base = keys.out_key(&plan, check, "stockAvailable").unwrap();
        let mut objects = BTreeMap::new();
        objects.insert("stockInfo".to_string(), obj("s"));
        objects.insert("extraneous".to_string(), obj("x")); // undeclared
        let mut mgr = TxManager::in_memory();
        write_output(&mut mgr, &plan, base, &objects);
        let read = read_fact_map(&mgr, &plan, base).unwrap().unwrap();
        assert_eq!(read, objects);
    }

    #[test]
    fn per_object_layout_splits_and_clears_stale_sub_keys() {
        let plan = order_plan();
        let keys = InstanceKeys::build(&plan, "i", 0);
        let check = plan
            .task_by_path("processOrderApplication/checkStock")
            .unwrap();
        let base = keys.out_key(&plan, check, "stockAvailable").unwrap();
        let mut mgr = TxManager::in_memory();
        let mut objects = BTreeMap::new();
        objects.insert("stockInfo".to_string(), obj("v1"));
        write_output(&mut mgr, &plan, base, &objects);
        // The declared object lives under its own sub-key…
        assert!(mgr.exists_key(&StoreKey::Fact(base.object(0))));
        // …and a rewrite without it clears the stale sub-key.
        write_output(&mut mgr, &plan, base, &BTreeMap::new());
        assert!(!mgr.exists_key(&StoreKey::Fact(base.object(0))));
        assert!(mgr.exists_key(&StoreKey::Fact(base)), "fact still fired");
        assert_eq!(
            read_fact_map(&mgr, &plan, base).unwrap().unwrap(),
            BTreeMap::new()
        );
    }

    #[test]
    fn store_facts_probe_reads_one_object_without_scanning() {
        let plan = order_plan();
        let keys = InstanceKeys::build(&plan, "i", 0);
        let check = plan
            .task_by_path("processOrderApplication/checkStock")
            .unwrap();
        let base = keys.out_key(&plan, check, "stockAvailable").unwrap();
        let mut mgr = TxManager::in_memory();
        let mut objects = BTreeMap::new();
        objects.insert("stockInfo".to_string(), obj("s"));
        write_output(&mut mgr, &plan, base, &objects);
        // Probe through the evaluator's view.
        let facts = StoreFacts::new(&mgr, None, &keys);
        let probe = plan
            .sources
            .iter()
            .enumerate()
            .find(|(_, s)| {
                s.producer == Some(check) && s.object.map(|o| plan.str(o)) == Some("stockInfo")
            })
            .map(|(idx, s)| Probe {
                source: idx as u32,
                candidate: None,
                producer: plan.str(s.producer_path),
                name: "stockAvailable",
                is_input: false,
            })
            .expect("stockInfo is probed");
        let scans = mgr.fact_range_scan_count();
        assert!(facts.fact_fired(probe));
        assert_eq!(facts.fact_object(probe, "stockInfo"), Some(obj("s")));
        assert_eq!(
            mgr.fact_range_scan_count(),
            scans,
            "probes must be point reads"
        );
        assert!(facts.take_fault().is_none());
    }

    #[test]
    fn corrupt_fact_surfaces_a_fault_instead_of_absence() {
        let plan = order_plan();
        let keys = InstanceKeys::build(&plan, "i", 0);
        let check = plan
            .task_by_path("processOrderApplication/checkStock")
            .unwrap();
        let base = keys.out_key(&plan, check, "stockAvailable").unwrap();
        let mut mgr = TxManager::in_memory();
        let action = mgr.begin();
        // Garbage bytes at both the presence and data sub-keys.
        mgr.write_key_raw(&action, &StoreKey::Fact(base), vec![0xFF, 0xFF, 0xFF])
            .unwrap();
        mgr.write_key_raw(
            &action,
            &StoreKey::Fact(base.object(0)),
            vec![0xFF, 0xFF, 0xFF],
        )
        .unwrap();
        mgr.commit(action).unwrap();
        let facts = StoreFacts::new(&mgr, None, &keys);
        let probe = plan
            .sources
            .iter()
            .enumerate()
            .find(|(_, s)| {
                s.producer == Some(check) && s.object.map(|o| plan.str(o)) == Some("stockInfo")
            })
            .map(|(idx, s)| Probe {
                source: idx as u32,
                candidate: None,
                producer: plan.str(s.producer_path),
                name: "stockAvailable",
                is_input: false,
            })
            .unwrap();
        assert_eq!(facts.fact_object(probe, "stockInfo"), None);
        let fault = facts.take_fault();
        assert!(fault.is_some(), "fault must surface");
        assert!(facts.take_fault().is_none(), "fault latch clears");
    }

    #[test]
    fn remap_is_identity_for_an_unchanged_plan() {
        let plan_a = order_plan();
        let plan_b = order_plan();
        let keys = InstanceKeys::build(&plan_a, "i", 5);
        let check = plan_a
            .task_by_path("processOrderApplication/checkStock")
            .unwrap();
        let base = keys.out_key(&plan_a, check, "stockAvailable").unwrap();
        let mut mgr = TxManager::in_memory();
        let mut objects = BTreeMap::new();
        objects.insert("stockInfo".to_string(), obj("s"));
        write_output(&mut mgr, &plan_a, base, &objects);
        let count = mgr.object_count();
        let action = mgr.begin();
        remap_instance_facts(&mut mgr, &action, &plan_a, &keys, &plan_b, 5).unwrap();
        mgr.commit(action).unwrap();
        assert_eq!(mgr.object_count(), count, "identity remap moves nothing");
        assert_eq!(
            read_fact_map(&mgr, &plan_b, base).unwrap().unwrap(),
            objects
        );
    }
}
