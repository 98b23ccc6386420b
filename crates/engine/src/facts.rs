//! Fact storage layout: per-object sub-keys over the transactional
//! store, each object stored relative to the instance's plan.
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
//! read of exactly the bytes it needs, decoded into one object, while
//! whole-fact consumers (recovery re-dispatch, monitoring,
//! reconfiguration remapping) reconstruct the map with one contiguous
//! range scan. Subtree cancel/reset ranges widen transparently: object
//! sub-keys sort inside their fact.
//!
//! **A declared object is stored relative to the plan** the instance
//! runs off, which already names its class and every task's path (paper
//! §4.1: the script declares each object's class and its producer). One
//! tag byte says what the value spells out, then three fields:
//!
//! | field | bytes |
//! |---|---|
//! | class | none when it is the declaration's; else the name |
//! | producer | none for no producer or the fact's own task; a `TaskId` varint for another task of the plan; else the path verbatim |
//! | payload | length-prefixed |
//!
//! This module is the only writer and reader of those sub-keys: an
//! unknown tag or a truncated value is a [`CodecError`], a fault that
//! never reads as "absent". What is read before a plan is at hand keeps
//! the wire codec of [`ObjectVal`]: the presence record's extras, the
//! header's inputs, the status record's outcome and every message.
//! Facts move between shards verbatim under one plan fingerprint; only
//! a reconfiguration, which changes the plan, re-encodes them.
//!
//! A task's control block shares the facts' dense key space (one key,
//! after the task's facts), so the instance-wide walks here — the
//! reconfiguration remap — carry it along.

use std::cell::RefCell;
use std::collections::BTreeMap;

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode};
use flowscript_plan::{eval as plan_eval, Plan, PlanObjectSig, Probe, Range32, StrId, TaskId};
use flowscript_tx::{
    AtomicAction, FactKey, FactKind, SharedStorage, Storage, StoreKey, TxError, TxManager,
};

use crate::keys::{InstanceKeys, ProbeKeys};
use crate::value::ObjectVal;

/// Tag bit: the value spells its class out.
const CLASS_SPELLED: u8 = 0b001;
/// The tag's producer form (bits 1–2): no producer at all…
const PRODUCER_NONE: u8 = 0;
/// …the task whose fact this is…
const PRODUCER_OWN: u8 = 1;
/// …another task of the plan, by id…
const PRODUCER_TASK: u8 = 2;
/// …or any other path, verbatim.
const PRODUCER_SPELLED: u8 = 3;
/// The largest tag a stored object can carry.
const TAG_MAX: u8 = CLASS_SPELLED | PRODUCER_SPELLED << 1;

/// The declaration of the object a declared sub-key (`obj ≥ 1`) holds.
fn declared(plan: &Plan, key: FactKey) -> Option<&PlanObjectSig> {
    let decl = plan.fact_decl_objects(key.task, key.kind == FactKind::Input, key.item)?;
    let ordinal = key.obj.checked_sub(1)?;
    plan.class_objects
        .get(decl.as_range())?
        .get(ordinal as usize)
}

/// The path of task `id`; an id the plan lacks is corrupt storage.
fn task_path(plan: &Plan, id: u64) -> Result<&str, CodecError> {
    let task = usize::try_from(id).ok().and_then(|id| plan.tasks.get(id));
    let path = task.map(|task| plan.str(task.path));
    path.ok_or(CodecError::InvalidDiscriminant {
        ty: "fact object producer",
        value: id,
    })
}

/// Encodes `value` for the declared sub-key `key`, relative to `plan`.
fn encode_object(plan: &Plan, key: FactKey, value: &ObjectVal) -> Vec<u8> {
    let declared_class = declared(plan, key).map(|sig| plan.str(sig.class));
    let spell_class = declared_class != Some(value.class.as_str());
    let own = plan
        .tasks
        .get(key.task as usize)
        .map(|task| plan.str(task.path));
    let (form, task) = match value.produced_by.as_str() {
        "" => (PRODUCER_NONE, None),
        path if own == Some(path) => (PRODUCER_OWN, None),
        path => match plan.task_by_path(path) {
            Some(task) => (PRODUCER_TASK, Some(task)),
            None => (PRODUCER_SPELLED, None),
        },
    };
    let mut w = ByteWriter::with_capacity(value.data.len() + 4);
    w.put_u8(u8::from(spell_class) | form << 1);
    if spell_class {
        w.put_str(&value.class);
    }
    if let Some(task) = task {
        w.put_var_u64(u64::from(task));
    } else if form == PRODUCER_SPELLED {
        w.put_str(&value.produced_by);
    }
    w.put_len_prefixed(&value.data);
    w.into_vec()
}

/// Decodes what [`encode_object`] stored under `key`, relative to `plan`.
fn decode_object(plan: &Plan, key: FactKey, bytes: &[u8]) -> Result<ObjectVal, CodecError> {
    let mut r = ByteReader::new(bytes);
    let tag = r.get_u8()?;
    if tag > TAG_MAX {
        return Err(CodecError::InvalidDiscriminant {
            ty: "fact object tag",
            value: tag.into(),
        });
    }
    let class = if tag & CLASS_SPELLED != 0 {
        r.get_str()?
    } else {
        let undeclared = CodecError::InvalidDiscriminant {
            ty: "fact object ordinal",
            value: key.obj.into(),
        };
        plan.str(declared(plan, key).ok_or(undeclared)?.class)
    };
    let produced_by = match tag >> 1 {
        PRODUCER_NONE => "",
        PRODUCER_OWN => task_path(plan, key.task.into())?,
        PRODUCER_TASK => task_path(plan, r.get_var_u64()?)?,
        _ => r.get_str()?,
    };
    let data = r.get_len_prefixed()?.to_vec();
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(ObjectVal {
        class: class.to_owned(),
        data,
        produced_by: produced_by.to_owned(),
    })
}

/// Stages `value` under the declared sub-key `key`.
fn write_object<S: Storage>(
    mgr: &mut TxManager<S>,
    action: &AtomicAction,
    plan: &Plan,
    key: FactKey,
    value: &ObjectVal,
) -> Result<(), TxError> {
    let bytes = encode_object(plan, key, value);
    mgr.write_key_raw(action, &StoreKey::Fact(key), bytes)
}

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
    plan: &'a Plan,
    keys: &'a InstanceKeys,
    fault: RefCell<Option<String>>,
}

impl<'a, S: Storage> StoreFacts<'a, S> {
    /// A view of `mgr`'s facts — as committed, or as `action` would
    /// read them — resolving probes through `keys` and decoding objects
    /// relative to `plan`, the plan `keys` was built for.
    pub fn new(
        mgr: &'a TxManager<S>,
        action: Option<&'a AtomicAction>,
        plan: &'a Plan,
        keys: &'a InstanceKeys,
    ) -> Self {
        Self {
            mgr,
            action,
            plan,
            keys,
            fault: RefCell::new(None),
        }
    }

    /// The first storage/decode fault any probe hit, if one did
    /// (clears the latch).
    pub fn take_fault(&self) -> Option<String> {
        self.fault.borrow_mut().take()
    }

    /// What a read found, latching the first fault.
    fn latch<T>(&self, read: Result<Option<T>, TxError>) -> Option<T> {
        read.unwrap_or_else(|err| {
            let mut fault = self.fault.borrow_mut();
            if fault.is_none() {
                *fault = Some(err.to_string());
            }
            None
        })
    }

    /// The object stored under the declared sub-key `key`.
    fn object(&self, key: FactKey) -> Option<ObjectVal> {
        let bytes = self.mgr.read_through(self.action, &StoreKey::Fact(key));
        let object = bytes.map(|bytes| decode_object(self.plan, key, bytes));
        self.latch(object.transpose().map_err(TxError::from))
    }
}

impl<S: Storage> plan_eval::PlanFacts for StoreFacts<'_, S> {
    type Value = ObjectVal;

    fn fact_object(&self, probe: Probe<'_>, object: &str) -> Option<ObjectVal> {
        let keys = self.keys.probe_keys(&probe)?;
        // The probed object's bytes, nothing else.
        if let Some(value) = keys.data.and_then(|data| self.object(data)) {
            return Some(value);
        }
        // The declared sub-key missed: the fact never fired, fired
        // without this object, or the object has no declared ordinal.
        // The presence record settles all three (its extras map is
        // normally empty — a two-byte decode, never a whole record).
        let presence = self
            .mgr
            .read_through(self.action, &StoreKey::Fact(keys.presence));
        let mut extras: BTreeMap<String, ObjectVal> = self.latch(decoded(presence))?;
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
        let sub = base.object(ordinal as u32);
        match objects.get(plan.str(sig.name)) {
            Some(value) => write_object(mgr, action, plan, sub, value)?,
            None => {
                let sub = StoreKey::Fact(sub);
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
/// looks up no object name (each value is still encoded against its
/// declaration); only names with no declared ordinal (rare) are
/// materialized into the presence extras.
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
                write_object(mgr, action, plan, base.object(ordinal), value)?;
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
/// scan over the fact's sub-keys, naming and decoding each by its
/// declaration in `plan`; the presence record contributes the extras.
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
    for (key, bytes) in mgr.facts_in_range(base.object(0), base.fact_last()) {
        let Some(sig) = declared(plan, key) else {
            continue; // stale sub-key past the declaration: unreachable by probes
        };
        let object = decode_object(plan, key, &bytes)?;
        map.insert(plan.str(sig.name).to_string(), object);
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

/// Whether a fact's declared objects — names, order *and* classes — are
/// identical under both plans: when they are, the base key is unchanged
/// and every task id keeps its path, each stored object already has its
/// address and decodes to the same value.
fn decls_match(old_plan: &Plan, new_plan: &Plan, base: FactKey) -> bool {
    let is_input = base.kind == FactKind::Input;
    let old = old_plan.fact_decl_objects(base.task, is_input, base.item);
    let new = new_plan.fact_decl_objects(base.task, is_input, base.item);
    let (Some(old), Some(new)) = (old, new) else {
        return false;
    };
    let same = |(a, b): (&PlanObjectSig, &PlanObjectSig)| {
        old_plan.str(a.name) == new_plan.str(b.name)
            && old_plan.str(a.class) == new_plan.str(b.class)
    };
    old.len() == new.len()
        && old_plan.class_objects[old.as_range()]
            .iter()
            .zip(&new_plan.class_objects[new.as_range()])
            .all(same)
}

/// Whether every task id of `old_plan` names the same path in
/// `new_plan` — the producer ids stored inside objects stay valid.
fn ids_keep_paths(old_plan: &Plan, new_plan: &Plan) -> bool {
    old_plan.tasks.iter().enumerate().all(|(id, old)| {
        let new = new_plan.tasks.get(id);
        new.is_some_and(|new| old_plan.str(old.path) == new_plan.str(new.path))
    })
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
/// vanished demote to the presence extras). A fact that moves, or whose
/// objects the old plan encodes differently from the new, is re-encoded
/// — read through the old plan, written through the new. Deletes are
/// staged before writes so a key vacated by one move can be reoccupied
/// by another within the same action.
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
    let ids_kept = ids_keep_paths(old_plan, new_plan);
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
        // A block has no sub-keys to misplace and names no task.
        let is_block = base.kind == FactKind::Control;
        let kept = is_block || (ids_kept && decls_match(old_plan, new_plan, base));
        if target == Some(base) && kept {
            continue; // identity: every sub-key already holds what it should
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

    /// The order plan's `checkStock` and the key of its `stockAvailable`
    /// output, whose one declared object is `stockInfo` of class
    /// `StockInfo`.
    fn stock_fact(plan: &Plan, keys: &InstanceKeys) -> (TaskId, FactKey) {
        let check = plan
            .task_by_path("processOrderApplication/checkStock")
            .unwrap();
        (check, keys.out_key(plan, check, "stockAvailable").unwrap())
    }

    /// The evaluator's probe of `stockInfo` from `check`'s output.
    fn stock_probe(plan: &Plan, check: TaskId) -> Probe<'_> {
        plan.sources
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
            .expect("stockInfo is probed")
    }

    #[test]
    fn store_facts_probe_reads_one_object_without_scanning() {
        let plan = order_plan();
        let keys = InstanceKeys::build(&plan, "i", 0);
        let (check, base) = stock_fact(&plan, &keys);
        let mut mgr = TxManager::in_memory();
        let mut objects = BTreeMap::new();
        objects.insert("stockInfo".to_string(), obj("s"));
        write_output(&mut mgr, &plan, base, &objects);
        // Probe through the evaluator's view.
        let facts = StoreFacts::new(&mgr, None, &plan, &keys);
        let probe = stock_probe(&plan, check);
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
        let (check, base) = stock_fact(&plan, &keys);
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
        let facts = StoreFacts::new(&mgr, None, &plan, &keys);
        let probe = stock_probe(&plan, check);
        assert_eq!(facts.fact_object(probe, "stockInfo"), None);
        let fault = facts.take_fault();
        assert!(fault.is_some(), "fault must surface");
        assert!(facts.take_fault().is_none(), "fault latch clears");
    }

    #[test]
    fn every_tag_branch_roundtrips() {
        let plan = order_plan();
        let keys = InstanceKeys::build(&plan, "i", 0);
        let (check, base) = stock_fact(&plan, &keys);
        let sub = base.object(0);
        let other = "processOrderApplication/dispatch";
        let producers = [
            ("", PRODUCER_NONE, 0),
            ("processOrderApplication/checkStock", PRODUCER_OWN, 0),
            (other, PRODUCER_TASK, 1),
            ("elsewhere/gone", PRODUCER_SPELLED, 15),
        ];
        let mut mgr = TxManager::in_memory();
        for (class, spelled) in [("StockInfo", 0), ("Blob", 5)] {
            for (producer, form, producer_bytes) in producers {
                let value = ObjectVal::text(class, "payload").produced_by(producer);
                let bytes = encode_object(&plan, sub, &value);
                let tag = u8::from(spelled > 0) | form << 1;
                assert_eq!(bytes[0], tag, "{value:?}");
                // Tag, the spelled fields, then the payload's length and bytes.
                assert_eq!(bytes.len(), 1 + spelled + producer_bytes + 1 + 7);
                assert_eq!(decode_object(&plan, sub, &bytes), Ok(value.clone()));
                // The same through the store: written by the map writer,
                // read back whole and by a probe.
                let objects = BTreeMap::from([("stockInfo".to_string(), value.clone())]);
                write_output(&mut mgr, &plan, base, &objects);
                assert_eq!(read_fact_map(&mgr, &plan, base), Ok(Some(objects)));
                let facts = StoreFacts::new(&mgr, None, &plan, &keys);
                let probe = stock_probe(&plan, check);
                assert_eq!(facts.fact_object(probe, "stockInfo"), Some(value));
                assert!(facts.take_fault().is_none());
            }
        }
    }

    #[test]
    fn a_corrupt_tag_or_a_truncated_value_is_a_fault_not_absence() {
        let plan = order_plan();
        let keys = InstanceKeys::build(&plan, "i", 0);
        let (check, base) = stock_fact(&plan, &keys);
        let sub = base.object(0);
        let value = obj("s").produced_by("processOrderApplication/dispatch");
        let valid = encode_object(&plan, sub, &value);
        let mut unknown_tag = valid.clone();
        unknown_tag[0] = TAG_MAX + 1;
        let truncated = valid[..valid.len() - 1].to_vec();
        // A producer id the plan does not have.
        let foreign = vec![PRODUCER_TASK << 1, 0x7F, 1, b's'];
        for bytes in [unknown_tag, truncated, foreign, Vec::new()] {
            let mut mgr = TxManager::in_memory();
            let action = mgr.begin();
            // A valid presence record: the fact fired.
            let no_extras: BTreeMap<String, ObjectVal> = BTreeMap::new();
            mgr.write_key(&action, &StoreKey::Fact(base), &no_extras)
                .unwrap();
            mgr.write_key_raw(&action, &StoreKey::Fact(sub), bytes.clone())
                .unwrap();
            mgr.commit(action).unwrap();
            let facts = StoreFacts::new(&mgr, None, &plan, &keys);
            let probe = stock_probe(&plan, check);
            assert!(facts.fact_fired(probe));
            assert_eq!(facts.fact_object(probe, "stockInfo"), None);
            assert!(facts.take_fault().is_some(), "{bytes:?} read as absent");
            assert!(
                matches!(read_fact_map(&mgr, &plan, base), Err(TxError::Corrupt(_))),
                "{bytes:?} read whole"
            );
        }
    }

    #[test]
    fn an_executor_object_of_another_class_reaches_its_consumer_with_it() {
        use std::cell::Cell;
        use std::rc::Rc;

        use crate::{TaskBehavior, WorkflowSystem};

        // `t1` declares `out of class Data` and replies with a `Blob`:
        // nothing checks an executor's reply, so `t3` gets a `Blob`.
        let mut sys = WorkflowSystem::builder().executors(1).seed(1).build();
        sys.register_script("diamond", flowscript_core::samples::FIG1_DIAMOND, "diamond")
            .unwrap();
        sys.bind_fn("refT1", |_| {
            TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Blob", "b"))
        });
        let seen = Rc::new(RefCell::new(None));
        let saw = seen.clone();
        sys.bind_fn("refT3", move |ctx| {
            *saw.borrow_mut() = ctx.inputs.get("in").cloned();
            TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", "3"))
        });
        let ran = Rc::new(Cell::new(0));
        for code in ["refT2", "refT4"] {
            let ran = ran.clone();
            sys.bind_fn(code, move |_| {
                ran.set(ran.get() + 1);
                TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", "d"))
            });
        }
        let seed = ObjectVal::text("Data", "s");
        sys.start("d", "diamond", "main", [("seed", seed)]).unwrap();
        sys.run();
        assert!(sys.outcome("d").is_some());
        assert_eq!(ran.get(), 2);
        let expected = ObjectVal::text("Blob", "b").produced_by("diamond/t1");
        assert_eq!(seen.borrow().as_ref(), Some(&expected));
        let published = sys.output_fact("d", "diamond/t1", "done").unwrap();
        assert_eq!(published["out"], expected);
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
