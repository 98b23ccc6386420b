//! Fact storage layout: per-object sub-keys over the transactional
//! store, each object stored relative to the instance's plan.
//!
//! A dependency fact (a bound input set or a published output) is a
//! small map of named objects. Storing it as one encoded record makes
//! every readiness probe — the engine's innermost loop — decode the
//! *whole* map to extract a single object. This module stores facts
//! **per object** instead:
//!
//! - sub-key `obj = i + 1` holds the value of the declaration's `i`-th
//!   object alone,
//! - sub-key `obj = 0` (the *presence record*) holds the objects with no
//!   declared ordinal, and is stored only where the first declared
//!   object cannot say the fact fired: the declaration has no objects,
//!   the fact was published without that object, or there are such
//!   extras. A fact fired iff its first declared object or its presence
//!   record is stored ([`crate::keys::fired_key`] names the sub-key a
//!   probe reads first), so a fact is logged once, by what it holds.
//!
//! A probe through [`StoreFacts`] is then a `BTreeMap` point read (two
//! for a fact that may have fired without its first object) of exactly
//! the bytes it needs, decoded into one object, while
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
//! the wire codec of [`ObjectVal`]: the presence record's extras and
//! every message. An instance's outcome objects are
//! its root's output fact, read back through its plan.
//! Facts move between shards verbatim beside the source they pin, which
//! compiles to the same plan on either side; only a reconfiguration,
//! which changes the plan, re-encodes them.
//!
//! A task's **control block** shares the facts' dense key space (one
//! key, after the task's facts), so the instance-wide walks here — the
//! reconfiguration remap — carry it along. It too is stored relative to
//! the plan, which declares the task's input sets, outputs and marks
//! (fig. 3's lifecycle, [`crate::state`]): one tag byte, then what the
//! tag says follows.
//!
//! | field | bytes |
//! |---|---|
//! | tag | bits 0–2 the state; bit 3 the counters follow; bit 4 every name is spelled out; bit 5 the retries follow |
//! | name | `Active`/`Executing`: the set's ordinal in the class; `Done`/`Aborted`: the output's — a varint, or the name verbatim under bit 4; `Failed`: its reason; else none |
//! | counters | only when one is non-zero or a mark was emitted: `incarnation`, `scope_inc`, `attempt`, `repeats` as varints, then the marks as a count and output ordinals (names under bit 4) |
//! | retries | only when non-zero: the retries spent, a varint |
//!
//! `Executing` on a class's first set at attempt 0 is 2 B, a `Cancelled`
//! block 1 B. **An absent block reads as [`TaskCb::waiting`]**, so a
//! start writes none for the tasks it leaves waiting. `read_block` is
//! the one reader and `write_block` the one writer of block keys; a
//! block that does not decode — an unknown state, an ordinal the class
//! lacks, a mark ordinal naming no mark, a truncated value, trailing
//! bytes — is a [`CodecError`], never a plausible state. Blocks move
//! verbatim with the facts; a reconfiguration re-encodes one whose
//! class declares its sets or outputs differently.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use flowscript_core::ast::OutputKind;
use flowscript_plan::{
    eval as plan_eval, Plan, PlanClass, PlanObjectSig, Probe, Range32, StrId, TaskId,
};
use flowscript_tx::{
    AtomicAction, FactKey, FactKind, SharedStorage, Storage, StoreKey, TxError, TxManager,
};

use crate::keys::{fired_key, probe_keys};
use crate::msg::Objects;
use crate::state::{CbState, TaskCb};
use crate::value::{entries, ObjectRef, ObjectVal};

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
fn task_path(plan: &Plan, id: u64) -> Result<StrId, CodecError> {
    let task = usize::try_from(id).ok().and_then(|id| plan.tasks.get(id));
    let path = task.map(|task| task.path);
    path.ok_or(CodecError::InvalidDiscriminant {
        ty: "fact object producer",
        value: id,
    })
}

/// An object as it is read from a declared sub-key: its payload copied
/// out of the store, its class and producer shared with the plan that
/// names them — one allocation, where an [`ObjectVal`] takes three.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Found {
    class: Arc<str>,
    produced_by: Option<Arc<str>>,
    data: Vec<u8>,
}

impl Found {
    /// The object's fields, borrowed.
    pub(crate) fn view(&self) -> ObjectRef<'_> {
        ObjectRef {
            class: &self.class,
            data: &self.data,
            produced_by: self.produced_by.as_deref().unwrap_or(""),
        }
    }

    /// The object, owned.
    pub(crate) fn to_val(&self) -> ObjectVal {
        self.view().to_val()
    }
}

/// An object with no declared ordinal, found in a presence record.
impl From<ObjectVal> for Found {
    fn from(object: ObjectVal) -> Self {
        let produced_by = Some(object.produced_by).filter(|path| !path.is_empty());
        Found {
            class: object.class.into(),
            produced_by: produced_by.map(Arc::from),
            data: object.data,
        }
    }
}

/// Writes `object` for the declared sub-key `key`, relative to `plan`.
fn put_object(w: &mut ByteWriter, plan: &Plan, key: FactKey, object: ObjectRef<'_>) {
    let declared_class = declared(plan, key).map(|sig| plan.str(sig.class));
    let spell_class = declared_class != Some(object.class);
    let own = plan
        .tasks
        .get(key.task as usize)
        .map(|task| plan.str(task.path));
    let (form, task) = match object.produced_by {
        "" => (PRODUCER_NONE, None),
        path if own == Some(path) => (PRODUCER_OWN, None),
        path => match plan.task_by_path(path) {
            Some(task) => (PRODUCER_TASK, Some(task)),
            None => (PRODUCER_SPELLED, None),
        },
    };
    w.put_u8(u8::from(spell_class) | form << 1);
    if spell_class {
        w.put_str(object.class);
    }
    if let Some(task) = task {
        w.put_var_u64(u64::from(task));
    } else if form == PRODUCER_SPELLED {
        w.put_str(object.produced_by);
    }
    w.put_len_prefixed(object.data);
}

/// Decodes what [`put_object`] stored under `key`, relative to `plan`.
fn decode_object(plan: &Plan, key: FactKey, bytes: &[u8]) -> Result<Found, CodecError> {
    let mut r = ByteReader::new(bytes);
    let tag = r.get_u8()?;
    if tag > TAG_MAX {
        return Err(CodecError::InvalidDiscriminant {
            ty: "fact object tag",
            value: tag.into(),
        });
    }
    let class = if tag & CLASS_SPELLED != 0 {
        r.get_str()?.into()
    } else {
        let undeclared = CodecError::InvalidDiscriminant {
            ty: "fact object ordinal",
            value: key.obj.into(),
        };
        plan.name(declared(plan, key).ok_or(undeclared)?.class)
    };
    let produced_by = match tag >> 1 {
        PRODUCER_NONE => None,
        PRODUCER_OWN => Some(plan.name(task_path(plan, key.task.into())?)),
        PRODUCER_TASK => Some(plan.name(task_path(plan, r.get_var_u64()?)?)),
        _ => Some(r.get_str()?.into()),
    };
    let data = r.get_len_prefixed()?.to_vec();
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(Found {
        class,
        produced_by,
        data,
    })
}

/// Stages `object` under the declared sub-key `key`, encoded straight
/// into the action's after-image.
fn write_object<S: Storage>(
    mgr: &mut TxManager<S>,
    action: &AtomicAction,
    plan: &Plan,
    key: FactKey,
    object: ObjectRef<'_>,
) -> Result<(), TxError> {
    let write = |w: &mut ByteWriter| put_object(w, plan, key, object);
    mgr.write_key_with(action, &StoreKey::Fact(key), write)
}

/// The fact view the plan evaluator runs over: every probe resolves
/// through the plan, under the instance's id, to dense point reads
/// ([`probe_keys`]) — of
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
    instance: u32,
    fault: RefCell<Option<String>>,
}

impl<'a, S: Storage> StoreFacts<'a, S> {
    /// A view of instance `instance`'s facts in `mgr` — as committed,
    /// or as `action` would read them — resolving probes through `plan`,
    /// the plan the instance runs, and decoding objects relative to it.
    pub fn new(
        mgr: &'a TxManager<S>,
        action: Option<&'a AtomicAction>,
        plan: &'a Plan,
        instance: u32,
    ) -> Self {
        Self {
            mgr,
            action,
            plan,
            instance,
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

    /// The bytes at `key` as the view reads them. A view of committed
    /// state alone is the debug build's full-scan oracle, which counts no
    /// read: `tx.fact_point_reads` is then the same in every build.
    fn read(&self, key: FactKey) -> Option<&'a [u8]> {
        let key = StoreKey::Fact(key);
        match self.action {
            Some(_) => self.mgr.read_through(self.action, &key),
            None => self.mgr.read_committed_bytes(&key),
        }
    }

    /// The object stored under the declared sub-key `key`.
    fn object(&self, key: FactKey) -> Option<Found> {
        let bytes = self.read(key);
        let object = bytes.map(|bytes| decode_object(self.plan, key, bytes));
        self.latch(object.transpose().map_err(TxError::from))
    }
}

impl<S: Storage> plan_eval::PlanFacts for StoreFacts<'_, S> {
    type Value = Found;

    fn fact_object(&self, probe: Probe<'_>, object: &str) -> Option<Found> {
        let keys = probe_keys(self.plan, self.instance, &probe)?;
        // The probed object's bytes, nothing else.
        if let Some(value) = keys.data.and_then(|data| self.object(data)) {
            return Some(value);
        }
        // The declared sub-key missed: the fact never fired, fired
        // without this object, or the object has no declared ordinal.
        // The presence record settles all three (its extras map is
        // normally empty — a two-byte decode, never a whole record).
        let presence = self.read(keys.presence);
        let mut extras: BTreeMap<String, ObjectVal> = self.latch(decoded(presence))?;
        extras.remove(object).map(Found::from)
    }

    fn fact_fired(&self, probe: Probe<'_>) -> bool {
        let keys = probe_keys(self.plan, self.instance, &probe);
        keys.is_some_and(|keys| fired_at(|key| self.read(key).is_some(), keys.fired, keys.presence))
    }
}

/// Whether a fact fired: `fired` exists, or — when that is its first
/// declared object's sub-key, which a fact stored without that object
/// lacks — its presence record does. Point reads only.
fn fired_at(exists: impl Fn(FactKey) -> bool, fired: FactKey, presence: FactKey) -> bool {
    exists(fired) || (fired != presence && exists(presence))
}

/// Whether the fact at `base` fired, as `action` reads it (committed
/// state when `None`).
pub(crate) fn fired<S: Storage>(
    mgr: &TxManager<S>,
    action: Option<&AtomicAction>,
    plan: &Plan,
    base: FactKey,
) -> bool {
    let exists = |key| mgr.read_through(action, &StoreKey::Fact(key)).is_some();
    fired_at(exists, fired_key(plan, base), base)
}

/// Stages the presence record of the fact at `base` holding `extras` —
/// unless the fact's first declared object is stored (`first_stored`)
/// and there are no extras: that object then says the fact fired, and
/// a presence record an earlier write left goes.
fn write_presence<S: Storage, K, V>(
    mgr: &mut TxManager<S>,
    action: &AtomicAction,
    base: FactKey,
    first_stored: bool,
    extras: &BTreeMap<K, V>,
) -> Result<(), TxError>
where
    BTreeMap<K, V>: flowscript_codec::Encode,
{
    let key = StoreKey::Fact(base);
    if !first_stored || !extras.is_empty() {
        mgr.write_key(action, &key, extras)
    } else if mgr.read_through(Some(action), &key).is_some() {
        mgr.delete_key(action, &key)
    } else {
        Ok(())
    }
}

/// Decodes what a [`TxManager::read_through`] found.
fn decoded<T: Decode>(bytes: Option<&[u8]>) -> Result<Option<T>, TxError> {
    Ok(bytes.map(flowscript_codec::from_bytes).transpose()?)
}

/// A plan-eval binding list in the executor wire format: what the
/// name-keyed map it interns to encodes as — names ascending, a name
/// bound twice by its last value — written straight from the list,
/// which holds a handful of slots, with no map built.
pub(crate) fn bound_objects(plan: &Plan, bound: &[(StrId, Found)]) -> Objects {
    let name = |at: usize| plan.str(bound[at].0);
    let kept = |at: &usize| {
        bound[at + 1..]
            .iter()
            .all(|(later, _)| plan.str(*later) != name(*at))
    };
    Objects::written(|w| {
        w.put_len((0..bound.len()).filter(kept).count());
        let mut last: Option<&str> = None;
        loop {
            let unwritten = (0..bound.len()).filter(kept);
            let unwritten = unwritten.filter(|at| last.is_none_or(|last| name(*at) > last));
            let Some(next) = unwritten.min_by_key(|&at| name(at)) else {
                break;
            };
            w.put_str(name(next));
            bound[next].1.view().encode(w);
            last = Some(name(next));
        }
    })
}

/// Writes one fact from a name-keyed object map (outputs and marks
/// arriving from the wire, reconstructed records during remapping),
/// each object as if its `produced_by` said `stamp` when one is given:
/// a report's objects are written as the task at its path produced
/// them, with no stamped copy of the map made.
///
/// Each declared object goes under its dense sub-key (stale declared
/// sub-keys from a previous publication are cleared so rewrites never
/// resurrect old objects), undeclared names land in the presence
/// record's extras map. The presence record is stored only when the
/// first declared object does not say the fact fired: the declaration
/// has none, the map lacks it, or there are extras.
///
/// # Errors
///
/// [`TxError::UnknownAction`] for an action no longer open.
pub fn write_fact_map<'o, S: Storage>(
    mgr: &mut TxManager<S>,
    action: &AtomicAction,
    plan: &Plan,
    base: FactKey,
    objects: impl Iterator<Item = (&'o str, ObjectRef<'o>)> + Clone,
    stamp: Option<&str>,
) -> Result<(), TxError> {
    debug_assert_eq!(base.obj, 0, "facts are addressed by their presence key");
    let decl = plan
        .fact_decl_objects(base.task, base.kind == FactKind::Input, base.item)
        .unwrap_or(Range32::EMPTY);
    let decl_sigs = &plan.class_objects[decl.as_range()];
    let stamped = |object: ObjectRef<'o>| ObjectRef {
        produced_by: stamp.unwrap_or(object.produced_by),
        ..object
    };
    let named = |name: &str| {
        let mut all = objects.clone();
        all.find(|(at, _)| *at == name)
            .map(|(_, object)| stamped(object))
    };
    for (ordinal, sig) in decl_sigs.iter().enumerate() {
        let sub = base.object(ordinal as u32);
        match named(plan.str(sig.name)) {
            Some(object) => write_object(mgr, action, plan, sub, object)?,
            None => {
                let sub = StoreKey::Fact(sub);
                if mgr.read_through(Some(action), &sub).is_some() {
                    mgr.delete_key(action, &sub)?;
                }
            }
        }
    }
    let undeclared =
        |(name, _): &(&str, _)| decl_sigs.iter().all(|sig| plan.str(sig.name) != *name);
    let extras: BTreeMap<&str, ObjectRef<'_>> = objects
        .clone()
        .filter(undeclared)
        .map(|(name, object)| (name, stamped(object)))
        .collect();
    let first_stored = decl_sigs
        .first()
        .is_some_and(|sig| named(plan.str(sig.name)).is_some());
    write_presence(mgr, action, base, first_stored, &extras)
}

/// Writes one fact straight from the evaluator's slot-aligned binding
/// list — the commit hot path. Each bound object's sub-key ordinal was
/// interned at plan lowering ([`PlanSlot::obj_ordinal`]), so the write
/// looks up no object name (each value is still encoded against its
/// declaration); only names with no declared ordinal (rare) are
/// materialized into the presence extras. The presence record is stored
/// as [`write_fact_map`] stores it.
///
/// `slots` is the bound input set's (or output mapping's) slot range:
/// the evaluator produces exactly one bound value per slot, in slot
/// order.
///
/// # Errors
///
/// [`TxError::UnknownAction`] for an action no longer open.
///
/// [`PlanSlot::obj_ordinal`]: flowscript_plan::PlanSlot::obj_ordinal
pub fn write_fact_bound<S: Storage>(
    mgr: &mut TxManager<S>,
    action: &AtomicAction,
    plan: &Plan,
    base: FactKey,
    slots: Range32,
    bound: &[(StrId, Found)],
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
    let ordinal = |i: usize| {
        let slot = plan.slots.get(slots.start as usize + i);
        slot.and_then(|slot| slot.obj_ordinal)
    };
    // Whether the binding (re)produces the declaration's `at`-th object.
    let covered = |at: u32| (0..bound.len()).any(|i| ordinal(i) == Some(at));
    let mut extras: BTreeMap<String, ObjectVal> = BTreeMap::new();
    for (i, (name, value)) in bound.iter().enumerate() {
        match ordinal(i) {
            Some(ordinal) => {
                write_object(mgr, action, plan, base.object(ordinal), value.view())?;
            }
            None => {
                extras.insert(plan.str(*name).to_string(), value.to_val());
            }
        }
    }
    // Clear declared sub-keys this binding did not (re)produce, so a
    // rebinding never resurrects a stale object.
    for at in (0..decl.len() as u32).filter(|&at| !covered(at)) {
        let sub = StoreKey::Fact(base.object(at));
        if mgr.read_through(Some(action), &sub).is_some() {
            mgr.delete_key(action, &sub)?;
        }
    }
    let first_stored = !decl.is_empty() && covered(0);
    write_presence(mgr, action, base, first_stored, &extras)
}

/// Deletes every fact of `tasks` that `action` can see — committed, or
/// staged by it earlier in its step, which no store scan would find —
/// and leaves their control blocks: point reads in key order, over each
/// declared fact's sub-keys up to its "fired?" key ([`fired_key`]) and,
/// if it fired, on to its last declared object. `inputs_only` spares
/// the published outputs.
///
/// # Errors
///
/// [`TxError::UnknownAction`] for an action no longer open.
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
            let fired_obj = u32::from(!objects.is_empty());
            let mut found = false;
            for obj in 0..=objects.len() as u32 {
                let key = StoreKey::Fact(base.with_obj(obj));
                if mgr.read_through(Some(action), &key).is_some() {
                    mgr.delete_key(action, &key)?;
                    found = true;
                } else if obj == fired_obj && !found {
                    break; // the fact never fired
                }
            }
        }
    }
    Ok(())
}

/// Reads one fact back as a name-keyed map (whole-fact consumers:
/// recovery re-dispatch, monitoring, remapping): `None` unless it fired
/// (point reads), else one contiguous range scan over the fact's
/// sub-keys, naming and decoding each by its declaration in `plan`; the
/// presence record, where there is one, contributes the extras.
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
    let presence = mgr.read_committed_key::<BTreeMap<String, ObjectVal>>(&StoreKey::Fact(base))?;
    let fired = fired_key(plan, base);
    let mut map = match presence {
        Some(extras) => extras,
        None if fired != base && mgr.exists_key(&StoreKey::Fact(fired)) => BTreeMap::new(),
        None => return Ok(None),
    };
    for (key, bytes) in mgr.facts_in_range(base.object(0), base.fact_last()) {
        let Some(sig) = declared(plan, key) else {
            continue; // stale sub-key past the declaration: unreachable by probes
        };
        let object = decode_object(plan, key, &bytes)?.to_val();
        map.insert(plan.str(sig.name).to_string(), object);
    }
    Ok(Some(map))
}

/// Block tag bits 0–2: the state.
const BLOCK_STATE: u8 = 0b0_0111;
/// Block tag bit 3: the counters and marks follow.
const BLOCK_COUNTERS: u8 = 0b0_1000;
/// Block tag bit 4: every name the block carries is spelled out.
const BLOCK_SPELLED: u8 = 0b1_0000;
/// Block tag bit 5: the retries spent follow (only a task that retried).
const BLOCK_RETRIES: u8 = 0b10_0000;
/// Every bit a block tag can carry.
const BLOCK_TAG_MAX: u8 = BLOCK_STATE | BLOCK_COUNTERS | BLOCK_SPELLED | BLOCK_RETRIES;

/// A block's state bits.
fn state_bits(state: &CbState) -> u8 {
    match state {
        CbState::Waiting => 0,
        CbState::Active { .. } => 1,
        CbState::Executing { .. } => 2,
        CbState::Done { .. } => 3,
        CbState::Aborted { .. } => 4,
        CbState::Failed { .. } => 5,
        CbState::Cancelled => 6,
    }
}

/// Whether a block has a counter or a mark to store.
fn counted(cb: &TaskCb) -> bool {
    let counters = [cb.incarnation, cb.scope_inc, cb.attempt, cb.repeats];
    counters.iter().any(|&n| n != 0) || !cb.marks_emitted.is_empty()
}

/// The class of task `task`; a task the plan lacks is corrupt storage.
fn block_class(plan: &Plan, task: TaskId) -> Result<&PlanClass, CodecError> {
    let class = plan
        .tasks
        .get(task as usize)
        .map(|task| plan.class_of(task));
    class.ok_or(CodecError::InvalidDiscriminant {
        ty: "control block task",
        value: task.into(),
    })
}

/// The declarations a block's ordinals index: its class's input sets,
/// its outputs, or those of its outputs that are marks.
#[derive(Clone, Copy)]
enum Pool {
    Sets,
    Outputs,
    Marks,
}

impl Pool {
    /// The name `class` declares at ordinal `at` of this pool.
    fn name(self, plan: &Plan, class: &PlanClass, at: u64) -> Option<StrId> {
        let at = usize::try_from(at).ok()?;
        match self {
            Pool::Sets => plan.class_sets[class.sets.as_range()]
                .get(at)
                .map(|set| set.name),
            Pool::Outputs | Pool::Marks => plan.class_outputs[class.outputs.as_range()]
                .get(at)
                .filter(|output| matches!(self, Pool::Outputs) || output.kind == OutputKind::Mark)
                .map(|output| output.name),
        }
    }

    /// The ordinal of `name` in this pool of `class`.
    fn ordinal(self, plan: &Plan, class: &PlanClass, name: &str) -> Option<u32> {
        let at = match self {
            Pool::Sets => plan.class_set_ordinal(class, name)?,
            Pool::Outputs | Pool::Marks => plan.class_output_ordinal(class, name)?,
        };
        self.name(plan, class, at.into()).map(|_| at)
    }

    /// What an ordinal past this pool is reported as.
    fn what(self) -> &'static str {
        match self {
            Pool::Sets => "control block set",
            Pool::Outputs => "control block output",
            Pool::Marks => "control block mark",
        }
    }
}

/// `cb` encoded as `task`'s block, relative to `plan` ([`put_block`]).
pub(crate) fn encode_block(plan: &Plan, task: TaskId, cb: &TaskCb) -> Vec<u8> {
    flowscript_codec::encode_exact(|w| put_block(w, plan, task, cb))
}

/// Writes `cb` as `task`'s block, relative to `plan`. A name the class
/// does not declare spells every name out, so this never fails.
fn put_block(w: &mut ByteWriter, plan: &Plan, task: TaskId, cb: &TaskCb) {
    let class = block_class(plan, task).ok();
    let ordinal = |pool: Pool, name: &str| class.and_then(|class| pool.ordinal(plan, class, name));
    let name = match &cb.state {
        CbState::Active { set } | CbState::Executing { set } => Some((set, Pool::Sets)),
        CbState::Done { outcome } | CbState::Aborted { outcome } => Some((outcome, Pool::Outputs)),
        _ => None,
    };
    let name = name.map(|(name, pool)| (name, ordinal(pool, name)));
    let marks = cb.marks_emitted.iter();
    let marks: Option<Vec<u32>> = marks.map(|mark| ordinal(Pool::Marks, mark)).collect();
    let spelled = marks.is_none() || name.is_some_and(|(_, ordinal)| ordinal.is_none());
    let counted = counted(cb);
    let mut tag = state_bits(&cb.state);
    if counted {
        tag |= BLOCK_COUNTERS;
    }
    if spelled {
        tag |= BLOCK_SPELLED;
    }
    if cb.retries != 0 {
        tag |= BLOCK_RETRIES;
    }
    w.put_u8(tag);
    match (name, &cb.state) {
        (Some((name, _)), _) if spelled => w.put_str(name),
        (Some((_, Some(ordinal))), _) => w.put_var_u64(ordinal.into()),
        (_, CbState::Failed { reason }) => w.put_str(reason),
        _ => {}
    }
    if counted {
        for counter in [cb.incarnation, cb.scope_inc, cb.attempt, cb.repeats] {
            w.put_var_u64(counter.into());
        }
        w.put_var_u64(cb.marks_emitted.len() as u64);
        match marks.filter(|_| !spelled) {
            Some(ordinals) => ordinals.iter().for_each(|&at| w.put_var_u64(at.into())),
            None => cb.marks_emitted.iter().for_each(|mark| w.put_str(mark)),
        }
    }
    if cb.retries != 0 {
        w.put_var_u64(cb.retries.into());
    }
}

/// Decodes what `put_block` stored as `task`'s block, relative to
/// `plan`. Bytes it cannot have written are a [`CodecError`].
pub fn decode_block(plan: &Plan, task: TaskId, bytes: &[u8]) -> Result<TaskCb, CodecError> {
    let class = block_class(plan, task)?;
    let mut r = ByteReader::new(bytes);
    let tag = r.get_u8()?;
    let bad_tag = CodecError::InvalidDiscriminant {
        ty: "control block tag",
        value: tag.into(),
    };
    if tag > BLOCK_TAG_MAX {
        return Err(bad_tag);
    }
    let spelled = tag & BLOCK_SPELLED != 0;
    let name = |r: &mut ByteReader<'_>, pool: Pool| -> Result<Arc<str>, CodecError> {
        if spelled {
            return Ok(r.get_str()?.into());
        }
        let at = r.get_var_u64()?;
        let declared = pool.name(plan, class, at).map(|name| plan.name(name));
        declared.ok_or(CodecError::InvalidDiscriminant {
            ty: pool.what(),
            value: at,
        })
    };
    let state = match tag & BLOCK_STATE {
        0 => CbState::Waiting,
        1 => CbState::Active {
            set: name(&mut r, Pool::Sets)?,
        },
        2 => CbState::Executing {
            set: name(&mut r, Pool::Sets)?,
        },
        3 => CbState::Done {
            outcome: name(&mut r, Pool::Outputs)?,
        },
        4 => CbState::Aborted {
            outcome: name(&mut r, Pool::Outputs)?,
        },
        5 => CbState::Failed {
            reason: r.get_str()?.to_owned(),
        },
        6 => CbState::Cancelled,
        other => {
            return Err(CodecError::InvalidDiscriminant {
                ty: "CbState",
                value: other.into(),
            })
        }
    };
    let named = matches!(
        state,
        CbState::Active { .. }
            | CbState::Executing { .. }
            | CbState::Done { .. }
            | CbState::Aborted { .. }
    );
    let mut cb = TaskCb {
        state,
        ..TaskCb::waiting()
    };
    if tag & BLOCK_COUNTERS != 0 {
        let counters = [
            &mut cb.incarnation,
            &mut cb.scope_inc,
            &mut cb.attempt,
            &mut cb.repeats,
        ];
        for counter in counters {
            *counter = u32::try_from(r.get_var_u64()?).map_err(|_| CodecError::VarintOverflow)?;
        }
        for _ in 0..r.get_var_u64()? {
            cb.marks_emitted
                .push(name(&mut r, Pool::Marks)?.to_string());
        }
        // The encoder stores no counters it could leave out…
        if !counted(&cb) {
            return Err(bad_tag);
        }
    }
    if tag & BLOCK_RETRIES != 0 {
        cb.retries = u32::try_from(r.get_var_u64()?).map_err(|_| CodecError::VarintOverflow)?;
        // …nor retries it did not spend…
        if cb.retries == 0 {
            return Err(bad_tag);
        }
    }
    // …and spells nothing out where there is no name.
    if spelled && !named && cb.marks_emitted.is_empty() {
        return Err(bad_tag);
    }
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(cb)
}

/// Whether stored block bytes say `Done` or `Aborted` — what a block
/// says without its plan: its tag's state bits. Bytes no block begins
/// with say neither.
pub(crate) fn block_settled(bytes: &[u8]) -> bool {
    let tag = bytes.first().copied().unwrap_or(u8::MAX);
    tag <= BLOCK_TAG_MAX && matches!(tag & BLOCK_STATE, 3 | 4)
}

/// `task`'s control block of instance `instance` as `action` reads it —
/// committed, or as the action staged it over that
/// ([`TxManager::read_through`]). An absent
/// block is [`TaskCb::waiting`]; one that does not decode is an error,
/// never a state.
///
/// # Errors
///
/// [`TxError::Corrupt`] for a block that does not decode, or a task the
/// plan lacks.
pub(crate) fn read_block<S: Storage>(
    mgr: &TxManager<S>,
    action: Option<&AtomicAction>,
    plan: &Plan,
    instance: u32,
    task: TaskId,
) -> Result<TaskCb, TxError> {
    match mgr.read_through(action, &StoreKey::Fact(FactKey::control(instance, task))) {
        Some(bytes) => Ok(decode_block(plan, task, bytes)?),
        None => Ok(block_class(plan, task).map(|_| TaskCb::waiting())?),
    }
}

/// Stages `cb` as `task`'s control block of instance `instance`.
///
/// # Errors
///
/// [`TxError::UnknownAction`] for an action no longer open.
pub(crate) fn write_block<S: Storage>(
    mgr: &mut TxManager<S>,
    action: &AtomicAction,
    plan: &Plan,
    instance: u32,
    task: TaskId,
    cb: &TaskCb,
) -> Result<(), TxError> {
    let key = StoreKey::Fact(FactKey::control(instance, task));
    mgr.write_key_with(action, &key, |w| put_block(w, plan, task, cb))
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

/// Whether `old` of `old_plan` and `new` of `new_plan` declare the same
/// input sets and the same outputs, of the same kinds, in the same order:
/// every ordinal a block of one holds then names the same declaration
/// under the other.
fn blocks_match(old_plan: &Plan, old: TaskId, new_plan: &Plan, new: TaskId) -> bool {
    let old_class = old_plan.class_of(old_plan.task(old));
    let new_class = new_plan.class_of(new_plan.task(new));
    let old_sets = &old_plan.class_sets[old_class.sets.as_range()];
    let new_sets = &new_plan.class_sets[new_class.sets.as_range()];
    let old_outputs = &old_plan.class_outputs[old_class.outputs.as_range()];
    let new_outputs = &new_plan.class_outputs[new_class.outputs.as_range()];
    let same_name = |a: StrId, b: StrId| old_plan.str(a) == new_plan.str(b);
    old_sets.len() == new_sets.len()
        && old_outputs.len() == new_outputs.len()
        && old_sets
            .iter()
            .zip(new_sets)
            .all(|(a, b)| same_name(a.name, b.name))
        && old_outputs
            .iter()
            .zip(new_outputs)
            .all(|(a, b)| same_name(a.name, b.name) && a.kind == b.kind)
}

/// What a staged move carries to its new key: a fact's reconstructed
/// record, or a control block's bytes.
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
/// — read through the old plan, written through the new; so is a block
/// whose class declares its sets or outputs differently under the two
/// (`blocks_match`), and any other block moves byte for byte. Deletes
/// are staged before writes so a key vacated by one move can be
/// reoccupied by another within the same action.
///
/// # Errors
///
/// [`TxError::UnknownAction`] for an action no longer open, or corrupt
/// records.
pub fn remap_instance_facts<S: Storage>(
    mgr: &mut TxManager<S>,
    action: &AtomicAction,
    old_plan: &Plan,
    new_plan: &Plan,
    instance_id: u32,
) -> Result<(), TxError> {
    let ids_kept = ids_keep_paths(old_plan, new_plan);
    let (lo, hi) = (
        FactKey::instance_first(instance_id),
        FactKey::instance_last(instance_id),
    );
    // Group sub-keys per fact, by the fact's presence key whether or not
    // one is stored; key order keeps a fact's range adjacent (a control
    // block is a group of one).
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
        let moved = if base.kind == FactKind::Control {
            let verbatim =
                target.is_some_and(|to| blocks_match(old_plan, base.task, new_plan, to.task));
            if target == Some(base) && verbatim {
                continue; // identity: the block already says what it should
            }
            let bytes = mgr.read_committed_bytes(&StoreKey::Fact(base));
            let moved = match (target, bytes) {
                (Some(_), Some(bytes)) if verbatim => Some(bytes.to_vec()),
                (Some(to), Some(bytes)) => {
                    let cb = decode_block(old_plan, base.task, bytes)?;
                    Some(encode_block(new_plan, to.task, &cb))
                }
                _ => None,
            };
            moved.map(Moved::Block)
        } else {
            if target == Some(base) && ids_kept && decls_match(old_plan, new_plan, base) {
                continue; // identity: every sub-key already holds what it should
            }
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
                write_fact_map(mgr, action, new_plan, base, entries(&record), None)?;
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

    /// `object` encoded for the declared sub-key `key`, relative to
    /// `plan`.
    fn encode_object(plan: &Plan, key: FactKey, object: ObjectRef<'_>) -> Vec<u8> {
        flowscript_codec::encode_exact(|w| put_object(w, plan, key, object))
    }
    use crate::keys::out_key;
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
        write_fact_map(mgr, &action, plan, base, entries(objects), None).unwrap();
        mgr.commit(action).unwrap();
    }

    #[test]
    fn records_roundtrip_with_undeclared_extras() {
        let plan = order_plan();
        let check = plan
            .task_by_path("processOrderApplication/checkStock")
            .unwrap();
        let base = out_key(&plan, 0, check, "stockAvailable").unwrap();
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
        let check = plan
            .task_by_path("processOrderApplication/checkStock")
            .unwrap();
        let base = out_key(&plan, 0, check, "stockAvailable").unwrap();
        let mut mgr = TxManager::in_memory();
        let mut objects = BTreeMap::new();
        objects.insert("stockInfo".to_string(), obj("v1"));
        write_output(&mut mgr, &plan, base, &objects);
        // The declared object lives under its own sub-key, and says the
        // fact fired: no presence record…
        assert!(mgr.exists_key(&StoreKey::Fact(base.object(0))));
        assert!(!mgr.exists_key(&StoreKey::Fact(base)));
        // …and a rewrite without it clears the stale sub-key, leaving the
        // presence record to say so.
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
    fn stock_fact(plan: &Plan) -> (TaskId, FactKey) {
        let check = plan
            .task_by_path("processOrderApplication/checkStock")
            .unwrap();
        (check, out_key(plan, 0, check, "stockAvailable").unwrap())
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
        let (check, base) = stock_fact(&plan);
        let mut mgr = TxManager::in_memory();
        let mut objects = BTreeMap::new();
        objects.insert("stockInfo".to_string(), obj("s"));
        write_output(&mut mgr, &plan, base, &objects);
        // Probe through the evaluator's view.
        let facts = StoreFacts::new(&mgr, None, &plan, 0);
        let probe = stock_probe(&plan, check);
        let scans = || mgr.metrics().snapshot().counter("tx.fact_range_scans");
        let before = scans();
        assert!(facts.fact_fired(probe));
        let found = facts.fact_object(probe, "stockInfo");
        assert_eq!(found.map(|found| found.to_val()), Some(obj("s")));
        assert_eq!(scans(), before, "probes must be point reads");
        assert!(facts.take_fault().is_none());
    }

    #[test]
    fn a_presence_record_is_kept_only_where_no_declared_object_says_the_fact_fired() {
        let plan = order_plan();
        let (check, base) = stock_fact(&plan);
        let probe = stock_probe(&plan, check);
        let with = |pairs: &[(&str, &str)]| -> BTreeMap<String, ObjectVal> {
            let pairs = pairs
                .iter()
                .map(|(name, value)| (name.to_string(), obj(value)));
            pairs.collect()
        };
        // What each write stores under the fact: its presence record?
        let cases = [
            (with(&[("stockInfo", "s")]), false),
            (with(&[("stockInfo", "s"), ("extra", "x")]), true),
            (with(&[]), true),
            (with(&[("stockInfo", "t")]), false),
        ];
        let mut mgr = TxManager::in_memory();
        for (objects, presence) in cases {
            write_output(&mut mgr, &plan, base, &objects);
            assert_eq!(
                mgr.exists_key(&StoreKey::Fact(base)),
                presence,
                "{objects:?}"
            );
            let facts = StoreFacts::new(&mgr, None, &plan, 0);
            assert!(facts.fact_fired(probe), "{objects:?}");
            assert_eq!(
                facts
                    .fact_object(probe, "stockInfo")
                    .map(|found| found.to_val()),
                objects.get("stockInfo").cloned()
            );
            assert!(facts.take_fault().is_none());
            assert!(fired(&mgr, None, &plan, base));
            assert_eq!(read_fact_map(&mgr, &plan, base), Ok(Some(objects)));
        }
        // Deleting the fact leaves nothing of it, and it reads unfired.
        for objects in [with(&[("stockInfo", "s")]), with(&[])] {
            write_output(&mut mgr, &plan, base, &objects);
            let action = mgr.begin();
            delete_facts(&mut mgr, &action, &plan, 0, [check].into_iter(), false).unwrap();
            mgr.commit(action).unwrap();
            assert!(mgr.fact_keys_in_range(base, base.fact_last()).is_empty());
            let facts = StoreFacts::new(&mgr, None, &plan, 0);
            assert!(!facts.fact_fired(probe));
            assert_eq!(read_fact_map(&mgr, &plan, base), Ok(None));
        }
        // A fact declaring no objects keeps its presence record: nothing
        // else can say it fired.
        let plan = work_plan(SETS, OUTPUTS);
        let w = plan.task_by_path("root/w").unwrap();
        let done = out_key(&plan, 0, w, "done").unwrap();
        write_output(&mut mgr, &plan, done, &BTreeMap::new());
        assert!(mgr.exists_key(&StoreKey::Fact(done)));
        assert!(fired(&mgr, None, &plan, done));
    }

    #[test]
    fn corrupt_fact_surfaces_a_fault_instead_of_absence() {
        let plan = order_plan();
        let (check, base) = stock_fact(&plan);
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
        let facts = StoreFacts::new(&mgr, None, &plan, 0);
        let probe = stock_probe(&plan, check);
        assert_eq!(facts.fact_object(probe, "stockInfo"), None);
        let fault = facts.take_fault();
        assert!(fault.is_some(), "fault must surface");
        assert!(facts.take_fault().is_none(), "fault latch clears");
    }

    #[test]
    fn every_tag_branch_roundtrips() {
        let plan = order_plan();
        let (check, base) = stock_fact(&plan);
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
                let bytes = encode_object(&plan, sub, value.view());
                let tag = u8::from(spelled > 0) | form << 1;
                assert_eq!(bytes[0], tag, "{value:?}");
                // Tag, the spelled fields, then the payload's length and bytes.
                assert_eq!(bytes.len(), 1 + spelled + producer_bytes + 1 + 7);
                let decoded = decode_object(&plan, sub, &bytes).map(|found| found.to_val());
                assert_eq!(decoded, Ok(value.clone()));
                // The same through the store: written by the map writer,
                // read back whole and by a probe.
                let objects = BTreeMap::from([("stockInfo".to_string(), value.clone())]);
                write_output(&mut mgr, &plan, base, &objects);
                assert_eq!(read_fact_map(&mgr, &plan, base), Ok(Some(objects)));
                let facts = StoreFacts::new(&mgr, None, &plan, 0);
                let probe = stock_probe(&plan, check);
                let found = facts.fact_object(probe, "stockInfo");
                assert_eq!(found.map(|found| found.to_val()), Some(value));
                assert!(facts.take_fault().is_none());
            }
        }
    }

    #[test]
    fn a_corrupt_tag_or_a_truncated_value_is_a_fault_not_absence() {
        let plan = order_plan();
        let (check, base) = stock_fact(&plan);
        let sub = base.object(0);
        let value = obj("s").produced_by("processOrderApplication/dispatch");
        let valid = encode_object(&plan, sub, value.view());
        let mut unknown_tag = valid.clone();
        unknown_tag[0] = TAG_MAX + 1;
        let truncated = valid[..valid.len() - 1].to_vec();
        // A producer id the plan does not have.
        let foreign = vec![PRODUCER_TASK << 1, 0x7F, 1, b's'];
        let corrupt = [unknown_tag, truncated, foreign, Vec::new()];
        // With a valid presence record beside it, and without one: the
        // object alone says the fact fired.
        for (bytes, presence) in corrupt.iter().flat_map(|b| [(b, true), (b, false)]) {
            let mut mgr = TxManager::in_memory();
            let action = mgr.begin();
            if presence {
                let no_extras: BTreeMap<String, ObjectVal> = BTreeMap::new();
                mgr.write_key(&action, &StoreKey::Fact(base), &no_extras)
                    .unwrap();
            }
            mgr.write_key_raw(&action, &StoreKey::Fact(sub), bytes.clone())
                .unwrap();
            mgr.commit(action).unwrap();
            let facts = StoreFacts::new(&mgr, None, &plan, 0);
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
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Mutex;

        use crate::{TaskBehavior, WorkflowSystem};

        // `t1` declares `out of class Data` and replies with a `Blob`:
        // nothing checks an executor's reply, so `t3` gets a `Blob`.
        let mut sys = WorkflowSystem::builder().executors(1).seed(1).build();
        sys.register_script("diamond", flowscript_core::samples::FIG1_DIAMOND, "diamond")
            .unwrap();
        sys.bind_fn("refT1", |_| {
            TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Blob", "b"))
        });
        let seen = Arc::new(Mutex::new(None));
        let saw = seen.clone();
        sys.bind_fn("refT3", move |ctx| {
            *saw.lock().unwrap() = ctx.input("in").map(ObjectRef::to_val);
            TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", "3"))
        });
        let ran = Arc::new(AtomicU32::new(0));
        for code in ["refT2", "refT4"] {
            let ran = ran.clone();
            sys.bind_fn(code, move |_| {
                ran.fetch_add(1, Ordering::Relaxed);
                TaskBehavior::outcome("done").with_object("out", ObjectVal::text("Data", "d"))
            });
        }
        let seed = ObjectVal::text("Data", "s");
        sys.start("d", "diamond", "main", [("seed", seed)]).unwrap();
        sys.run();
        assert!(sys.outcome("d").is_some());
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        let expected = ObjectVal::text("Blob", "b").produced_by("diamond/t1");
        assert_eq!(seen.lock().unwrap().as_ref(), Some(&expected));
        let published = sys.output_fact("d", "diamond/t1", "done").unwrap();
        assert_eq!(published["out"], expected);
    }

    #[test]
    fn remap_is_identity_for_an_unchanged_plan() {
        let plan_a = order_plan();
        let plan_b = order_plan();
        let check = plan_a
            .task_by_path("processOrderApplication/checkStock")
            .unwrap();
        let base = out_key(&plan_a, 5, check, "stockAvailable").unwrap();
        let mut mgr = TxManager::in_memory();
        let mut objects = BTreeMap::new();
        objects.insert("stockInfo".to_string(), obj("s"));
        write_output(&mut mgr, &plan_a, base, &objects);
        let count = mgr.object_count();
        let action = mgr.begin();
        remap_instance_facts(&mut mgr, &action, &plan_a, &plan_b, 5).unwrap();
        mgr.commit(action).unwrap();
        assert_eq!(mgr.object_count(), count, "identity remap moves nothing");
        assert_eq!(
            read_fact_map(&mgr, &plan_b, base).unwrap().unwrap(),
            objects
        );
    }

    /// A leaf `root/w` whose class declares the input `sets` and the
    /// `outputs` in that order: `done` and `skipped` are outcomes, any
    /// other name a mark.
    fn work_plan(sets: [&str; 2], outputs: [&str; 4]) -> Plan {
        let set = |name: &str| format!("input {name} {{ in of class Data }}");
        let task_set = |name: &str| {
            format!("input {name} {{ inputobject in from {{ seed of task root if input main }} }}")
        };
        let output = |name: &str| match name {
            "done" | "skipped" => format!("outcome {name} {{ }}"),
            mark => format!("mark {mark} {{ }}"),
        };
        let text = format!(
            "class Data;
            taskclass Work {{
                inputs {{ {} }};
                outputs {{ {} }}
            }}
            taskclass Root {{
                inputs {{ input main {{ seed of class Data }} }};
                outputs {{ outcome done {{ }} }}
            }}
            compoundtask root of taskclass Root {{
                task w of taskclass Work {{
                    implementation {{ \"code\" is \"refWork\" }};
                    inputs {{ {} }}
                }};
                outputs {{ outcome done {{ notification from {{ task w if output done }} }} }}
            }}",
            sets.map(set).join("; "),
            outputs.map(output).join("; "),
            sets.map(task_set).join("; "),
        );
        Plan::lower(&schema::compile_source(&text, "root").unwrap())
    }

    const SETS: [&str; 2] = ["main", "spare"];
    const OUTPUTS: [&str; 4] = ["done", "skipped", "early", "late"];

    /// `cb` written as `task`'s block and read back, with its bytes.
    fn stored_block(plan: &Plan, task: TaskId, cb: &TaskCb) -> (Vec<u8>, TaskCb) {
        let mut mgr = TxManager::in_memory();
        let action = mgr.begin();
        write_block(&mut mgr, &action, plan, 0, task, cb).unwrap();
        mgr.commit(action).unwrap();
        let bytes = mgr.read_committed_bytes(&StoreKey::Fact(FactKey::control(0, task)));
        let bytes = bytes.unwrap().to_vec();
        (bytes, read_block(&mgr, None, plan, 0, task).unwrap())
    }

    #[test]
    fn a_block_stores_ordinals_of_its_class_and_spells_what_it_lacks() {
        let plan = work_plan(SETS, OUTPUTS);
        let w = plan.task_by_path("root/w").unwrap();
        let named = |name: &str| name.to_string();
        // A state and the ordinal of the name it carries: `spare` is the
        // second set, `skipped` the second output.
        let states = [
            (CbState::Waiting, None),
            (
                CbState::Active {
                    set: "spare".into(),
                },
                Some(1),
            ),
            (CbState::Executing { set: "main".into() }, Some(0)),
            (
                CbState::Done {
                    outcome: "skipped".into(),
                },
                Some(1),
            ),
            (
                CbState::Aborted {
                    outcome: "done".into(),
                },
                Some(0),
            ),
            (CbState::Cancelled, None),
        ];
        for (state, ordinal) in states {
            let bare = TaskCb {
                state: state.clone(),
                ..TaskCb::waiting()
            };
            let (bytes, read) = stored_block(&plan, w, &bare);
            assert_eq!(read, bare);
            assert_eq!(bytes[0] & BLOCK_STATE, state_bits(&state));
            assert_eq!(bytes[1..], Vec::from_iter(ordinal), "{state:?}");
            let counted = TaskCb {
                incarnation: 1,
                scope_inc: 2,
                attempt: 3,
                marks_emitted: vec![named("late"), named("early")],
                repeats: 4,
                ..bare
            };
            let (bytes, read) = stored_block(&plan, w, &counted);
            assert_eq!(read, counted);
            assert_eq!(bytes[0] & !BLOCK_STATE, BLOCK_COUNTERS, "{state:?}");
            // The counters, the mark count, then each mark's ordinal.
            assert_eq!(bytes[bytes.len() - 7..], [1, 2, 3, 4, 2, 3, 2]);
            // A task that retried: the retries spent, last.
            let retried = TaskCb {
                retries: 5,
                ..counted
            };
            let (bytes, read) = stored_block(&plan, w, &retried);
            assert_eq!(read, retried);
            assert_eq!(bytes[0] & !BLOCK_STATE, BLOCK_COUNTERS | BLOCK_RETRIES);
            assert_eq!(bytes[bytes.len() - 8..], [1, 2, 3, 4, 2, 3, 2, 5]);
        }
        let failed = CbState::Failed {
            reason: "retries exhausted".into(),
        };
        let failed = TaskCb {
            state: failed,
            ..TaskCb::waiting()
        };
        assert_eq!(stored_block(&plan, w, &failed).1, failed);
        // A set, an outcome or a mark the class does not declare — here
        // `done` emitted as a mark — spells every name out.
        let undeclared = [
            (
                CbState::Executing {
                    set: "other".into(),
                },
                vec![],
            ),
            (
                CbState::Done {
                    outcome: "other".into(),
                },
                vec![],
            ),
            (
                CbState::Executing { set: "main".into() },
                vec![named("done")],
            ),
            (CbState::Cancelled, vec![named("early"), named("gone")]),
        ];
        for (state, marks_emitted) in undeclared {
            let cb = TaskCb {
                state,
                marks_emitted,
                ..TaskCb::waiting()
            };
            let (bytes, read) = stored_block(&plan, w, &cb);
            assert_eq!(read, cb);
            assert_ne!(bytes[0] & BLOCK_SPELLED, 0, "{cb:?}");
        }
    }

    #[test]
    fn an_absent_block_is_waiting_and_a_corrupt_one_is_a_fault() {
        let plan = work_plan(SETS, OUTPUTS);
        let w = plan.task_by_path("root/w").unwrap();
        let mgr = TxManager::in_memory();
        assert_eq!(read_block(&mgr, None, &plan, 0, w), Ok(TaskCb::waiting()));
        let past = plan.tasks.len() as TaskId;
        assert!(
            read_block(&mgr, None, &plan, 0, past).is_err(),
            "not a task"
        );
        let counted = BLOCK_COUNTERS; // a tag whose counters follow
        let corrupt: [(&str, Vec<u8>); 13] = [
            ("an unknown state", vec![7]),
            ("a tag past every bit", vec![0x40]),
            ("retries that are zero", vec![BLOCK_RETRIES | 6, 0]),
            ("truncated retries", vec![BLOCK_RETRIES | 6]),
            ("a set ordinal past the class", vec![2, 2]),
            ("an output ordinal past the class", vec![3, 4]),
            (
                "a mark ordinal naming an outcome",
                vec![counted, 0, 0, 0, 0, 1, 0],
            ),
            ("a truncated name", vec![2]),
            ("truncated counters", vec![counted | 2, 0, 1, 0]),
            ("trailing bytes", vec![6, 0]),
            ("nothing at all", vec![]),
            ("counters that are all zero", vec![counted, 0, 0, 0, 0, 0]),
            ("a spelled tag with no name", vec![BLOCK_SPELLED | 6]),
        ];
        for (what, bytes) in corrupt {
            let mut mgr = TxManager::in_memory();
            let action = mgr.begin();
            let key = StoreKey::Fact(FactKey::control(0, w));
            mgr.write_key_raw(&action, &key, bytes).unwrap();
            mgr.commit(action).unwrap();
            let read = read_block(&mgr, None, &plan, 0, w);
            assert!(matches!(read, Err(TxError::Corrupt(_))), "{what}: {read:?}");
            let action = mgr.begin();
            let staged = read_block(&mgr, Some(&action), &plan, 0, w);
            assert!(matches!(staged, Err(TxError::Corrupt(_))), "{what} staged");
            mgr.abort(action);
        }
    }

    /// The two bytes a diamond's start logs as `t1`'s block (see
    /// `tests/fact_scans.rs`): `Executing` its class's first set.
    #[test]
    fn a_started_leaf_block_is_two_bytes() {
        let diamond = flowscript_core::samples::FIG1_DIAMOND;
        let plan = Plan::lower(&schema::compile_source(diamond, "diamond").unwrap());
        assert_eq!(plan.task_by_path("diamond/t1"), Some(1));
        let t1 = decode_block(&plan, 1, &[2, 0]).expect("a block decodes");
        let executing = CbState::Executing { set: "main".into() };
        assert_eq!(
            t1,
            TaskCb {
                state: executing,
                ..TaskCb::waiting()
            }
        );
    }

    #[test]
    fn a_remap_re_encodes_a_block_whose_class_ordinals_moved() {
        // The same class, its sets and outputs declared in another order:
        // every ordinal a block holds names something else under the new
        // plan, so a byte-for-byte copy would misread each of them.
        let old = work_plan(SETS, OUTPUTS);
        let new = work_plan(["spare", "main"], ["late", "early", "skipped", "done"]);
        let w = old.task_by_path("root/w").unwrap();
        assert_eq!(new.task_by_path("root/w"), Some(w), "the task keeps its id");
        let named = |name: &str| name.to_string();
        let blocks = [
            TaskCb {
                state: CbState::Executing {
                    set: "spare".into(),
                },
                ..TaskCb::waiting()
            },
            TaskCb {
                state: CbState::Done {
                    outcome: "done".into(),
                },
                ..TaskCb::waiting()
            },
            TaskCb {
                state: CbState::Done {
                    outcome: "skipped".into(),
                },
                incarnation: 1,
                scope_inc: 0,
                attempt: 2,
                retries: 1,
                marks_emitted: vec![named("early"), named("late")],
                repeats: 1,
            },
        ];
        for cb in blocks {
            let mut mgr = TxManager::in_memory();
            let action = mgr.begin();
            write_block(&mut mgr, &action, &old, 3, w, &cb).unwrap();
            mgr.commit(action).unwrap();
            let action = mgr.begin();
            remap_instance_facts(&mut mgr, &action, &old, &new, 3).unwrap();
            mgr.commit(action).unwrap();
            assert_eq!(read_block(&mgr, None, &new, 3, w), Ok(cb));
        }
    }
}
