//! The plan data structures and their encoding.

use std::collections::BTreeMap;
use std::sync::Arc;

use flowscript_codec::{ByteWriter, Encode};
use flowscript_core::ast::OutputKind;

/// Index into the plan's interned string table.
pub type StrId = u32;
/// Index into [`Plan::tasks`].
pub type TaskId = u32;
/// Index into [`Plan::classes`].
pub type ClassId = u32;

/// A half-open `[start, end)` index range into one of the plan's flat
/// pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Range32 {
    /// First index.
    pub start: u32,
    /// One past the last index.
    pub end: u32,
}

impl Range32 {
    /// An empty range.
    pub const EMPTY: Range32 = Range32 { start: 0, end: 0 };

    /// Number of elements covered (0 for an inverted range).
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start) as usize
    }

    /// Whether the range covers nothing.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Iterates the covered indices as `usize`.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        (self.start as usize)..(self.end as usize)
    }

    /// The covered `usize` range (for slicing pools).
    pub fn as_range(&self) -> std::ops::Range<usize> {
        (self.start as usize)..(self.end as usize)
    }
}

/// One task instance (leaf or compound scope) in DFS pre-order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanTask {
    /// Instance name within its scope.
    pub name: StrId,
    /// Absolute slash-joined path (e.g. `trip/booking/queryB`).
    pub path: StrId,
    /// The task's class.
    pub class: ClassId,
    /// Enclosing scope's task id (`None` for the root).
    pub parent: Option<TaskId>,
    /// Bound input sets, in binding order (range into [`Plan::sets`]).
    pub sets: Range32,
    /// Implementation pairs (range into [`Plan::impl_kv`]).
    pub impl_kv: Range32,
    /// Direct children (range into [`Plan::child_pool`]); empty for
    /// leaves.
    pub children: Range32,
    /// All descendants: task ids `self+1 .. subtree_end` (DFS pre-order
    /// makes the subtree contiguous).
    pub subtree_end: TaskId,
    /// Output mappings (range into [`Plan::outputs`]); empty for leaves.
    pub outputs: Range32,
    /// Consumers that may become ready when this task publishes a fact
    /// (range into [`Plan::rdep_pool`]).
    pub rdeps: Range32,
    /// Whether this is a compound scope.
    pub is_scope: bool,
    /// Derived: the parsed `"priority"` implementation pair (0 when
    /// absent or unparsable), precomputed so the worklist's hot path
    /// never re-scans `impl_kv`. Derived at lowering, not encoded.
    pub priority: i64,
    /// Derived: the implementation pairs as owned strings, by key (a key
    /// given twice keeps its last value) — the clause every dispatch of
    /// the task ships, built once at lowering, not encoded.
    pub implementation: BTreeMap<String, String>,
}

/// A bound input set of a task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanInputSet {
    /// Set name.
    pub name: StrId,
    /// Dataflow slots (range into [`Plan::slots`]).
    pub slots: Range32,
    /// Notification dependencies (range into [`Plan::notes`]).
    pub notes: Range32,
    /// Bitmask with one bit per requirement (slots first, then
    /// notifications); all-ones for 64+ requirements, where the
    /// availability mask's bit 63 aggregates the tail conjunction
    /// (see `eval::satisfaction_mask`). A set is satisfied iff the
    /// availability mask equals this.
    pub required_mask: u64,
}

impl PlanInputSet {
    /// Number of requirements (slots + notifications).
    pub fn requirement_count(&self) -> usize {
        self.slots.len() + self.notes.len()
    }
}

/// A dataflow slot: one required object and its ordered alternatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSlot {
    /// Object name in the consumer's signature.
    pub name: StrId,
    /// The object's class.
    pub class: StrId,
    /// Ordered alternative sources (range into [`Plan::sources`]);
    /// first available wins.
    pub sources: Range32,
    /// Derived: the ordinal of `name` among the declared objects of the
    /// fact this slot's value is stored under — the owning task's class
    /// input-set signature for binding slots, the owning scope's class
    /// output for mapping slots (`None` when the name is undeclared
    /// there, so the value lands in the fact's presence record). This
    /// is the dense sub-key the engine writes bound objects at. Derived
    /// at lowering, not encoded.
    pub obj_ordinal: Option<u32>,
}

/// A notification dependency: satisfied when any source fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNotification {
    /// Ordered alternative sources (range into [`Plan::sources`]).
    pub sources: Range32,
}

/// When a source's fact becomes available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanCond {
    /// The producer bound the named input set.
    Input(StrId),
    /// The producer produced the named output.
    Output(StrId),
    /// The producer produced any of these outputs (range into
    /// [`Plan::any_pool`]).
    AnyOf(Range32),
}

/// One resolved alternative source with its producer's absolute path
/// precomputed (no per-probe string building).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSource {
    /// Absolute path of the producing task (the enclosing scope itself
    /// for `self` sources).
    pub producer_path: StrId,
    /// Producing task's id, when it exists in the plan (a reconfig can
    /// reference tasks that were since removed).
    pub producer: Option<TaskId>,
    /// The object taken (`None` for notifications).
    pub object: Option<StrId>,
    /// Availability condition.
    pub cond: PlanCond,
    /// Derived: the ordinal of `object` among the declared objects of
    /// the probed fact (the producer class's input-set signature for
    /// [`PlanCond::Input`], its output declaration for
    /// [`PlanCond::Output`]; per-candidate ordinals of `AnyOf`
    /// conditions live in [`Plan::any_obj_ordinals`]). `None` when the
    /// producer is gone, the source is a notification, or the object is
    /// undeclared there. A fact store with per-object sub-keys probes
    /// `(producer, fact, ordinal)` as one dense key. Derived at
    /// lowering, not encoded.
    pub object_ordinal: Option<u32>,
    /// Derived: the ordinal of the probed fact among the producer
    /// class's input sets ([`PlanCond::Input`]) or outputs
    /// ([`PlanCond::Output`]) — the `item` of its dense fact key, as
    /// [`Plan::class_set_ordinal`] and [`Plan::class_output_ordinal`]
    /// name it (`AnyOf` candidates' live in [`Plan::any_fact_ordinals`]).
    /// `None` when the producer is gone or does not declare the set or
    /// output: a probe that can never fire. Derived at lowering, not
    /// encoded.
    pub fact_ordinal: Option<u32>,
}

/// One output mapping of a compound scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanOutput {
    /// Output name.
    pub name: StrId,
    /// Output kind.
    pub kind: OutputKind,
    /// Object mappings (range into [`Plan::slots`]).
    pub slots: Range32,
    /// Notification conditions (range into [`Plan::notes`]).
    pub notes: Range32,
}

/// A resolved task class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanClass {
    /// Class name.
    pub name: StrId,
    /// Input-set signatures in declaration order (range into
    /// [`Plan::class_sets`]).
    pub sets: Range32,
    /// Possible outputs (range into [`Plan::class_outputs`]).
    pub outputs: Range32,
    /// Whether the class declares an abort outcome.
    pub atomic: bool,
}

/// An input-set signature of a class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanClassSet {
    /// Set name.
    pub name: StrId,
    /// Required objects (range into [`Plan::class_objects`]).
    pub objects: Range32,
}

/// A declared output of a class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanClassOutput {
    /// Output name.
    pub name: StrId,
    /// Output kind.
    pub kind: OutputKind,
    /// Objects produced with it (range into [`Plan::class_objects`]).
    pub objects: Range32,
}

/// An object signature: name and class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanObjectSig {
    /// Object reference name.
    pub name: StrId,
    /// Its object class.
    pub class: StrId,
}

/// A compiled, executable workflow plan. Built by [`Plan::lower`];
/// addressed exclusively through `u32` ids into flat pools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Interned strings; every `StrId` indexes here. Shared, so a
    /// control block names its set or outcome with a reference count,
    /// not a copy ([`Plan::name`]).
    pub strings: Vec<Arc<str>>,
    /// Object class names declared by the script.
    pub object_classes: Vec<StrId>,
    /// Task classes, sorted by name.
    pub classes: Vec<PlanClass>,
    /// Pool: class input-set signatures.
    pub class_sets: Vec<PlanClassSet>,
    /// Pool: class outputs.
    pub class_outputs: Vec<PlanClassOutput>,
    /// Pool: class object signatures.
    pub class_objects: Vec<PlanObjectSig>,
    /// Tasks in DFS pre-order; id 0 is the root scope.
    pub tasks: Vec<PlanTask>,
    /// Pool: bound input sets.
    pub sets: Vec<PlanInputSet>,
    /// Pool: dataflow slots (input sets and output mappings share it).
    pub slots: Vec<PlanSlot>,
    /// Pool: notification dependencies.
    pub notes: Vec<PlanNotification>,
    /// Pool: alternative sources.
    pub sources: Vec<PlanSource>,
    /// Pool: candidate output names of `AnyOf` conditions.
    pub any_pool: Vec<StrId>,
    /// Derived, parallel to [`Plan::any_pool`]: the owning source's
    /// object ordinal within each candidate output's declared objects
    /// (see [`PlanSource::object_ordinal`]). Derived at lowering, not
    /// encoded.
    pub any_obj_ordinals: Vec<Option<u32>>,
    /// Derived, parallel to [`Plan::any_pool`]: each candidate output's
    /// ordinal among its producer class's outputs (see
    /// [`PlanSource::fact_ordinal`]). Derived at lowering, not encoded.
    pub any_fact_ordinals: Vec<Option<u32>>,
    /// Pool: compound output mappings.
    pub outputs: Vec<PlanOutput>,
    /// Pool: implementation key/value pairs.
    pub impl_kv: Vec<(StrId, StrId)>,
    /// Pool: direct-children task ids.
    pub child_pool: Vec<TaskId>,
    /// Pool: reverse-dependency consumer task ids.
    pub rdep_pool: Vec<TaskId>,
    /// Derived at lowering (not encoded), parallel to [`Plan::tasks`]:
    /// what activating a scope whose subtree holds no
    /// fact yet can enable — the children with an input set whose every
    /// requirement has a source outside that subtree, and whether an
    /// output mapping of the scope can be met that way.
    pub activation_seeds: Vec<(Vec<TaskId>, bool)>,
    /// Absolute path → task id.
    pub path_index: BTreeMap<String, TaskId>,
    /// Class name → class id.
    pub class_index: BTreeMap<String, ClassId>,
}

impl Plan {
    /// The interned string behind `id`.
    ///
    /// # Panics
    ///
    /// Panics on an id not produced for this plan.
    pub fn str(&self, id: StrId) -> &str {
        &self.strings[id as usize]
    }

    /// The interned string behind `id`, shared.
    ///
    /// # Panics
    ///
    /// Panics on an id not produced for this plan.
    pub fn name(&self, id: StrId) -> Arc<str> {
        self.strings[id as usize].clone()
    }

    /// The task behind `id`.
    ///
    /// # Panics
    ///
    /// Panics on an id not produced for this plan.
    pub fn task(&self, id: TaskId) -> &PlanTask {
        &self.tasks[id as usize]
    }

    /// The root scope task.
    pub fn root(&self) -> &PlanTask {
        &self.tasks[0]
    }

    /// Resolves an absolute slash path to a task id.
    pub fn task_by_path(&self, path: &str) -> Option<TaskId> {
        self.path_index.get(path).copied()
    }

    /// The class of a task.
    pub fn class_of(&self, task: &PlanTask) -> &PlanClass {
        &self.classes[task.class as usize]
    }

    /// A class's declared output by name.
    pub fn class_output(&self, class: &PlanClass, name: &str) -> Option<&PlanClassOutput> {
        self.class_outputs[class.outputs.as_range()]
            .iter()
            .find(|output| self.str(output.name) == name)
    }

    /// A class's input-set signature by name.
    pub fn class_set(&self, class: &PlanClass, name: &str) -> Option<&PlanClassSet> {
        self.class_sets[class.sets.as_range()]
            .iter()
            .find(|set| self.str(set.name) == name)
    }

    /// The ordinal of a class's declared output by name — the dense
    /// `item` component of a structured fact key. Stable across tasks
    /// of the same class and across plan re-lowerings that leave the
    /// class declaration untouched.
    pub fn class_output_ordinal(&self, class: &PlanClass, name: &str) -> Option<u32> {
        self.class_outputs[class.outputs.as_range()]
            .iter()
            .position(|output| self.str(output.name) == name)
            .map(|i| i as u32)
    }

    /// [`Plan::class_output_ordinal`] comparing by interned id instead
    /// of by string (both ids must come from this plan's intern table).
    fn class_output_ordinal_by_id(&self, class: &PlanClass, name: StrId) -> Option<u32> {
        self.class_outputs[class.outputs.as_range()]
            .iter()
            .position(|output| output.name == name)
            .map(|i| i as u32)
    }

    /// The ordinal of a class's input-set signature by name — the dense
    /// `item` component of an input-binding fact key.
    pub fn class_set_ordinal(&self, class: &PlanClass, name: &str) -> Option<u32> {
        self.class_sets[class.sets.as_range()]
            .iter()
            .position(|set| self.str(set.name) == name)
            .map(|i| i as u32)
    }

    /// [`Plan::class_set_ordinal`] comparing by interned id.
    fn class_set_ordinal_by_id(&self, class: &PlanClass, name: StrId) -> Option<u32> {
        self.class_sets[class.sets.as_range()]
            .iter()
            .position(|set| set.name == name)
            .map(|i| i as u32)
    }

    /// The ordinal of object `name` within the declaration of `task`'s
    /// `item`-th input set (`is_input`) or output.
    fn decl_object_ordinal(
        &self,
        task: TaskId,
        is_input: bool,
        item: Option<u32>,
        name: StrId,
    ) -> Option<u32> {
        let objects = self.fact_decl_objects(task, is_input, item?)?;
        self.object_ordinal_in(objects, name)
    }

    /// The ordinal of an interned object name within a declared-objects
    /// range (the dense sub-key component of a per-object fact store).
    pub fn object_ordinal_in(&self, objects: Range32, name: StrId) -> Option<u32> {
        self.class_objects
            .get(objects.as_range())?
            .iter()
            .position(|sig| sig.name == name)
            .map(|i| i as u32)
    }

    /// The declared objects of the fact `(task, kind, item)` — the
    /// input-binding fact of `task`'s `item`-th declared input set when
    /// `is_input`, its `item`-th declared output's fact otherwise.
    /// Per-object fact stores name sub-keys by position in this range.
    pub fn fact_decl_objects(&self, task: TaskId, is_input: bool, item: u32) -> Option<Range32> {
        let task = self.tasks.get(task as usize)?;
        let class = self.classes.get(task.class as usize)?;
        if is_input {
            self.class_sets
                .get(class.sets.as_range())?
                .get(item as usize)
                .map(|set| set.objects)
        } else {
            self.class_outputs
                .get(class.outputs.as_range())?
                .get(item as usize)
                .map(|output| output.objects)
        }
    }

    /// Direct children of a scope task, in declaration order.
    pub fn children(&self, id: TaskId) -> &[TaskId] {
        &self.child_pool[self.tasks[id as usize].children.as_range()]
    }

    /// All descendants of a task (DFS pre-order, contiguous).
    pub fn subtree(&self, id: TaskId) -> std::ops::Range<TaskId> {
        (id + 1)..self.tasks[id as usize].subtree_end
    }

    /// Tasks and scopes that may become ready when `producer` publishes
    /// a fact (precomputed reverse dependency edges).
    pub fn consumers(&self, producer: TaskId) -> &[TaskId] {
        &self.rdep_pool[self.tasks[producer as usize].rdeps.as_range()]
    }

    /// The task's `code` implementation binding, if present.
    pub fn code(&self, task: &PlanTask) -> Option<&Arc<str>> {
        self.impl_kv[task.impl_kv.as_range()]
            .iter()
            .find(|(k, _)| self.str(*k) == "code")
            .map(|(_, v)| &self.strings[*v as usize])
    }

    /// The task's declared scheduling priority (`"priority"` in the
    /// implementation clause): higher-priority ready tasks dispatch
    /// first when contending for busy executors. Absent or unparsable
    /// values mean 0, so undeclared tasks keep declaration order.
    pub fn task_priority(&self, id: TaskId) -> i64 {
        self.tasks[id as usize].priority
    }

    /// One task's priority, parsed from its implementation pairs.
    fn derived_priority(&self, task: &PlanTask) -> i64 {
        self.impl_kv[task.impl_kv.as_range()]
            .iter()
            .find(|(k, _)| self.str(*k) == "priority")
            .and_then(|(_, v)| self.str(*v).parse().ok())
            .unwrap_or(0)
    }

    /// Fills every task's derived [`PlanTask::priority`] and
    /// [`PlanTask::implementation`].
    pub(crate) fn finish_implementations(&mut self) {
        let derived: Vec<(i64, BTreeMap<String, String>)> = self
            .tasks
            .iter()
            .map(|task| {
                let pairs = self.impl_kv[task.impl_kv.as_range()].iter();
                let owned =
                    pairs.map(|(k, v)| (self.str(*k).to_string(), self.str(*v).to_string()));
                (self.derived_priority(task), owned.collect())
            })
            .collect();
        for (task, (priority, implementation)) in self.tasks.iter_mut().zip(derived) {
            task.priority = priority;
            task.implementation = implementation;
        }
    }

    /// Fills [`Plan::activation_seeds`]. A requirement can be met at
    /// activation iff one of its sources is produced outside the scope's
    /// strict subtree — by the scope itself, or by a task that no longer
    /// exists.
    pub(crate) fn finish_activation_seeds(&mut self) {
        let seeds = |(id, scope): (usize, &PlanTask)| {
            let inside = |producer: TaskId| producer as usize > id && producer < scope.subtree_end;
            let met = |sources: Range32| {
                let mut sources = self.sources[sources.as_range()].iter();
                sources.any(|source| !source.producer.is_some_and(inside))
            };
            let open = |slots: Range32, notes: Range32| {
                self.slots[slots.as_range()]
                    .iter()
                    .all(|slot| met(slot.sources))
                    && self.notes[notes.as_range()]
                        .iter()
                        .all(|note| met(note.sources))
            };
            let startable = |child: &&TaskId| {
                let mut sets = self.sets[self.task(**child).sets.as_range()].iter();
                sets.any(|set| open(set.slots, set.notes))
            };
            let children = self.child_pool[scope.children.as_range()]
                .iter()
                .filter(startable);
            // (An empty mapping never fires.)
            let outputs = self.outputs[scope.outputs.as_range()].iter().any(|output| {
                output.slots.len() + output.notes.len() > 0 && open(output.slots, output.notes)
            });
            (children.copied().collect(), outputs)
        };
        self.activation_seeds = self.tasks.iter().enumerate().map(seeds).collect();
    }

    /// Interns every dependency source's and every dataflow slot's
    /// object name to its dense declared-object ordinal, and every
    /// source's probed fact to its ordinal in the producer's class
    /// ([`PlanSource::object_ordinal`], [`PlanSource::fact_ordinal`],
    /// [`Plan::any_obj_ordinals`], [`Plan::any_fact_ordinals`],
    /// [`PlanSlot::obj_ordinal`]).
    pub(crate) fn finish_object_ordinals(&mut self) {
        let mut src_ordinals = vec![(None, None); self.sources.len()];
        let mut any_ordinals = vec![(None, None); self.any_pool.len()];
        for (idx, source) in self.sources.iter().enumerate() {
            let Some(producer) = source.producer else {
                continue;
            };
            let class = self.class_of(self.task(producer));
            // The probed fact's ordinal, and the taken object's within
            // the fact's declaration.
            let ordinals = |item: Option<u32>, is_input: bool| {
                let object = source
                    .object
                    .and_then(|object| self.decl_object_ordinal(producer, is_input, item, object));
                (item, object)
            };
            match &source.cond {
                PlanCond::Input(set) => {
                    src_ordinals[idx] = ordinals(self.class_set_ordinal_by_id(class, *set), true);
                }
                PlanCond::Output(output) => {
                    let item = self.class_output_ordinal_by_id(class, *output);
                    src_ordinals[idx] = ordinals(item, false);
                }
                PlanCond::AnyOf(range) => {
                    for cand in range.iter() {
                        let item = self.class_output_ordinal_by_id(class, self.any_pool[cand]);
                        any_ordinals[cand] = ordinals(item, false);
                    }
                }
            }
        }
        for (source, (fact, object)) in self.sources.iter_mut().zip(src_ordinals) {
            source.fact_ordinal = fact;
            source.object_ordinal = object;
        }
        (self.any_fact_ordinals, self.any_obj_ordinals) = any_ordinals.into_iter().unzip();

        // Slots: binding slots resolve against the owning task's class
        // input-set signature, mapping slots against the owning scope's
        // class output declaration.
        let mut slot_ordinals: Vec<Option<u32>> = vec![None; self.slots.len()];
        for (id, task) in self.tasks.iter().enumerate() {
            let (id, class) = (id as TaskId, self.class_of(task));
            for set in &self.sets[task.sets.as_range()] {
                let item = self.class_set_ordinal_by_id(class, set.name);
                for slot_idx in set.slots.iter() {
                    let name = self.slots[slot_idx].name;
                    slot_ordinals[slot_idx] = self.decl_object_ordinal(id, true, item, name);
                }
            }
            for output in &self.outputs[task.outputs.as_range()] {
                let item = self.class_output_ordinal_by_id(class, output.name);
                for slot_idx in output.slots.iter() {
                    let name = self.slots[slot_idx].name;
                    slot_ordinals[slot_idx] = self.decl_object_ordinal(id, false, item, name);
                }
            }
        }
        for (slot, ordinal) in self.slots.iter_mut().zip(slot_ordinals) {
            slot.obj_ordinal = ordinal;
        }
    }

    /// Slash-joined paths of every task instance, depth first (same
    /// order and content as `Schema::task_paths`).
    pub fn task_paths(&self) -> Vec<String> {
        self.tasks[1..]
            .iter()
            .map(|task| self.str(task.path).to_string())
            .collect()
    }

    /// Number of leaf (externally implemented) tasks.
    pub fn leaf_count(&self) -> usize {
        self.tasks.iter().filter(|t| !t.is_scope).count()
    }
}

// ---------------------------------------------------------------------
// Encoding: the wire form the ledger's `plan.encoded_bytes` prices.
// Nothing decodes a plan: every plan is lowered from its source.
// ---------------------------------------------------------------------

fn kind_discriminant(kind: OutputKind) -> u8 {
    match kind {
        OutputKind::Outcome => 0,
        OutputKind::AbortOutcome => 1,
        OutputKind::RepeatOutcome => 2,
        OutputKind::Mark => 3,
    }
}

impl Encode for Range32 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_var_u64(u64::from(self.start));
        w.put_var_u64(u64::from(self.end));
    }
}

impl Encode for PlanTask {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.name);
        w.put_u32(self.path);
        w.put_u32(self.class);
        self.parent.encode(w);
        self.sets.encode(w);
        self.impl_kv.encode(w);
        self.children.encode(w);
        w.put_u32(self.subtree_end);
        self.outputs.encode(w);
        self.rdeps.encode(w);
        w.put_bool(self.is_scope);
    }
}

impl Encode for PlanInputSet {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.name);
        self.slots.encode(w);
        self.notes.encode(w);
        w.put_u64(self.required_mask);
    }
}

impl Encode for PlanSlot {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.name);
        w.put_u32(self.class);
        self.sources.encode(w);
    }
}

impl Encode for PlanNotification {
    fn encode(&self, w: &mut ByteWriter) {
        self.sources.encode(w);
    }
}

impl Encode for PlanCond {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            PlanCond::Input(set) => {
                w.put_u8(0);
                w.put_u32(*set);
            }
            PlanCond::Output(output) => {
                w.put_u8(1);
                w.put_u32(*output);
            }
            PlanCond::AnyOf(range) => {
                w.put_u8(2);
                range.encode(w);
            }
        }
    }
}

impl Encode for PlanSource {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.producer_path);
        self.producer.encode(w);
        self.object.encode(w);
        self.cond.encode(w);
    }
}

impl Encode for PlanOutput {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.name);
        w.put_u8(kind_discriminant(self.kind));
        self.slots.encode(w);
        self.notes.encode(w);
    }
}

impl Encode for PlanClass {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.name);
        self.sets.encode(w);
        self.outputs.encode(w);
        w.put_bool(self.atomic);
    }
}

impl Encode for PlanClassSet {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.name);
        self.objects.encode(w);
    }
}

impl Encode for PlanClassOutput {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.name);
        w.put_u8(kind_discriminant(self.kind));
        self.objects.encode(w);
    }
}

impl Encode for PlanObjectSig {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.name);
        w.put_u32(self.class);
    }
}

impl Encode for Plan {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.strings.len());
        self.strings.iter().for_each(|s| w.put_str(s));
        self.object_classes.encode(w);
        self.classes.encode(w);
        self.class_sets.encode(w);
        self.class_outputs.encode(w);
        self.class_objects.encode(w);
        self.tasks.encode(w);
        self.sets.encode(w);
        self.slots.encode(w);
        self.notes.encode(w);
        self.sources.encode(w);
        self.any_pool.encode(w);
        self.outputs.encode(w);
        self.impl_kv.encode(w);
        self.child_pool.encode(w);
        self.rdep_pool.encode(w);
        self.path_index.encode(w);
        self.class_index.encode(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order_plan() -> Plan {
        let schema = flowscript_core::schema::compile_source(
            flowscript_core::samples::ORDER_PROCESSING,
            "processOrderApplication",
        )
        .unwrap();
        Plan::lower(&schema)
    }

    #[test]
    fn lowering_interns_object_ordinals() {
        let plan = order_plan();
        // Every dataflow source that survives to a live producer has its
        // probed object interned to a declared ordinal; notifications
        // never do.
        for source in &plan.sources {
            match (&source.cond, source.object, source.producer) {
                (PlanCond::AnyOf(_), _, _) => {}
                (_, Some(_), Some(_)) => assert!(
                    source.object_ordinal.is_some(),
                    "unresolved ordinal for {}",
                    plan.str(source.producer_path)
                ),
                (_, None, _) => assert_eq!(source.object_ordinal, None),
                _ => {}
            }
        }
        assert_eq!(plan.any_obj_ordinals.len(), plan.any_pool.len());
        assert_eq!(plan.any_fact_ordinals.len(), plan.any_pool.len());
        // Binding/mapping slots intern too, and the ordinal names the
        // same object the declaration does.
        for slot in &plan.slots {
            let ordinal = slot.obj_ordinal.expect("slot names a declared object");
            let _ = ordinal;
        }
        // Every live source and candidate of every sample probes the
        // fact its class names by ordinal: the set's or the output's,
        // looked up by name.
        for (sample, source) in flowscript_core::samples::all() {
            let root = flowscript_core::samples::root_of(sample);
            let schema = flowscript_core::schema::compile_source(source, root).unwrap();
            let plan = Plan::lower(&schema);
            for source in &plan.sources {
                let Some(producer) = source.producer else {
                    assert_eq!(source.fact_ordinal, None);
                    continue;
                };
                let class = plan.class_of(plan.task(producer));
                match &source.cond {
                    PlanCond::Input(set) => assert_eq!(
                        source.fact_ordinal,
                        plan.class_set_ordinal(class, plan.str(*set)),
                        "{sample}: set `{}`",
                        plan.str(*set)
                    ),
                    PlanCond::Output(output) => assert_eq!(
                        source.fact_ordinal,
                        plan.class_output_ordinal(class, plan.str(*output)),
                        "{sample}: output `{}`",
                        plan.str(*output)
                    ),
                    PlanCond::AnyOf(range) => {
                        assert_eq!(source.fact_ordinal, None);
                        for cand in range.iter() {
                            let name = plan.str(plan.any_pool[cand]);
                            let ordinal = plan.class_output_ordinal(class, name);
                            assert_eq!(plan.any_fact_ordinals[cand], ordinal, "{sample}: `{name}`");
                        }
                    }
                }
                if !matches!(source.cond, PlanCond::AnyOf(_)) {
                    assert!(
                        source.fact_ordinal.is_some(),
                        "{sample}: a live source resolves"
                    );
                }
            }
        }
    }

    #[test]
    fn fact_decl_objects_names_sub_keys() {
        let plan = order_plan();
        let check = plan
            .task_by_path("processOrderApplication/checkStock")
            .unwrap();
        let class = plan.class_of(plan.task(check));
        let item = plan.class_output_ordinal(class, "stockAvailable").unwrap();
        let objects = plan.fact_decl_objects(check, false, item).unwrap();
        let names: Vec<&str> = objects
            .iter()
            .map(|i| plan.str(plan.class_objects[i].name))
            .collect();
        assert_eq!(names, vec!["stockInfo"]);
        // Out-of-range queries degrade to None instead of panicking.
        assert_eq!(plan.fact_decl_objects(check, false, 10_000), None);
        assert_eq!(plan.fact_decl_objects(10_000, true, 0), None);
    }
}
