//! Lowering: `Schema` → [`Plan`].
//!
//! One pass interns every name, flattens the scope tree into DFS
//! pre-order, precomputes absolute producer paths for every dependency
//! source, then back-links reverse dependency edges.

use std::collections::BTreeMap;
use std::sync::Arc;

use flowscript_core::schema::{
    CompiledCond, CompiledInputSet, CompiledNotification, CompiledObjectSlot, CompiledScope,
    CompiledSource, CompiledTask, Schema, TaskBody,
};

use crate::ir::{
    ClassId, Plan, PlanClass, PlanClassOutput, PlanClassSet, PlanCond, PlanInputSet,
    PlanNotification, PlanObjectSig, PlanOutput, PlanSlot, PlanSource, PlanTask, Range32, StrId,
    TaskId,
};

#[derive(Default)]
struct Interner {
    strings: Vec<Arc<str>>,
    lookup: BTreeMap<Arc<str>, StrId>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> StrId {
        if let Some(id) = self.lookup.get(s) {
            return *id;
        }
        let id = self.strings.len() as StrId;
        let shared: Arc<str> = Arc::from(s);
        self.strings.push(shared.clone());
        self.lookup.insert(shared, id);
        id
    }
}

struct Lowerer {
    interner: Interner,
    plan: Plan,
}

impl Plan {
    /// Lowers a compiled schema into a dense execution plan.
    ///
    /// Lowering is total for any schema the front end accepts: unknown
    /// classes or unresolvable sources were already rejected by
    /// `schema::compile`.
    pub fn lower(schema: &Schema) -> Plan {
        let mut lowerer = Lowerer {
            interner: Interner::default(),
            plan: Plan {
                strings: Vec::new(),
                object_classes: Vec::new(),
                classes: Vec::new(),
                class_sets: Vec::new(),
                class_outputs: Vec::new(),
                class_objects: Vec::new(),
                tasks: Vec::new(),
                sets: Vec::new(),
                slots: Vec::new(),
                notes: Vec::new(),
                sources: Vec::new(),
                any_pool: Vec::new(),
                any_obj_ordinals: Vec::new(),
                any_fact_ordinals: Vec::new(),
                outputs: Vec::new(),
                impl_kv: Vec::new(),
                child_pool: Vec::new(),
                rdep_pool: Vec::new(),
                activation_seeds: Vec::new(),
                path_index: BTreeMap::new(),
                class_index: BTreeMap::new(),
            },
        };
        lowerer.lower_classes(schema);
        lowerer.lower_root(&schema.root);
        lowerer.link_rdeps();
        let mut plan = lowerer.plan;
        plan.strings = lowerer.interner.strings;
        plan.finish_implementations();
        plan.finish_object_ordinals();
        plan.finish_activation_seeds();
        plan
    }
}

impl Lowerer {
    fn lower_classes(&mut self, schema: &Schema) {
        for class in &schema.classes {
            let id = self.interner.intern(class);
            self.plan.object_classes.push(id);
        }
        for (name, info) in &schema.task_classes {
            let sets_start = self.plan.class_sets.len() as u32;
            for set in &info.input_sets {
                let objects = self.lower_object_sigs(&set.objects);
                let name = self.interner.intern(&set.name);
                self.plan.class_sets.push(PlanClassSet { name, objects });
            }
            let sets = Range32 {
                start: sets_start,
                end: self.plan.class_sets.len() as u32,
            };
            let outputs_start = self.plan.class_outputs.len() as u32;
            for output in &info.outputs {
                let objects = self.lower_object_sigs(&output.objects);
                let name = self.interner.intern(&output.name);
                self.plan.class_outputs.push(PlanClassOutput {
                    name,
                    kind: output.kind,
                    objects,
                });
            }
            let outputs = Range32 {
                start: outputs_start,
                end: self.plan.class_outputs.len() as u32,
            };
            let class_id = self.plan.classes.len() as ClassId;
            let name_id = self.interner.intern(name);
            self.plan.classes.push(PlanClass {
                name: name_id,
                sets,
                outputs,
                atomic: info.atomic,
            });
            self.plan.class_index.insert(name.clone(), class_id);
        }
    }

    fn lower_object_sigs(&mut self, sigs: &[flowscript_core::schema::ObjectInfo]) -> Range32 {
        let start = self.plan.class_objects.len() as u32;
        for sig in sigs {
            let name = self.interner.intern(&sig.name);
            let class = self.interner.intern(&sig.class);
            self.plan.class_objects.push(PlanObjectSig { name, class });
        }
        Range32 {
            start,
            end: self.plan.class_objects.len() as u32,
        }
    }

    fn class_id(&self, name: &str) -> ClassId {
        // `schema::compile` guarantees every referenced class exists;
        // tolerate absent ones (defensive) by pointing past the end.
        self.plan
            .class_index
            .get(name)
            .copied()
            .unwrap_or(self.plan.classes.len() as ClassId)
    }

    fn lower_root(&mut self, root: &CompiledScope) {
        let name = self.interner.intern(&root.name);
        let class = self.class_id(&root.class);
        self.plan.tasks.push(PlanTask {
            name,
            path: name,
            class,
            parent: None,
            sets: Range32::EMPTY,
            impl_kv: Range32::EMPTY,
            children: Range32::EMPTY,
            subtree_end: 1,
            outputs: Range32::EMPTY,
            rdeps: Range32::EMPTY,
            is_scope: true,
            priority: 0,                     // derived; filled by finish_implementations
            implementation: BTreeMap::new(), // derived, the same
        });
        self.plan.path_index.insert(root.name.clone(), 0);
        self.lower_scope_body(0, root, &root.name.clone());
    }

    /// Lowers a scope's constituents and output mappings into the task
    /// at `scope_id` (whose `name`/`path`/`class`/`sets` were already
    /// filled by the caller).
    fn lower_scope_body(&mut self, scope_id: TaskId, scope: &CompiledScope, scope_path: &str) {
        // Constituents: reserve one slot per child in DFS pre-order.
        let mut child_ids = Vec::with_capacity(scope.tasks.len());
        for task in &scope.tasks {
            let child_id = self.lower_task(scope_id, task, scope_path);
            child_ids.push(child_id);
        }
        let children = self.push_children(&child_ids);
        // Output mappings are evaluated against the scope's own path.
        let outputs_start = self.plan.outputs.len() as u32;
        for output in &scope.outputs {
            let slots = self.lower_slots(&output.objects, scope_path);
            let notes = self.lower_notes(&output.notifications, scope_path);
            let name = self.interner.intern(&output.name);
            self.plan.outputs.push(PlanOutput {
                name,
                kind: output.kind,
                slots,
                notes,
            });
        }
        let outputs_end = self.plan.outputs.len() as u32;
        let subtree_end = self.plan.tasks.len() as TaskId;
        let task = &mut self.plan.tasks[scope_id as usize];
        task.children = children;
        task.outputs = Range32 {
            start: outputs_start,
            end: outputs_end,
        };
        task.subtree_end = subtree_end;
    }

    fn lower_task(&mut self, parent: TaskId, task: &CompiledTask, scope_path: &str) -> TaskId {
        let path = format!("{scope_path}/{}", task.name);
        let name = self.interner.intern(&task.name);
        let path_id = self.interner.intern(&path);
        let class = self.class_id(&task.class);
        // The task's own input sets are evaluated against the
        // *enclosing* scope's path.
        let sets = self.lower_input_sets(&task.input_sets, scope_path);
        let impl_start = self.plan.impl_kv.len() as u32;
        for (key, value) in &task.implementation {
            let key = self.interner.intern(key);
            let value = self.interner.intern(value);
            self.plan.impl_kv.push((key, value));
        }
        let impl_kv = Range32 {
            start: impl_start,
            end: self.plan.impl_kv.len() as u32,
        };
        let id = self.plan.tasks.len() as TaskId;
        self.plan.tasks.push(PlanTask {
            name,
            path: path_id,
            class,
            parent: Some(parent),
            sets,
            impl_kv,
            children: Range32::EMPTY,
            subtree_end: id + 1,
            outputs: Range32::EMPTY,
            rdeps: Range32::EMPTY,
            is_scope: matches!(task.body, TaskBody::Scope(_)),
            priority: 0,                     // derived; filled by finish_implementations
            implementation: BTreeMap::new(), // derived, the same
        });
        self.plan.path_index.insert(path.clone(), id);
        if let TaskBody::Scope(inner) = &task.body {
            self.lower_scope_body(id, inner, &path);
        }
        id
    }

    fn lower_input_sets(&mut self, sets: &[CompiledInputSet], scope_path: &str) -> Range32 {
        // Slots and notes are appended per set, then the set records its
        // ranges; sets themselves must stay contiguous per task, so
        // lower slot/note pools first and sets after.
        let mut lowered = Vec::with_capacity(sets.len());
        for set in sets {
            let slots = self.lower_slots(&set.objects, scope_path);
            let notes = self.lower_notes(&set.notifications, scope_path);
            let name = self.interner.intern(&set.name);
            lowered.push(PlanInputSet {
                name,
                slots,
                notes,
                required_mask: required_mask(slots.len() + notes.len()),
            });
        }
        let start = self.plan.sets.len() as u32;
        self.plan.sets.extend(lowered);
        Range32 {
            start,
            end: self.plan.sets.len() as u32,
        }
    }

    fn lower_slots(&mut self, slots: &[CompiledObjectSlot], scope_path: &str) -> Range32 {
        let mut lowered = Vec::with_capacity(slots.len());
        for slot in slots {
            let sources = self.lower_sources(&slot.sources, scope_path);
            let name = self.interner.intern(&slot.name);
            let class = self.interner.intern(&slot.class);
            lowered.push(PlanSlot {
                name,
                class,
                sources,
                obj_ordinal: None, // derived; filled by finish_object_ordinals
            });
        }
        let start = self.plan.slots.len() as u32;
        self.plan.slots.extend(lowered);
        Range32 {
            start,
            end: self.plan.slots.len() as u32,
        }
    }

    fn lower_notes(&mut self, notes: &[CompiledNotification], scope_path: &str) -> Range32 {
        let mut lowered = Vec::with_capacity(notes.len());
        for note in notes {
            let sources = self.lower_sources(&note.sources, scope_path);
            lowered.push(PlanNotification { sources });
        }
        let start = self.plan.notes.len() as u32;
        self.plan.notes.extend(lowered);
        Range32 {
            start,
            end: self.plan.notes.len() as u32,
        }
    }

    fn lower_sources(&mut self, sources: &[CompiledSource], scope_path: &str) -> Range32 {
        let start = self.plan.sources.len() as u32;
        for source in sources {
            let producer_path = if source.is_self {
                scope_path.to_string()
            } else {
                format!("{scope_path}/{}", source.task)
            };
            let cond = match &source.cond {
                CompiledCond::Input(set) => PlanCond::Input(self.interner.intern(set)),
                CompiledCond::Output(output) => PlanCond::Output(self.interner.intern(output)),
                CompiledCond::AnyOf(outputs) => {
                    let pool_start = self.plan.any_pool.len() as u32;
                    for output in outputs {
                        let id = self.interner.intern(output);
                        self.plan.any_pool.push(id);
                    }
                    PlanCond::AnyOf(Range32 {
                        start: pool_start,
                        end: self.plan.any_pool.len() as u32,
                    })
                }
            };
            let producer_path_id = self.interner.intern(&producer_path);
            let object = source.object.as_ref().map(|o| self.interner.intern(o));
            self.plan.sources.push(PlanSource {
                producer_path: producer_path_id,
                // Resolved in `link_rdeps` once every task id exists.
                producer: None,
                object,
                cond,
                // Derived; filled by `finish_object_ordinals`.
                object_ordinal: None,
                fact_ordinal: None,
            });
        }
        Range32 {
            start,
            end: self.plan.sources.len() as u32,
        }
    }

    fn push_children(&mut self, child_ids: &[TaskId]) -> Range32 {
        let start = self.plan.child_pool.len() as u32;
        self.plan.child_pool.extend_from_slice(child_ids);
        Range32 {
            start,
            end: self.plan.child_pool.len() as u32,
        }
    }

    /// Resolves every source's producer id and builds the reverse
    /// dependency edges (producer → consumers to re-check).
    fn link_rdeps(&mut self) {
        // Source index → consuming task (the task whose input sets, or
        // whose scope outputs, the source belongs to).
        let mut consumer_of_source: Vec<Option<TaskId>> = vec![None; self.plan.sources.len()];
        let mark = |consumer_of_source: &mut Vec<Option<TaskId>>,
                    plan: &Plan,
                    slots: Range32,
                    notes: Range32,
                    consumer: TaskId| {
            for slot_idx in slots.iter() {
                for src_idx in plan.slots[slot_idx].sources.iter() {
                    consumer_of_source[src_idx] = Some(consumer);
                }
            }
            for note_idx in notes.iter() {
                for src_idx in plan.notes[note_idx].sources.iter() {
                    consumer_of_source[src_idx] = Some(consumer);
                }
            }
        };
        for id in 0..self.plan.tasks.len() as TaskId {
            let task = &self.plan.tasks[id as usize];
            let (sets, outputs) = (task.sets, task.outputs);
            for set_idx in sets.iter() {
                let (slots, notes) = {
                    let set = &self.plan.sets[set_idx];
                    (set.slots, set.notes)
                };
                mark(&mut consumer_of_source, &self.plan, slots, notes, id);
            }
            for out_idx in outputs.iter() {
                let (slots, notes) = {
                    let output = &self.plan.outputs[out_idx];
                    (output.slots, output.notes)
                };
                mark(&mut consumer_of_source, &self.plan, slots, notes, id);
            }
        }
        // Resolve producers and collect edges.
        let mut edges: Vec<Vec<TaskId>> = vec![Vec::new(); self.plan.tasks.len()];
        for (src_idx, consumer) in consumer_of_source.iter().enumerate() {
            let producer_path = self.plan.sources[src_idx].producer_path;
            let producer = self
                .plan
                .path_index
                .get(&*self.interner.strings[producer_path as usize])
                .copied();
            self.plan.sources[src_idx].producer = producer;
            if let (Some(producer), Some(consumer)) = (producer, consumer) {
                edges[producer as usize].push(*consumer);
            }
        }
        for (producer, mut consumers) in edges.into_iter().enumerate() {
            consumers.sort_unstable();
            consumers.dedup();
            let start = self.plan.rdep_pool.len() as u32;
            self.plan.rdep_pool.extend(consumers);
            self.plan.tasks[producer].rdeps = Range32 {
                start,
                end: self.plan.rdep_pool.len() as u32,
            };
        }
    }
}

/// One bit per requirement, saturated past 64.
fn required_mask(requirements: usize) -> u64 {
    if requirements >= 64 {
        u64::MAX
    } else {
        (1u64 << requirements) - 1
    }
}
