//! Plan-based dependency evaluation and the worklist evaluator.
//!
//! Semantics are identical to the schema interpreter kept beside the
//! proptest that holds this module to it (`tests/deps/`): an input set is satisfied when every object slot has an
//! available source and every notification has fired; alternatives are
//! tried in declaration order; the first-declared satisfied input set
//! wins; compound outputs are evaluated in declaration order and an
//! empty mapping never fires. The difference is mechanical: every fact
//! probe is identified by a *plan index* ([`Probe`]) with its producer
//! path and fact name pre-interned, so an indexed fact store resolves
//! probes with integer lookups and a name-keyed store with borrowed
//! strings — neither formats a string or walks the scope tree.
//!
//! [`Worklist`] is the event-driven half: instead of re-scanning every
//! task after each committed fact, the coordinator seeds a worklist
//! from the plan's reverse dependency edges ([`Plan::consumers`]) plus
//! the compound-boundary edges (a freshly activated scope enables its
//! constituents), and drains it to quiescence. Per-commit work then
//! scales with the fan-out of the changed task, not the instance size.

use std::collections::BTreeSet;

use crate::ir::{Plan, PlanCond, PlanInputSet, PlanOutput, PlanSlot, Range32, StrId, TaskId};

/// Bound objects: `(slot name id, value)` pairs in declaration order.
pub type Bound<F> = Vec<(StrId, <F as PlanFacts>::Value)>;

/// One fact probe, identified both densely and by name.
///
/// `source` (and `candidate`, for `AnyOf` conditions) pin down exactly
/// which plan dependency edge is being tested — an indexed fact store
/// resolves them through the plan's derived ordinals
/// ([`PlanSource::fact_ordinal`](crate::ir::PlanSource::fact_ordinal))
/// and never touches the strings. `producer` and `name` carry the same identity for
/// name-keyed stores (tests, benches, the schema-interpreting oracle);
/// both are borrowed from the plan's intern table, never formatted.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'p> {
    /// Index into [`Plan::sources`] of the probed dependency edge.
    pub source: u32,
    /// Index into [`Plan::any_pool`] when probing one `AnyOf` candidate.
    pub candidate: Option<u32>,
    /// The producing task's absolute path (interned).
    pub producer: &'p str,
    /// The probed input-set or output name (interned).
    pub name: &'p str,
    /// `true` for an input-binding fact, `false` for an output fact.
    pub is_input: bool,
}

/// Read access to published facts.
///
/// Mirrors the reference interpreter's `FactView`, but asks for one
/// object at a time, and probes arrive pre-resolved: the engine's
/// tx-backed view (`StoreFacts`) stores facts per object and answers
/// each probe with a point read of exactly that object's bytes under the
/// dense key the plan's derived ordinals give.
pub trait PlanFacts {
    /// The object value type (the engine's `ObjectVal`).
    type Value;

    /// The named object of the probed fact, if that fact was published
    /// and carries the object.
    fn fact_object(&self, probe: Probe<'_>, object: &str) -> Option<Self::Value>;

    /// Whether the probed fact exists.
    fn fact_fired(&self, probe: Probe<'_>) -> bool;
}

/// Builds the probe for one source (with no `AnyOf` candidate chosen).
fn source_probe<'p>(plan: &'p Plan, src_idx: usize, name: StrId, is_input: bool) -> Probe<'p> {
    let source = &plan.sources[src_idx];
    Probe {
        source: src_idx as u32,
        candidate: None,
        producer: plan.str(source.producer_path),
        name: plan.str(name),
        is_input,
    }
}

/// Resolves one slot: the first available alternative's value.
pub fn resolve_slot<F: PlanFacts>(plan: &Plan, slot: &PlanSlot, facts: &F) -> Option<F::Value> {
    for src_idx in slot.sources.iter() {
        let source = &plan.sources[src_idx];
        let Some(object) = source.object else {
            continue;
        };
        let object = plan.str(object);
        let value = match &source.cond {
            PlanCond::Input(set) => {
                facts.fact_object(source_probe(plan, src_idx, *set, true), object)
            }
            PlanCond::Output(output) => {
                facts.fact_object(source_probe(plan, src_idx, *output, false), object)
            }
            // Reference semantics (`resolve_object_source` in
            // `tests/deps/`): the first *fired* candidate is committed
            // to, even when that fact does not carry the object — later
            // candidates must not be consulted.
            PlanCond::AnyOf(candidates) => candidates
                .iter()
                .map(|cand_idx| Probe {
                    source: src_idx as u32,
                    candidate: Some(cand_idx as u32),
                    producer: plan.str(source.producer_path),
                    name: plan.str(plan.any_pool[cand_idx]),
                    is_input: false,
                })
                .find(|probe| facts.fact_fired(*probe))
                .and_then(|probe| facts.fact_object(probe, object)),
        };
        if value.is_some() {
            return value;
        }
    }
    None
}

/// Whether any source of a notification has fired.
pub fn notification_fired<F: PlanFacts>(plan: &Plan, sources: Range32, facts: &F) -> bool {
    sources.iter().any(|src_idx| {
        let source = &plan.sources[src_idx];
        match &source.cond {
            PlanCond::Input(set) => facts.fact_fired(source_probe(plan, src_idx, *set, true)),
            PlanCond::Output(output) => {
                facts.fact_fired(source_probe(plan, src_idx, *output, false))
            }
            PlanCond::AnyOf(candidates) => candidates.iter().any(|cand_idx| {
                facts.fact_fired(Probe {
                    source: src_idx as u32,
                    candidate: Some(cand_idx as u32),
                    producer: plan.str(source.producer_path),
                    name: plan.str(plan.any_pool[cand_idx]),
                    is_input: false,
                })
            }),
        }
    })
}

/// Tries to satisfy one input set; `Some(bound (name, value) pairs)` on
/// success (slot declaration order).
pub fn eval_input_set<F: PlanFacts>(
    plan: &Plan,
    set: &PlanInputSet,
    facts: &F,
) -> Option<Bound<F>> {
    let mut bound = Vec::new();
    for slot_idx in set.slots.iter() {
        let slot = &plan.slots[slot_idx];
        let value = resolve_slot(plan, slot, facts)?;
        // Sized once the first slot resolves: an unsatisfied first slot
        // costs no allocation.
        bound.reserve_exact(set.slots.len() - bound.len());
        bound.push((slot.name, value));
    }
    for note_idx in set.notes.iter() {
        if !notification_fired(plan, plan.notes[note_idx].sources, facts) {
            return None;
        }
    }
    Some(bound)
}

/// The first satisfied input set of a task, in declaration order.
/// Returns the set's name id and bound objects.
pub fn eval_task_inputs<F: PlanFacts>(
    plan: &Plan,
    task: TaskId,
    facts: &F,
) -> Option<(StrId, Bound<F>)> {
    let task = plan.task(task);
    for set_idx in task.sets.iter() {
        let set = &plan.sets[set_idx];
        if let Some(bound) = eval_input_set(plan, set, facts) {
            return Some((set.name, bound));
        }
    }
    None
}

/// The availability bitmask of an input set: bit `i` set when the
/// `i`-th requirement (slots first, then notifications) is currently
/// met. The set is satisfied **iff** this equals
/// [`PlanInputSet::required_mask`]: for sets with more than 64
/// requirements, bit 63 aggregates the conjunction of requirements
/// `63..n`, keeping the equality contract exact. Unlike
/// [`eval_input_set`] this does not short-circuit — it reports *which*
/// requirements are pending, for diagnostics (the coordinator's stuck
/// reports) and monitoring. For an exact met-count of a large set use
/// [`met_requirements`].
pub fn satisfaction_mask<F: PlanFacts>(plan: &Plan, set: &PlanInputSet, facts: &F) -> u64 {
    let total = set.requirement_count();
    let mut mask = 0u64;
    let mut tail_all_met = true;
    for (bit, met) in requirement_availability(plan, set, facts).enumerate() {
        if total <= 64 || bit < 63 {
            if met {
                mask |= 1 << bit;
            }
        } else {
            tail_all_met &= met;
        }
    }
    if total > 64 && tail_all_met {
        mask |= 1 << 63;
    }
    mask
}

/// How many of an input set's requirements are currently met, exactly
/// (no 64-bit cap) — the diagnostics companion to
/// [`satisfaction_mask`].
pub fn met_requirements<F: PlanFacts>(plan: &Plan, set: &PlanInputSet, facts: &F) -> usize {
    requirement_availability(plan, set, facts)
        .filter(|met| *met)
        .count()
}

/// Per-requirement availability (slots first, then notifications) in
/// declaration order.
fn requirement_availability<'a, F: PlanFacts>(
    plan: &'a Plan,
    set: &PlanInputSet,
    facts: &'a F,
) -> impl Iterator<Item = bool> + 'a {
    let slots = set.slots;
    let notes = set.notes;
    slots
        .iter()
        .map(move |slot_idx| resolve_slot(plan, &plan.slots[slot_idx], facts).is_some())
        .chain(
            notes
                .iter()
                .map(move |note_idx| notification_fired(plan, plan.notes[note_idx].sources, facts)),
        )
}

/// Evaluates one output mapping (an empty mapping never fires).
pub fn eval_output<F: PlanFacts>(plan: &Plan, output: &PlanOutput, facts: &F) -> Option<Bound<F>> {
    if output.slots.is_empty() && output.notes.is_empty() {
        return None;
    }
    let mut mapped = Vec::new();
    for slot_idx in output.slots.iter() {
        let slot = &plan.slots[slot_idx];
        let value = resolve_slot(plan, slot, facts)?;
        // As in `eval_input_set`: sized once the first slot resolves.
        mapped.reserve_exact(output.slots.len() - mapped.len());
        mapped.push((slot.name, value));
    }
    for note_idx in output.notes.iter() {
        if !notification_fired(plan, plan.notes[note_idx].sources, facts) {
            return None;
        }
    }
    Some(mapped)
}

/// All currently satisfied outputs of a scope task, in declaration
/// order, as `(output pool index, mapped objects)`.
pub fn eval_scope_outputs<F: PlanFacts>(
    plan: &Plan,
    scope: TaskId,
    facts: &F,
) -> Vec<(usize, Bound<F>)> {
    let scope = plan.task(scope);
    scope
        .outputs
        .iter()
        .filter_map(|out_idx| {
            eval_output(plan, &plan.outputs[out_idx], facts).map(|mapped| (out_idx, mapped))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Worklist re-evaluation.
// ---------------------------------------------------------------------

/// The re-evaluation worklist driving event-driven commits.
///
/// Two ordered agendas:
///
/// - **start**: task ids whose input-set satisfaction must be
///   re-tested (they may have become startable),
/// - **outputs**: scope ids whose output mappings must be re-tested
///   (a mark, repeat or terminal outcome may have become satisfied).
///
/// Seeding rules encode the plan's dependency structure:
///
/// - [`Worklist::seed_commit`]: a task published a fact (bound an
///   input set or produced an output) — every consumer on its reverse
///   dependency edges is re-checked; consumers that are scopes also
///   re-check their outputs (a scope consumes either through a
///   constituent's input set or through its own output mapping, and
///   the edges do not distinguish the two),
/// - [`Worklist::seed_children`]: a compound activated (or
///   re-activated after a repeat) — the compound boundary enables the
///   direct constituents that can start before any sibling has produced
///   anything ([`Plan::activation_seeds`]), including those with
///   *empty* input sets that no reverse edge will ever point at; the
///   rest are reached from their producers' commits, and nested
///   compounds enable their own constituents when they activate in turn,
/// - [`Worklist::seed_all`]: the full scan, kept for repair and
///   reconfiguration re-entry (where a fact has no commit to seed from,
///   or the plan itself changed under the instance); crash recovery and
///   adoption seed nothing, since committed state is quiescent.
///
/// Draining pops **all** start work before any output work (a
/// constituent that can start must start before its scope considers
/// terminating, matching the engine's fixpoint precedence), and output
/// work deepest-scope-first (an inner compound's outcome feeds outer
/// mappings). Start work is ordered by declared **priority** (highest
/// first; the implementation clause's `"priority"` pair), ties by
/// ascending id — so when several ready tasks contend for busy
/// executors, the high-priority one dispatches first.
#[derive(Debug, Default, Clone)]
pub struct Worklist {
    /// Keyed `(Reverse(priority), id)`: iteration order is the
    /// dispatch order.
    start: BTreeSet<(std::cmp::Reverse<i64>, TaskId)>,
    outputs: BTreeSet<TaskId>,
}

impl Worklist {
    /// An empty worklist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no work remains.
    pub fn is_empty(&self) -> bool {
        self.start.is_empty() && self.outputs.is_empty()
    }

    /// Queued entries (diagnostics).
    pub fn len(&self) -> usize {
        self.start.len() + self.outputs.len()
    }

    /// Re-check one task's input sets (and outputs, for a scope).
    pub fn push_task(&mut self, plan: &Plan, task: TaskId) {
        if plan.task(task).parent.is_some() {
            self.start
                .insert((std::cmp::Reverse(plan.task_priority(task)), task));
        }
        if plan.task(task).is_scope {
            self.outputs.insert(task);
        }
    }

    /// Seeds every consumer that may become ready now that `changed`
    /// has published a fact (reverse dependency + notification edges).
    pub fn seed_commit(&mut self, plan: &Plan, changed: TaskId) {
        for &consumer in plan.consumers(changed) {
            self.push_task(plan, consumer);
        }
    }

    /// Seeds the compound boundary of a freshly (re)activated scope —
    /// its subtree holds no fact yet: the constituents, and the scope's
    /// own outputs, only where facts from outside the subtree can
    /// satisfy them.
    pub fn seed_children(&mut self, plan: &Plan, scope: TaskId) {
        let (children, outputs) = &plan.activation_seeds[scope as usize];
        for &child in children {
            self.start
                .insert((std::cmp::Reverse(plan.task_priority(child)), child));
        }
        if *outputs {
            self.outputs.insert(scope);
        }
    }

    /// Seeds everything — the full scan for repair and reconfiguration.
    pub fn seed_all(&mut self, plan: &Plan) {
        for id in 0..plan.tasks.len() as TaskId {
            self.push_task(plan, id);
        }
    }

    /// Next task whose input sets need re-testing: highest declared
    /// priority first, ties by ascending id (DFS pre-order, so
    /// declaration order within a scope).
    pub fn pop_start(&mut self) -> Option<TaskId> {
        let key = *self.start.iter().next()?;
        self.start.remove(&key);
        Some(key.1)
    }

    /// Next scope whose outputs need re-testing, deepest first: a
    /// scope is deferred while any queued scope lies inside its
    /// subtree (DFS pre-order makes that one ordered range probe).
    pub fn pop_output(&mut self, plan: &Plan) -> Option<TaskId> {
        let mut current = *self.outputs.iter().next()?;
        loop {
            let end = plan.task(current).subtree_end;
            match self.outputs.range(current + 1..end).next() {
                Some(&deeper) => current = deeper,
                None => break,
            }
        }
        self.outputs.remove(&current);
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A tiny string-keyed fact store for unit tests.
    #[derive(Default)]
    pub struct MemFacts {
        outputs: BTreeMap<(String, String), BTreeMap<String, String>>,
        inputs: BTreeMap<(String, String), BTreeMap<String, String>>,
    }

    impl MemFacts {
        fn add_output(&mut self, path: &str, output: &str, objects: &[(&str, &str)]) {
            self.outputs.insert(
                (path.into(), output.into()),
                objects
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                    .collect(),
            );
        }

        fn add_input(&mut self, path: &str, set: &str, objects: &[(&str, &str)]) {
            self.inputs.insert(
                (path.into(), set.into()),
                objects
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                    .collect(),
            );
        }
    }

    impl PlanFacts for MemFacts {
        type Value = String;

        fn fact_object(&self, probe: Probe<'_>, object: &str) -> Option<String> {
            let map = if probe.is_input {
                &self.inputs
            } else {
                &self.outputs
            };
            map.get(&(probe.producer.to_string(), probe.name.to_string()))
                .and_then(|objects| objects.get(object).cloned())
        }

        fn fact_fired(&self, probe: Probe<'_>) -> bool {
            let map = if probe.is_input {
                &self.inputs
            } else {
                &self.outputs
            };
            map.contains_key(&(probe.producer.to_string(), probe.name.to_string()))
        }
    }

    fn order_plan() -> Plan {
        let schema = flowscript_core::schema::compile_source(
            flowscript_core::samples::ORDER_PROCESSING,
            "processOrderApplication",
        )
        .unwrap();
        Plan::lower(&schema)
    }

    #[test]
    fn readiness_progression_matches_paper_pipeline() {
        let plan = order_plan();
        let scope = "processOrderApplication";
        let auth = plan
            .task_by_path(&format!("{scope}/paymentAuthorisation"))
            .unwrap();
        let dispatch = plan.task_by_path(&format!("{scope}/dispatch")).unwrap();
        let mut facts = MemFacts::default();

        assert!(eval_task_inputs(&plan, auth, &facts).is_none());
        facts.add_input(scope, "main", &[("order", "o-1")]);
        let (set, bound) = eval_task_inputs(&plan, auth, &facts).unwrap();
        assert_eq!(plan.str(set), "main");
        assert_eq!(bound.len(), 1);
        assert_eq!(plan.str(bound[0].0), "order");
        assert_eq!(bound[0].1, "o-1");

        // dispatch needs checkStock's output AND auth's notification.
        assert!(eval_task_inputs(&plan, dispatch, &facts).is_none());
        facts.add_output(
            "processOrderApplication/checkStock",
            "stockAvailable",
            &[("stockInfo", "s")],
        );
        assert!(eval_task_inputs(&plan, dispatch, &facts).is_none());
        facts.add_output(
            "processOrderApplication/paymentAuthorisation",
            "authorised",
            &[("paymentInfo", "p")],
        );
        let (_, bound) = eval_task_inputs(&plan, dispatch, &facts).unwrap();
        assert_eq!(bound[0].1, "s");
    }

    #[test]
    fn satisfaction_masks_report_partial_readiness() {
        let plan = order_plan();
        let scope = "processOrderApplication";
        let dispatch = plan.task_by_path(&format!("{scope}/dispatch")).unwrap();
        let task = plan.task(dispatch);
        let set = &plan.sets[task.sets.as_range()][0];
        // dispatch: 1 slot (stockInfo) + 1 notification (authorised).
        assert_eq!(set.requirement_count(), 2);
        assert_eq!(set.required_mask, 0b11);

        let mut facts = MemFacts::default();
        assert_eq!(satisfaction_mask(&plan, set, &facts), 0);
        facts.add_output(
            "processOrderApplication/checkStock",
            "stockAvailable",
            &[("stockInfo", "s")],
        );
        assert_eq!(satisfaction_mask(&plan, set, &facts), 0b01);
        facts.add_output(
            "processOrderApplication/paymentAuthorisation",
            "authorised",
            &[("paymentInfo", "p")],
        );
        assert_eq!(satisfaction_mask(&plan, set, &facts), set.required_mask);
    }

    #[test]
    fn scope_outputs_in_declaration_order_and_empty_never_fires() {
        let plan = order_plan();
        let root = 0;
        let mut facts = MemFacts::default();
        facts.add_output(
            "processOrderApplication/checkStock",
            "stockNotAvailable",
            &[],
        );
        let satisfied = eval_scope_outputs(&plan, root, &facts);
        assert_eq!(satisfied.len(), 1);
        assert_eq!(
            plan.str(plan.outputs[satisfied[0].0].name),
            "orderCancelled"
        );
    }

    #[test]
    fn reverse_edges_cover_the_dispatch_join() {
        let plan = order_plan();
        let scope = "processOrderApplication";
        let check = plan.task_by_path(&format!("{scope}/checkStock")).unwrap();
        let dispatch = plan.task_by_path(&format!("{scope}/dispatch")).unwrap();
        // checkStock feeds dispatch (dataflow) and the root scope's
        // cancellation output (notification).
        let consumers = plan.consumers(check);
        assert!(consumers.contains(&dispatch), "{consumers:?}");
        assert!(consumers.contains(&0), "{consumers:?}");
    }

    #[test]
    fn worklist_seeds_the_consumers_of_a_commit() {
        let plan = order_plan();
        let scope = "processOrderApplication";
        let check = plan.task_by_path(&format!("{scope}/checkStock")).unwrap();
        let dispatch = plan.task_by_path(&format!("{scope}/dispatch")).unwrap();

        let mut worklist = Worklist::new();
        assert!(worklist.is_empty());
        worklist.seed_commit(&plan, check);
        // dispatch is re-checked for starting; the root (a consumer via
        // the cancellation notification) re-checks its outputs but never
        // its (non-existent) parent-bound input sets.
        let mut started = Vec::new();
        while let Some(id) = worklist.pop_start() {
            started.push(id);
        }
        assert!(started.contains(&dispatch));
        assert!(!started.contains(&0));
        assert_eq!(worklist.pop_output(&plan), Some(0));
        assert!(worklist.is_empty());
    }

    /// `(scope path, what its activation seeds, whether its outputs are)`
    /// for every scope of `source`, by name.
    fn activation_seeds(source: &str, root: &str) -> Vec<(String, Vec<String>, bool)> {
        let plan = Plan::lower(&flowscript_core::schema::compile_source(source, root).unwrap());
        let scopes = (0..plan.tasks.len() as TaskId).filter(|id| plan.task(*id).is_scope);
        scopes
            .map(|scope| {
                let mut worklist = Worklist::new();
                worklist.seed_children(&plan, scope);
                let started = std::iter::from_fn(|| worklist.pop_start());
                let names = started.map(|id| plan.str(plan.task(id).name).to_string());
                let names: Vec<String> = names.collect();
                let outputs = worklist.pop_output(&plan) == Some(scope);
                (plan.str(plan.task(scope).path).to_string(), names, outputs)
            })
            .collect()
    }

    #[test]
    fn activation_seeds_only_what_can_start_off_an_empty_subtree() {
        use flowscript_core::samples::{BUSINESS_TRIP, FIG1_DIAMOND, ORDER_PROCESSING};
        let seeds = |children: &[&str]| children.iter().map(|c| c.to_string()).collect();
        // Fig. 1: t2, t3 and t4 each need a sibling's output.
        assert_eq!(
            activation_seeds(FIG1_DIAMOND, "diamond"),
            [("diamond".to_string(), seeds(&["t1"]), false)]
        );
        // Fig. 7: the two tasks fed by the order itself.
        assert_eq!(
            activation_seeds(ORDER_PROCESSING, "processOrderApplication"),
            [(
                "processOrderApplication".to_string(),
                seeds(&["paymentAuthorisation", "checkStock"]),
                false
            )]
        );
        // Fig. 8, nested: each compound enables its own first stage when
        // it activates in turn; the three airline queries all start off
        // their compound's inputs.
        let trip = "tripReservation";
        let business = format!("{trip}/businessReservation");
        assert_eq!(
            activation_seeds(BUSINESS_TRIP, trip),
            [
                (trip.to_string(), seeds(&["businessReservation"]), false),
                (business.clone(), seeds(&["dataAcquisition"]), false),
                (
                    format!("{business}/checkFlightReservation"),
                    seeds(&["airlineQueryA", "airlineQueryB", "airlineQueryC"]),
                    false
                ),
            ]
        );
    }

    #[test]
    fn a_scope_whose_output_maps_its_own_input_seeds_its_outputs() {
        // `relay`'s outcome needs nothing from inside: it must be looked
        // at on activation, and so must the constituent with an empty
        // input set no reverse edge points at.
        const RELAY: &str = r#"
class Data;
taskclass Idle { inputs { input main { } }; outputs { outcome done { } } }
taskclass Relay {
    inputs { input main { seed of class Data } };
    outputs { outcome done { out of class Data } }
}
compoundtask relay of taskclass Relay {
    task idle of taskclass Idle {
        implementation { "code" is "refIdle" };
        inputs { input main { } }
    };
    outputs {
        outcome done { outputobject out from { seed of task relay if input main } }
    }
}
"#;
        assert_eq!(
            activation_seeds(RELAY, "relay"),
            [("relay".to_string(), vec!["idle".to_string()], true)]
        );
    }

    #[test]
    fn worklist_pops_deepest_scope_outputs_first() {
        let schema = flowscript_core::schema::compile_source(
            flowscript_core::samples::BUSINESS_TRIP,
            "tripReservation",
        )
        .unwrap();
        let plan = Plan::lower(&schema);
        let inner = plan
            .task_by_path("tripReservation/businessReservation/checkFlightReservation")
            .unwrap();
        let mid = plan
            .task_by_path("tripReservation/businessReservation")
            .unwrap();
        let mut worklist = Worklist::new();
        worklist.push_task(&plan, 0);
        worklist.push_task(&plan, mid);
        worklist.push_task(&plan, inner);
        // Drain start agenda first; output order is inner → mid → root.
        while worklist.pop_start().is_some() {}
        assert_eq!(worklist.pop_output(&plan), Some(inner));
        assert_eq!(worklist.pop_output(&plan), Some(mid));
        assert_eq!(worklist.pop_output(&plan), Some(0));
        assert_eq!(worklist.pop_output(&plan), None);
        assert_eq!(worklist.len(), 0);
    }

    #[test]
    fn seed_all_covers_every_task_once() {
        let plan = order_plan();
        let mut worklist = Worklist::new();
        worklist.seed_all(&plan);
        let mut starts = 0;
        while worklist.pop_start().is_some() {
            starts += 1;
        }
        // Every non-root task is a start candidate.
        assert_eq!(starts, plan.tasks.len() - 1);
        let mut outputs = 0;
        while worklist.pop_output(&plan).is_some() {
            outputs += 1;
        }
        assert_eq!(outputs, plan.tasks.iter().filter(|t| t.is_scope).count());
    }
}
