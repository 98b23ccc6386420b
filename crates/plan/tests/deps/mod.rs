//! The reference semantics the plan evaluator is held to
//! (`proptest_equivalence.rs`): dependency evaluation straight off the
//! schema, as pure functions over a view of published facts. Generic
//! over the object value type — the interpreter only moves and clones
//! values.
//!
//! Facts are the events the paper's execution service records in
//! persistent atomic objects:
//!
//! - an *output fact* `(task, output) → objects` exists once a task has
//!   produced that outcome/abort/repeat/mark,
//! - an *input fact* `(task, set) → objects` exists once a task has bound
//!   that input set (started executing with it).
//!
//! Evaluation semantics (paper §2/§4.3, plus DESIGN.md §5 decisions):
//!
//! - an input set is satisfied when every object slot has an available
//!   source and every notification has fired,
//! - alternatives are tried in declaration order; the first available
//!   wins,
//! - if several input sets are satisfied, the first-declared is chosen,
//! - compound outputs are evaluated in declaration order.

use std::collections::BTreeMap;

use flowscript_core::schema::{
    CompiledCond, CompiledInputSet, CompiledOutput, CompiledScope, CompiledSource, CompiledTask,
};

/// Read access to published facts.
pub trait FactView<V> {
    /// Objects of an output fact, if produced.
    fn output_fact(&self, path: &str, output: &str) -> Option<BTreeMap<String, V>>;
    /// Objects of an input-binding fact, if bound.
    fn input_fact(&self, path: &str, set: &str) -> Option<BTreeMap<String, V>>;
}

/// An in-memory fact view for tests and for staged evaluation.
#[derive(Debug, Clone)]
pub struct MemFacts<V> {
    outputs: BTreeMap<(String, String), BTreeMap<String, V>>,
    inputs: BTreeMap<(String, String), BTreeMap<String, V>>,
}

impl<V> MemFacts<V> {
    /// An empty fact set.
    pub fn new() -> Self {
        Self {
            outputs: BTreeMap::new(),
            inputs: BTreeMap::new(),
        }
    }

    /// Records an output fact.
    pub fn add_output(
        &mut self,
        path: impl Into<String>,
        output: impl Into<String>,
        objects: BTreeMap<String, V>,
    ) {
        self.outputs.insert((path.into(), output.into()), objects);
    }

    /// Records an input-binding fact.
    pub fn add_input(
        &mut self,
        path: impl Into<String>,
        set: impl Into<String>,
        objects: BTreeMap<String, V>,
    ) {
        self.inputs.insert((path.into(), set.into()), objects);
    }
}

impl<V: Clone> FactView<V> for MemFacts<V> {
    fn output_fact(&self, path: &str, output: &str) -> Option<BTreeMap<String, V>> {
        self.outputs
            .get(&(path.to_string(), output.to_string()))
            .cloned()
    }

    fn input_fact(&self, path: &str, set: &str) -> Option<BTreeMap<String, V>> {
        self.inputs
            .get(&(path.to_string(), set.to_string()))
            .cloned()
    }
}

/// The producing task's absolute path for a source evaluated within
/// `scope_path` (the path of the enclosing compound).
pub fn producer_path(scope_path: &str, source: &CompiledSource) -> String {
    if source.is_self {
        scope_path.to_string()
    } else {
        format!("{scope_path}/{}", source.task)
    }
}

/// Resolves one object source: `Some(value)` when available now.
pub fn resolve_object_source<V: Clone>(
    scope_path: &str,
    source: &CompiledSource,
    facts: &dyn FactView<V>,
) -> Option<V> {
    let producer = producer_path(scope_path, source);
    let object = source.object.as_deref()?;
    let fact = match &source.cond {
        CompiledCond::Input(set) => facts.input_fact(&producer, set),
        CompiledCond::Output(output) => facts.output_fact(&producer, output),
        CompiledCond::AnyOf(outputs) => outputs
            .iter()
            .find_map(|output| facts.output_fact(&producer, output)),
    }?;
    fact.get(object).cloned()
}

/// Resolves one notification source: has it fired?
pub fn notification_fired<V>(
    scope_path: &str,
    source: &CompiledSource,
    facts: &dyn FactView<V>,
) -> bool {
    let producer = producer_path(scope_path, source);
    match &source.cond {
        CompiledCond::Input(set) => facts.input_fact(&producer, set).is_some(),
        CompiledCond::Output(output) => facts.output_fact(&producer, output).is_some(),
        CompiledCond::AnyOf(outputs) => outputs
            .iter()
            .any(|output| facts.output_fact(&producer, output).is_some()),
    }
}

/// Tries to satisfy one input set; `Some(bound objects)` on success.
pub fn eval_input_set<V: Clone>(
    scope_path: &str,
    set: &CompiledInputSet,
    facts: &dyn FactView<V>,
) -> Option<BTreeMap<String, V>> {
    let mut bound = BTreeMap::new();
    for slot in &set.objects {
        let value = slot
            .sources
            .iter()
            .find_map(|source| resolve_object_source(scope_path, source, facts))?;
        bound.insert(slot.name.clone(), value);
    }
    for notification in &set.notifications {
        let fired = notification
            .sources
            .iter()
            .any(|source| notification_fired(scope_path, source, facts));
        if !fired {
            return None;
        }
    }
    Some(bound)
}

/// The first satisfied input set of a task, in declaration order
/// ("chosen deterministically", §2). Returns the set name and bound
/// objects.
pub fn eval_task_inputs<V: Clone>(
    scope_path: &str,
    task: &CompiledTask,
    facts: &dyn FactView<V>,
) -> Option<(String, BTreeMap<String, V>)> {
    for set in &task.input_sets {
        if let Some(bound) = eval_input_set(scope_path, set, facts) {
            return Some((set.name.clone(), bound));
        }
    }
    None
}

/// Evaluates one compound output mapping. An output with no elements can
/// never be produced.
pub fn eval_output<V: Clone>(
    scope_path: &str,
    output: &CompiledOutput,
    facts: &dyn FactView<V>,
) -> Option<BTreeMap<String, V>> {
    if output.objects.is_empty() && output.notifications.is_empty() {
        return None;
    }
    let mut mapped = BTreeMap::new();
    for slot in &output.objects {
        let value = slot
            .sources
            .iter()
            .find_map(|source| resolve_object_source(scope_path, source, facts))?;
        mapped.insert(slot.name.clone(), value);
    }
    for notification in &output.notifications {
        let fired = notification
            .sources
            .iter()
            .any(|source| notification_fired(scope_path, source, facts));
        if !fired {
            return None;
        }
    }
    Some(mapped)
}

/// All currently satisfied outputs of a scope, in declaration order.
pub fn eval_scope_outputs<'a, V: Clone>(
    scope_path: &str,
    scope: &'a CompiledScope,
    facts: &dyn FactView<V>,
) -> Vec<(&'a CompiledOutput, BTreeMap<String, V>)> {
    scope
        .outputs
        .iter()
        .filter_map(|output| {
            eval_output(scope_path, output, facts).map(|objects| (output, objects))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemFacts, ObjectVal};
    use flowscript_core::samples;
    use flowscript_core::schema::{compile_source, Schema, TaskBody};

    fn order_schema() -> Schema {
        compile_source(samples::ORDER_PROCESSING, "processOrderApplication").unwrap()
    }

    fn objects(pairs: &[(&str, &str, &str)]) -> BTreeMap<String, ObjectVal> {
        pairs
            .iter()
            .map(|(name, class, text)| ((*name).to_string(), ObjectVal::text(*class, *text)))
            .collect()
    }

    #[test]
    fn order_pipeline_readiness_progression() {
        let schema = order_schema();
        let scope_path = "processOrderApplication";
        let mut facts = MemFacts::new();

        let auth = schema.root.task("paymentAuthorisation").unwrap();
        let dispatch = schema.root.task("dispatch").unwrap();
        let capture = schema.root.task("paymentCapture").unwrap();

        // Nothing ready before the root inputs are bound.
        assert!(eval_task_inputs(scope_path, auth, &facts).is_none());

        // Bind root inputs: auth and checkStock become ready.
        facts.add_input(scope_path, "main", objects(&[("order", "Order", "o-1")]));
        let (set, bound) = eval_task_inputs(scope_path, auth, &facts).unwrap();
        assert_eq!(set, "main");
        assert_eq!(bound["order"].as_text(), "o-1");

        // dispatch needs checkStock's output AND auth's notification.
        assert!(eval_task_inputs(scope_path, dispatch, &facts).is_none());
        facts.add_output(
            "processOrderApplication/checkStock",
            "stockAvailable",
            objects(&[("stockInfo", "StockInfo", "s")]),
        );
        assert!(
            eval_task_inputs(scope_path, dispatch, &facts).is_none(),
            "notification from paymentAuthorisation still missing"
        );
        facts.add_output(
            "processOrderApplication/paymentAuthorisation",
            "authorised",
            objects(&[("paymentInfo", "PaymentInfo", "p")]),
        );
        let (_, bound) = eval_task_inputs(scope_path, dispatch, &facts).unwrap();
        assert_eq!(bound["stockInfo"].as_text(), "s");

        // paymentCapture waits on dispatch.
        assert!(eval_task_inputs(scope_path, capture, &facts).is_none());
        facts.add_output(
            "processOrderApplication/dispatch",
            "dispatchCompleted",
            objects(&[("dispatchNote", "DispatchNote", "n")]),
        );
        let (_, bound) = eval_task_inputs(scope_path, capture, &facts).unwrap();
        assert_eq!(bound["paymentInfo"].as_text(), "p");
    }

    #[test]
    fn compound_outcome_mapping_requires_all_elements() {
        let schema = order_schema();
        let scope_path = "processOrderApplication";
        let mut facts = MemFacts::new();

        // orderCompleted needs paymentCapture's notification AND the
        // dispatch note object.
        facts.add_output(
            "processOrderApplication/dispatch",
            "dispatchCompleted",
            objects(&[("dispatchNote", "DispatchNote", "n")]),
        );
        assert!(eval_scope_outputs(scope_path, &schema.root, &facts).is_empty());
        facts.add_output(
            "processOrderApplication/paymentCapture",
            "done",
            BTreeMap::new(),
        );
        let satisfied = eval_scope_outputs(scope_path, &schema.root, &facts);
        assert_eq!(satisfied.len(), 1);
        assert_eq!(satisfied[0].0.name, "orderCompleted");
        assert_eq!(satisfied[0].1["dispatchNote"].as_text(), "n");
    }

    #[test]
    fn cancelled_path_uses_alternative_notifications() {
        let schema = order_schema();
        let scope_path = "processOrderApplication";
        let mut facts = MemFacts::new();
        facts.add_output(
            "processOrderApplication/checkStock",
            "stockNotAvailable",
            BTreeMap::new(),
        );
        let satisfied = eval_scope_outputs(scope_path, &schema.root, &facts);
        assert_eq!(satisfied.len(), 1);
        assert_eq!(satisfied[0].0.name, "orderCancelled");
    }

    #[test]
    fn alternative_sources_first_available_wins() {
        let schema = compile_source(samples::BUSINESS_TRIP, "tripReservation").unwrap();
        let br = schema.root.task("businessReservation").unwrap();
        let scope_path = "tripReservation";
        let mut facts = MemFacts::new();

        // Only the repeat fact available: second alternative used.
        facts.add_output(
            "tripReservation/businessReservation",
            "retry",
            objects(&[("user", "User", "retry-user")]),
        );
        let (_, bound) = eval_task_inputs(scope_path, br, &facts).unwrap();
        assert_eq!(bound["user"].as_text(), "retry-user");

        // Both available: first-declared (parent input) wins.
        facts.add_input(
            scope_path,
            "main",
            objects(&[("user", "User", "fresh-user")]),
        );
        let (_, bound) = eval_task_inputs(scope_path, br, &facts).unwrap();
        assert_eq!(bound["user"].as_text(), "fresh-user");
    }

    #[test]
    fn redundant_airline_queries_any_one_suffices() {
        let schema = compile_source(samples::BUSINESS_TRIP, "tripReservation").unwrap();
        let br = schema.root.task("businessReservation").unwrap();
        let flowscript_core::schema::TaskBody::Scope(br_scope) = &br.body else {
            panic!();
        };
        let scope_path = "tripReservation/businessReservation/checkFlightReservation";
        let cfr = br_scope.task("checkFlightReservation").unwrap();
        let flowscript_core::schema::TaskBody::Scope(cfr_scope) = &cfr.body else {
            panic!();
        };
        let mut facts = MemFacts::new();
        // Airline B answers first; flightFound fires on it alone.
        facts.add_output(
            format!("{scope_path}/airlineQueryB"),
            "found",
            objects(&[("flightList", "FlightList", "flights-B")]),
        );
        let satisfied = eval_scope_outputs(scope_path, cfr_scope, &facts);
        assert_eq!(satisfied.len(), 1);
        assert_eq!(satisfied[0].0.name, "flightFound");
        assert_eq!(satisfied[0].1["flightList"].as_text(), "flights-B");
    }

    #[test]
    fn input_set_declaration_order_is_preference_order() {
        // A two-set task: both satisfiable, first declared wins.
        let source = r#"
            class C;
            taskclass Two {
                inputs {
                    input primary { a of class C };
                    input fallback { b of class C }
                };
                outputs { outcome done { } }
            }
            taskclass P {
                inputs { input main { x of class C } };
                outputs { outcome ok { a of class C; b of class C } }
            }
            taskclass Root {
                inputs { input main { x of class C } };
                outputs { outcome done { } }
            }
            compoundtask root of taskclass Root {
                task p of taskclass P {
                    inputs { input main { inputobject x from { x of task root if input main } } }
                };
                task two of taskclass Two {
                    inputs {
                        input primary { inputobject a from { a of task p if output ok } };
                        input fallback { inputobject b from { b of task p if output ok } }
                    }
                };
                outputs { outcome done { notification from { task two if output done } } }
            }
        "#;
        let schema = compile_source(source, "root").unwrap();
        let two = schema.root.task("two").unwrap();
        let mut facts = MemFacts::new();
        facts.add_output("root/p", "ok", objects(&[("a", "C", "A"), ("b", "C", "B")]));
        let (set, bound) = eval_task_inputs("root", two, &facts).unwrap();
        assert_eq!(set, "primary");
        assert_eq!(bound["a"].as_text(), "A");
    }

    #[test]
    fn empty_output_mapping_never_fires() {
        let output = CompiledOutput {
            name: "never".into(),
            kind: flowscript_core::ast::OutputKind::Outcome,
            objects: vec![],
            notifications: vec![],
        };
        assert!(eval_output("x", &output, &MemFacts::new()).is_none());
    }

    #[test]
    fn nested_compound_constituents_draw_from_compound_input() {
        let schema = compile_source(samples::BUSINESS_TRIP, "tripReservation").unwrap();
        let br = schema.root.task("businessReservation").unwrap();
        let TaskBody::Scope(br_scope) = &br.body else {
            panic!();
        };
        let da = br_scope.task("dataAcquisition").unwrap();
        let scope_path = "tripReservation/businessReservation";
        let mut facts = MemFacts::new();
        assert!(eval_task_inputs(scope_path, da, &facts).is_none());
        facts.add_input(scope_path, "main", objects(&[("user", "User", "u")]));
        let (_, bound) = eval_task_inputs(scope_path, da, &facts).unwrap();
        assert_eq!(bound["user"].as_text(), "u");
    }
}
