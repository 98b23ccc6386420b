//! Plan/schema equivalence properties.
//!
//! The plan is only allowed to be a *faster* encoding of the schema,
//! never a different semantics. For randomly chosen scripts (the
//! paper's samples plus generated chains with alternative sources) and
//! randomly driven executions, the schema interpreter (`deps`, beside
//! this file — the reference semantics, kept with the test that holds
//! the implementation to it) and the plan evaluator
//! (`flowscript_plan::eval`) must agree at every step on:
//!
//! - which input set every task binds and with which objects,
//! - which scope outputs are satisfied and what they map,
//! - the final quiescent fact state (identical instance outcome).

mod deps;

use std::collections::BTreeMap;

use deps::FactView;
use flowscript_core::ast::OutputKind;
use flowscript_core::samples;
use flowscript_core::schema::{compile_source, CompiledScope, CompiledTask, Schema, TaskBody};
use flowscript_plan::{eval as plan_eval, Plan, PlanFacts, Probe};
use proptest::prelude::*;

/// The value type both evaluators run over here: they only move and
/// clone values, so a class and a text payload tell them apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectVal {
    class: String,
    text: String,
}

impl ObjectVal {
    pub fn text(class: impl Into<String>, text: impl Into<String>) -> Self {
        Self {
            class: class.into(),
            text: text.into(),
        }
    }

    pub fn as_text(&self) -> String {
        self.text.clone()
    }
}

type MemFacts = deps::MemFacts<ObjectVal>;

struct PlanMemFacts<'a>(&'a MemFacts);

impl PlanFacts for PlanMemFacts<'_> {
    type Value = ObjectVal;

    fn fact_object(&self, probe: Probe<'_>, object: &str) -> Option<ObjectVal> {
        let fact = if probe.is_input {
            self.0.input_fact(probe.producer, probe.name)
        } else {
            self.0.output_fact(probe.producer, probe.name)
        };
        fact.and_then(|mut objects| objects.remove(object))
    }

    fn fact_fired(&self, probe: Probe<'_>) -> bool {
        if probe.is_input {
            self.0.input_fact(probe.producer, probe.name).is_some()
        } else {
            self.0.output_fact(probe.producer, probe.name).is_some()
        }
    }
}

/// A generated script: `n` chained stages, each with a fallback source
/// to the root input and an abort alternative — enough structure to
/// exercise alternatives, notifications and abort outcomes.
fn generated_script(n: usize) -> String {
    let mut source = String::from(
        r#"class Data;
taskclass Stage {
    inputs { input main { in of class Data } };
    outputs { outcome done { out of class Data }; abort outcome failed { } }
}
taskclass Root {
    inputs { input main { seed of class Data } };
    outputs { outcome done { } }
}
compoundtask root of taskclass Root {
"#,
    );
    for i in 0..n {
        let from = if i == 0 {
            "inputobject in from { seed of task root if input main }".to_string()
        } else {
            format!(
                "inputobject in from {{ out of task t{} if output done; seed of task root if input main }}",
                i - 1
            )
        };
        source.push_str(&format!(
            "    task t{i} of taskclass Stage {{\n        implementation {{ \"code\" is \"ref{i}\" }};\n        inputs {{ input main {{ {from} }} }}\n    }};\n"
        ));
    }
    source.push_str(&format!(
        "    outputs {{ outcome done {{ notification from {{ task t{} if output done }} }} }}\n}}\n",
        n.saturating_sub(1)
    ));
    source
}

fn pick_script(selector: usize, n: usize) -> (String, String) {
    let all = samples::all();
    if selector < all.len() {
        let (name, source) = all[selector];
        (source.to_string(), samples::root_of(name).to_string())
    } else {
        (generated_script(n.max(1)), "root".to_string())
    }
}

fn all_tasks(schema: &Schema) -> Vec<(String, &CompiledTask)> {
    fn walk<'a>(scope: &'a CompiledScope, path: &str, out: &mut Vec<(String, &'a CompiledTask)>) {
        for task in &scope.tasks {
            out.push((path.to_string(), task));
            if let TaskBody::Scope(inner) = &task.body {
                walk(inner, &format!("{path}/{}", task.name), out);
            }
        }
    }
    let mut out = Vec::new();
    walk(&schema.root, &schema.root.name, &mut out);
    out
}

fn all_scopes(schema: &Schema) -> Vec<(String, &CompiledScope)> {
    fn walk<'a>(scope: &'a CompiledScope, path: &str, out: &mut Vec<(String, &'a CompiledScope)>) {
        out.push((path.to_string(), scope));
        for task in &scope.tasks {
            if let TaskBody::Scope(inner) = &task.body {
                walk(inner, &format!("{path}/{}", task.name), out);
            }
        }
    }
    let mut out = Vec::new();
    walk(&schema.root, &schema.root.name, &mut out);
    out
}

/// Asserts both evaluators agree on every task's readiness and every
/// scope's satisfied outputs for the given fact state.
fn assert_equivalent(schema: &Schema, plan: &Plan, facts: &MemFacts) {
    let plan_facts = PlanMemFacts(facts);
    for (scope_path, task) in all_tasks(schema) {
        let path = format!("{scope_path}/{}", task.name);
        let task_id = plan
            .task_by_path(&path)
            .unwrap_or_else(|| panic!("plan lacks task {path}"));
        let schema_result = deps::eval_task_inputs(&scope_path, task, facts);
        let plan_result =
            plan_eval::eval_task_inputs(plan, task_id, &plan_facts).map(|(set, bound)| {
                (
                    plan.str(set).to_string(),
                    bound
                        .into_iter()
                        .map(|(name, value)| (plan.str(name).to_string(), value))
                        .collect::<BTreeMap<_, _>>(),
                )
            });
        assert_eq!(schema_result, plan_result, "task {path} readiness differs");
    }
    for (scope_path, scope) in all_scopes(schema) {
        let scope_id = plan.task_by_path(&scope_path).expect("scope in plan");
        let schema_outputs: Vec<(String, OutputKind, BTreeMap<String, ObjectVal>)> =
            deps::eval_scope_outputs(&scope_path, scope, facts)
                .into_iter()
                .map(|(output, objects)| (output.name.clone(), output.kind, objects))
                .collect();
        let plan_outputs: Vec<(String, OutputKind, BTreeMap<String, ObjectVal>)> =
            plan_eval::eval_scope_outputs(plan, scope_id, &plan_facts)
                .into_iter()
                .map(|(out_idx, mapped)| {
                    let output = &plan.outputs[out_idx];
                    (
                        plan.str(output.name).to_string(),
                        output.kind,
                        mapped
                            .into_iter()
                            .map(|(name, value)| (plan.str(name).to_string(), value))
                            .collect(),
                    )
                })
                .collect();
        assert_eq!(
            schema_outputs, plan_outputs,
            "scope {scope_path} outputs differ"
        );
    }
}

/// Drives one wavefront step using the schema interpreter as ground
/// truth. `choices` picks which declared output each leaf takes.
fn advance(schema: &Schema, facts: &mut MemFacts, choices: &[u8]) -> bool {
    let mut progressed = false;
    for (index, (scope_path, task)) in all_tasks(schema).into_iter().enumerate() {
        let path = format!("{scope_path}/{}", task.name);
        if let Some((set, bound)) = deps::eval_task_inputs(&scope_path, task, facts) {
            if facts.input_fact(&path, &set).is_none() {
                facts.add_input(path.clone(), set, bound);
                progressed = true;
            }
            if matches!(task.body, TaskBody::Leaf) {
                let class = schema.task_class(&task.class).expect("class exists");
                // Candidate completions: outcomes and aborts (repeat
                // outcomes would need incarnation resets the wavefront
                // model does not track).
                let candidates: Vec<_> = class
                    .outputs
                    .iter()
                    .filter(|o| matches!(o.kind, OutputKind::Outcome | OutputKind::AbortOutcome))
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let choice = choices
                    .get(index % choices.len().max(1))
                    .copied()
                    .unwrap_or(0) as usize;
                let output = candidates[choice % candidates.len()];
                let already_done = candidates
                    .iter()
                    .any(|o| facts.output_fact(&path, &o.name).is_some());
                if !already_done {
                    // Publish only a (choice-driven) subset of the
                    // declared objects: facts that fired without some
                    // object exercise the "commit to the first fired
                    // alternative" semantics of AnyOf sources and
                    // unsatisfied slots.
                    let objects = output
                        .objects
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| (choice >> (j % 7)) & 1 == 0)
                        .map(|(_, o)| (o.name.clone(), ObjectVal::text(o.class.clone(), "v")))
                        .collect();
                    facts.add_output(path, output.name.clone(), objects);
                    progressed = true;
                }
            }
        }
    }
    for (scope_path, scope) in all_scopes(schema) {
        let satisfied: Vec<(String, BTreeMap<String, ObjectVal>)> =
            deps::eval_scope_outputs(&scope_path, scope, facts)
                .into_iter()
                .filter(|(output, _)| {
                    matches!(output.kind, OutputKind::Outcome | OutputKind::AbortOutcome)
                })
                .map(|(output, objects)| (output.name.clone(), objects))
                .collect();
        if let Some((name, objects)) = satisfied.into_iter().next() {
            if facts.output_fact(&scope_path, &name).is_none() {
                facts.add_output(scope_path.clone(), name, objects);
                progressed = true;
            }
        }
    }
    progressed
}

#[test]
fn plan_mirrors_schema_structure_for_all_samples() {
    for (name, source) in samples::all() {
        let schema = compile_source(source, samples::root_of(name)).unwrap();
        let plan = Plan::lower(&schema);
        assert_eq!(plan.task_paths(), schema.task_paths(), "{name}");
        assert_eq!(plan.leaf_count(), schema.leaf_count(), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both evaluators agree at every wavefront step of a randomly
    /// driven execution of a randomly chosen script, through to the
    /// identical quiescent outcome.
    #[test]
    fn plan_and_schema_evaluate_identically(
        selector in 0usize..7,
        n in 1usize..14,
        choices in proptest::collection::vec(any::<u8>(), 1..8),
        rounds in 1usize..24,
    ) {
        let (source, root) = pick_script(selector, n);
        let schema = compile_source(&source, &root).expect("script compiles");
        let plan = Plan::lower(&schema);

        let mut facts = MemFacts::new();
        assert_equivalent(&schema, &plan, &facts);

        // Bind the root's first input set with its declared objects.
        let root_class = schema.task_class(&schema.root.class).expect("root class");
        let set = &root_class.input_sets[0];
        facts.add_input(
            schema.root.name.clone(),
            set.name.clone(),
            set.objects
                .iter()
                .map(|o| (o.name.clone(), ObjectVal::text(o.class.clone(), "seed")))
                .collect::<BTreeMap<_, _>>(),
        );
        assert_equivalent(&schema, &plan, &facts);

        for _ in 0..rounds {
            let progressed = advance(&schema, &mut facts, &choices);
            assert_equivalent(&schema, &plan, &facts);
            if !progressed {
                break;
            }
        }
    }

    /// Lowering is deterministic: equal schemas lower to equal plans.
    #[test]
    fn lowering_is_deterministic(selector in 0usize..7, n in 1usize..14) {
        let (source, root) = pick_script(selector, n);
        let schema = compile_source(&source, &root).expect("script compiles");
        let plan1 = Plan::lower(&schema);
        let plan2 = Plan::lower(&schema);
        prop_assert_eq!(&plan1, &plan2);
    }
}
