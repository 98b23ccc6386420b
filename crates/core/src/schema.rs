//! Compiled schemas: the resolved, hierarchical form the engine executes.
//!
//! [`compile`] lowers a checked script to a [`Schema`]: template-free,
//! name-resolved, with every `Any` source condition expanded to the
//! concrete candidate outputs. The convenience [`compile_source`] runs the
//! whole front end (parse → template expansion → sema → compile).

use std::collections::BTreeMap;

use crate::ast::{self, Constituent, InputElem, OutputElem, OutputKind, SourceCond};
use crate::diag::{Diagnostic, Diagnostics};
use crate::sema::{self, Checked};
use crate::template;

/// An object reference signature: name and class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Object reference name.
    pub name: String,
    /// Its object class.
    pub class: String,
}

/// A resolved input set signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSetInfo {
    /// Set name.
    pub name: String,
    /// Required objects.
    pub objects: Vec<ObjectInfo>,
}

/// A resolved output signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputInfo {
    /// Output name.
    pub name: String,
    /// Output kind.
    pub kind: OutputKind,
    /// Objects produced with it.
    pub objects: Vec<ObjectInfo>,
}

/// A resolved task class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskClassInfo {
    /// Class name.
    pub name: String,
    /// Input sets in declaration order (the runtime's deterministic
    /// preference order).
    pub input_sets: Vec<InputSetInfo>,
    /// Possible outputs.
    pub outputs: Vec<OutputInfo>,
    /// Whether the class is atomic (declares an abort outcome).
    pub atomic: bool,
}

impl TaskClassInfo {
    /// Finds an input set by name.
    pub fn input_set(&self, name: &str) -> Option<&InputSetInfo> {
        self.input_sets.iter().find(|s| s.name == name)
    }

    /// Finds an output by name.
    pub fn output(&self, name: &str) -> Option<&OutputInfo> {
        self.outputs.iter().find(|o| o.name == name)
    }
}

/// How a source condition is satisfied at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledCond {
    /// The producer bound the named input set.
    Input(String),
    /// The producer produced the named output.
    Output(String),
    /// The producer produced any of these outputs (an unconditioned
    /// source, expanded at compile time).
    AnyOf(Vec<String>),
}

/// One resolved alternative source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSource {
    /// Producing task's instance name within the scope.
    pub task: String,
    /// Whether `task` is the enclosing compound itself.
    pub is_self: bool,
    /// The object taken (None for notifications).
    pub object: Option<String>,
    /// When the source becomes available.
    pub cond: CompiledCond,
}

/// A dataflow slot: one required input (or output) object and its ordered
/// alternatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledObjectSlot {
    /// Object name in the consumer's signature.
    pub name: String,
    /// The object's class.
    pub class: String,
    /// Ordered alternative sources (first available wins).
    pub sources: Vec<CompiledSource>,
}

/// A notification dependency: satisfied when any source fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledNotification {
    /// Ordered alternative sources.
    pub sources: Vec<CompiledSource>,
}

/// A bound input set of a task instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledInputSet {
    /// Set name.
    pub name: String,
    /// Dataflow slots.
    pub objects: Vec<CompiledObjectSlot>,
    /// Notification dependencies.
    pub notifications: Vec<CompiledNotification>,
}

/// Whether a task is a leaf (externally implemented) or a nested compound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskBody {
    /// Externally implemented; the engine binds `implementation["code"]`
    /// at run time.
    Leaf,
    /// A nested compound scope.
    Scope(CompiledScope),
}

/// One task instance within a scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTask {
    /// Instance name (unique within the scope).
    pub name: String,
    /// Task class name.
    pub class: String,
    /// Implementation hints (`code`, `location`, …).
    pub implementation: BTreeMap<String, String>,
    /// Bound input sets in binding order.
    pub input_sets: Vec<CompiledInputSet>,
    /// Leaf or nested scope.
    pub body: TaskBody,
}

impl CompiledTask {
    /// The `code` implementation binding, if present.
    pub fn code(&self) -> Option<&str> {
        self.implementation.get("code").map(String::as_str)
    }

    /// Whether this is a nested compound.
    pub fn is_compound(&self) -> bool {
        matches!(self.body, TaskBody::Scope(_))
    }
}

/// One output mapping of a compound scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledOutput {
    /// Output name.
    pub name: String,
    /// Output kind.
    pub kind: OutputKind,
    /// Object mappings.
    pub objects: Vec<CompiledObjectSlot>,
    /// Notification conditions.
    pub notifications: Vec<CompiledNotification>,
}

/// The expansion of one compound task instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledScope {
    /// The compound's instance name.
    pub name: String,
    /// Its task class.
    pub class: String,
    /// Constituents in declaration order.
    pub tasks: Vec<CompiledTask>,
    /// Output mappings in declaration order (first satisfied wins).
    pub outputs: Vec<CompiledOutput>,
}

impl CompiledScope {
    /// Finds a constituent by name.
    pub fn task(&self, name: &str) -> Option<&CompiledTask> {
        self.tasks.iter().find(|t| t.name == name)
    }
}

/// A compiled, executable workflow schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Object class names.
    pub classes: Vec<String>,
    /// Resolved task classes by name.
    pub task_classes: BTreeMap<String, TaskClassInfo>,
    /// The root compound scope.
    pub root: CompiledScope,
}

impl Schema {
    /// Looks up a task class.
    pub fn task_class(&self, name: &str) -> Option<&TaskClassInfo> {
        self.task_classes.get(name)
    }

    /// Slash-joined paths of every task instance, depth first
    /// (e.g. `tripReservation/businessReservation/dataAcquisition`).
    pub fn task_paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(scope: &CompiledScope, prefix: &str, out: &mut Vec<String>) {
            for task in &scope.tasks {
                let path = format!("{prefix}/{}", task.name);
                out.push(path.clone());
                if let TaskBody::Scope(inner) = &task.body {
                    walk(inner, &path, out);
                }
            }
        }
        walk(&self.root, &self.root.name, &mut out);
        out
    }

    /// Number of leaf (externally implemented) tasks.
    pub fn leaf_count(&self) -> usize {
        fn count(scope: &CompiledScope) -> usize {
            scope
                .tasks
                .iter()
                .map(|t| match &t.body {
                    TaskBody::Leaf => 1,
                    TaskBody::Scope(inner) => count(inner),
                })
                .sum()
        }
        count(&self.root)
    }
}

/// Compiles a checked script into the schema rooted at the named
/// top-level compound task.
///
/// # Errors
///
/// Reports a missing/ambiguous root or leftover template instances
/// (templates must be [`template::expand`]ed before checking).
pub fn compile(checked: &Checked<'_>, root: &str) -> Result<Schema, Diagnostics> {
    let mut diags = Diagnostics::new();
    let script = checked.script();

    let Some(root_decl) = script.find_compound(root) else {
        let mut diags = Diagnostics::new();
        diags.push(Diagnostic::error_global(format!(
            "no top-level compoundtask named `{root}`"
        )));
        return Err(diags);
    };

    let task_classes: BTreeMap<String, TaskClassInfo> = checked
        .task_classes()
        .iter()
        .map(|(name, tc)| ((*name).to_string(), lower_task_class(tc)))
        .collect();

    let root_scope = lower_compound(root_decl, &task_classes, &mut diags);

    if diags.has_errors() {
        return Err(diags);
    }
    Ok(Schema {
        classes: checked.classes().keys().map(|s| (*s).to_string()).collect(),
        task_classes,
        root: root_scope,
    })
}

/// Front-end pipeline: parse, expand templates, check, compile.
///
/// # Errors
///
/// Any diagnostics from any stage.
///
/// ```
/// let schema = flowscript_core::schema::compile_source(
///     flowscript_core::samples::ORDER_PROCESSING,
///     "processOrderApplication",
/// )?;
/// assert_eq!(schema.leaf_count(), 4);
/// # Ok::<(), flowscript_core::Diagnostics>(())
/// ```
pub fn compile_source(source: &str, root: &str) -> Result<Schema, Diagnostics> {
    let script = crate::parse(source)?;
    let expanded = template::expand(script)?;
    let checked = sema::check(&expanded)?;
    compile(&checked, root)
}

fn lower_task_class(tc: &ast::TaskClassDecl) -> TaskClassInfo {
    TaskClassInfo {
        name: tc.name.name.clone(),
        input_sets: tc
            .input_sets
            .iter()
            .map(|set| InputSetInfo {
                name: set.name.name.clone(),
                objects: set.objects.iter().map(lower_object_sig).collect(),
            })
            .collect(),
        outputs: tc
            .outputs
            .iter()
            .map(|output| OutputInfo {
                name: output.name.name.clone(),
                kind: output.kind,
                objects: output.objects.iter().map(lower_object_sig).collect(),
            })
            .collect(),
        atomic: tc.is_atomic(),
    }
}

fn lower_object_sig(sig: &ast::ObjectSig) -> ObjectInfo {
    ObjectInfo {
        name: sig.name.name.clone(),
        class: sig.class.name.clone(),
    }
}

fn lower_compound(
    compound: &ast::CompoundTaskDecl,
    task_classes: &BTreeMap<String, TaskClassInfo>,
    diags: &mut Diagnostics,
) -> CompiledScope {
    let self_name = compound.name.as_str();
    let tasks = compound
        .constituents
        .iter()
        .filter_map(|constituent| match constituent {
            Constituent::Task(task) => Some(lower_task(task, self_name, task_classes, diags)),
            Constituent::Compound(inner) => {
                let scope = lower_compound(inner, task_classes, diags);
                Some(CompiledTask {
                    name: inner.name.name.clone(),
                    class: inner.class.name.clone(),
                    implementation: BTreeMap::new(),
                    input_sets: lower_input_sets(
                        &inner.input_sets,
                        inner.name.as_str(),
                        self_name,
                        task_classes,
                        diags,
                    ),
                    body: TaskBody::Scope(scope),
                })
            }
            Constituent::TemplateInstance(instance) => {
                diags.push(Diagnostic::error(
                    format!(
                        "template instance `{}` not expanded before compilation",
                        instance.name
                    ),
                    instance.name.span,
                ));
                None
            }
        })
        .collect();

    let outputs = compound
        .outputs
        .iter()
        .map(|mapping| {
            let mut objects = Vec::new();
            let mut notifications = Vec::new();
            for element in &mapping.elements {
                match element {
                    OutputElem::Object(binding) => {
                        objects.push(lower_object_slot(
                            binding,
                            &mapping.name.name,
                            compound.class.as_str(),
                            SlotSide::Output,
                            self_name,
                            task_classes,
                            diags,
                        ));
                    }
                    OutputElem::Notification(binding) => {
                        notifications.push(CompiledNotification {
                            sources: binding
                                .sources
                                .iter()
                                .map(|s| CompiledSource {
                                    task: s.task.name.clone(),
                                    is_self: s.task.as_str() == self_name,
                                    object: None,
                                    cond: CompiledCond::Output(s.outcome.name.clone()),
                                })
                                .collect(),
                        });
                    }
                }
            }
            CompiledOutput {
                name: mapping.name.name.clone(),
                kind: mapping.kind,
                objects,
                notifications,
            }
        })
        .collect();

    CompiledScope {
        name: compound.name.name.clone(),
        class: compound.class.name.clone(),
        tasks,
        outputs,
    }
}

fn lower_task(
    task: &ast::TaskDecl,
    self_name: &str,
    task_classes: &BTreeMap<String, TaskClassInfo>,
    diags: &mut Diagnostics,
) -> CompiledTask {
    CompiledTask {
        name: task.name.name.clone(),
        class: task.class.name.clone(),
        implementation: task
            .implementation
            .iter()
            .map(|pair| (pair.key.clone(), pair.value.clone()))
            .collect(),
        input_sets: lower_input_sets(
            &task.input_sets,
            task.class.as_str(),
            self_name,
            task_classes,
            diags,
        ),
        body: TaskBody::Leaf,
    }
}

fn lower_input_sets(
    bindings: &[ast::InputSetBinding],
    class_name: &str,
    self_name: &str,
    task_classes: &BTreeMap<String, TaskClassInfo>,
    diags: &mut Diagnostics,
) -> Vec<CompiledInputSet> {
    bindings
        .iter()
        .map(|binding| {
            let mut objects = Vec::new();
            let mut notifications = Vec::new();
            for element in &binding.elements {
                match element {
                    InputElem::Object(object) => {
                        objects.push(lower_object_slot(
                            object,
                            &binding.name.name,
                            class_name,
                            SlotSide::Input,
                            self_name,
                            task_classes,
                            diags,
                        ));
                    }
                    InputElem::Notification(notification) => {
                        notifications.push(CompiledNotification {
                            sources: notification
                                .sources
                                .iter()
                                .map(|s| CompiledSource {
                                    task: s.task.name.clone(),
                                    is_self: s.task.as_str() == self_name,
                                    object: None,
                                    cond: CompiledCond::Output(s.outcome.name.clone()),
                                })
                                .collect(),
                        });
                    }
                }
            }
            CompiledInputSet {
                name: binding.name.name.clone(),
                objects,
                notifications,
            }
        })
        .collect()
}

enum SlotSide {
    Input,
    Output,
}

fn lower_object_slot(
    binding: &ast::ObjectBinding,
    container: &str,
    class_name: &str,
    side: SlotSide,
    self_name: &str,
    task_classes: &BTreeMap<String, TaskClassInfo>,
    diags: &mut Diagnostics,
) -> CompiledObjectSlot {
    // The slot's class comes from the consumer's signature.
    let class = task_classes
        .get(class_name)
        .and_then(|tc| match side {
            SlotSide::Input => tc
                .input_set(container)
                .and_then(|set| set.objects.iter().find(|o| o.name == binding.name.name))
                .map(|o| o.class.clone()),
            SlotSide::Output => tc
                .output(container)
                .and_then(|out| out.objects.iter().find(|o| o.name == binding.name.name))
                .map(|o| o.class.clone()),
        })
        .unwrap_or_default();

    let sources = binding
        .sources
        .iter()
        .map(|source| {
            let cond = match &source.cond {
                SourceCond::Input(set) => CompiledCond::Input(set.name.clone()),
                SourceCond::Output(output) => CompiledCond::Output(output.name.clone()),
                SourceCond::Any => {
                    // Expand to the producer's candidate outputs. The
                    // producer's class is unknown here only if sema was
                    // skipped; report rather than guess.
                    let candidates = producer_outputs_with_object(
                        source.task.as_str(),
                        source.object.as_str(),
                        self_name,
                        task_classes,
                    );
                    if candidates.is_empty() {
                        diags.push(Diagnostic::error(
                            format!(
                                "cannot resolve unconditioned source `{} of task {}`",
                                source.object, source.task
                            ),
                            source.object.span,
                        ));
                    }
                    CompiledCond::AnyOf(candidates)
                }
            };
            CompiledSource {
                task: source.task.name.clone(),
                is_self: source.task.as_str() == self_name,
                object: Some(source.object.name.clone()),
                cond,
            }
        })
        .collect();

    CompiledObjectSlot {
        name: binding.name.name.clone(),
        class,
        sources,
    }
}

/// All non-repeat outputs of `task`'s class carrying `object`.
///
/// The producer's class cannot be resolved from here by name alone (it
/// needs the scope), so this helper searches *all* task classes that have
/// an instance with this name — compile runs after sema, which guarantees
/// the reference is unambiguous within its scope. To stay self-contained
/// we approximate: any class with a matching output qualifies; sema has
/// already pinned the exact one.
fn producer_outputs_with_object(
    _task: &str,
    object: &str,
    _self_name: &str,
    task_classes: &BTreeMap<String, TaskClassInfo>,
) -> Vec<String> {
    let mut out = Vec::new();
    for tc in task_classes.values() {
        for output in &tc.outputs {
            if output.kind != OutputKind::RepeatOutcome
                && output.objects.iter().any(|o| o.name == object)
                && !out.contains(&output.name)
            {
                out.push(output.name.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    #[test]
    fn compiles_every_sample() {
        for (name, source) in samples::all() {
            let schema = compile_source(source, samples::root_of(name))
                .unwrap_or_else(|d| panic!("{name}: {d}"));
            assert!(!schema.root.tasks.is_empty(), "{name} has no tasks");
        }
    }

    #[test]
    fn order_processing_shape() {
        let schema = compile_source(samples::ORDER_PROCESSING, "processOrderApplication").unwrap();
        assert_eq!(schema.leaf_count(), 4);
        assert_eq!(schema.root.tasks.len(), 4);
        let dispatch = schema.root.task("dispatch").unwrap();
        assert_eq!(dispatch.code(), Some("refDispatch"));
        assert!(!dispatch.is_compound());
        // dispatch has one notification and one dataflow slot.
        let main = &dispatch.input_sets[0];
        assert_eq!(main.objects.len(), 1);
        assert_eq!(main.notifications.len(), 1);
        assert_eq!(main.objects[0].class, "StockInfo");
        // The Dispatch class is atomic (abort outcome dispatchFailed).
        assert!(schema.task_class("Dispatch").unwrap().atomic);
    }

    #[test]
    fn business_trip_nesting_and_paths() {
        let schema = compile_source(samples::BUSINESS_TRIP, "tripReservation").unwrap();
        let paths = schema.task_paths();
        assert!(paths.contains(&"tripReservation/businessReservation".to_string()));
        assert!(paths.contains(
            &"tripReservation/businessReservation/checkFlightReservation/airlineQueryB".to_string()
        ));
        // Leaves: dataAcquisition, 3 airline queries, flightReservation,
        // hotelReservation, flightCancellation, printTickets.
        assert_eq!(schema.leaf_count(), 8, "{paths:?}");
        let br = schema.root.task("businessReservation").unwrap();
        assert!(br.is_compound());
        // The compound's own input binding has two alternatives: parent
        // input and its own repeat outcome.
        assert_eq!(br.input_sets[0].objects[0].sources.len(), 2);
        assert!(
            br.input_sets[0].objects[0].sources[1].cond
                == CompiledCond::Output("retry".to_string())
        );
    }

    #[test]
    fn self_references_marked() {
        let schema = compile_source(samples::SERVICE_IMPACT, "serviceImpactApplication").unwrap();
        let correlator = schema.root.task("alarmCorrelator").unwrap();
        let source = &correlator.input_sets[0].objects[0].sources[0];
        assert!(source.is_self);
        assert_eq!(source.cond, CompiledCond::Input("main".into()));
    }

    #[test]
    fn any_condition_expanded() {
        let schema = compile_source(samples::SERVICE_IMPACT, "serviceImpactApplication").unwrap();
        let resolution = schema.root.task("serviceImpactResolution").unwrap();
        let source = &resolution.input_sets[0].objects[0].sources[0];
        match &source.cond {
            CompiledCond::AnyOf(candidates) => {
                assert!(candidates.contains(&"foundImpacts".to_string()));
            }
            other => panic!("expected AnyOf, got {other:?}"),
        }
    }

    #[test]
    fn missing_root_reported() {
        let err = compile_source(samples::ORDER_PROCESSING, "ghost").unwrap_err();
        assert!(err.to_string().contains("no top-level compoundtask"));
    }

    #[test]
    fn mark_outputs_compiled() {
        let schema = compile_source(samples::BUSINESS_TRIP, "tripReservation").unwrap();
        let to_pay = schema
            .root
            .outputs
            .iter()
            .find(|o| o.name == "toPay")
            .unwrap();
        assert_eq!(to_pay.kind, OutputKind::Mark);
        assert_eq!(to_pay.objects[0].class, "Cost");
    }
}
