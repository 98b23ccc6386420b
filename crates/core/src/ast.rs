//! Abstract syntax of flowscript scripts (paper §4).
//!
//! Every node keeps its [`Span`] for diagnostics; spans are ignored by
//! `PartialEq` on [`Ident`] so that structurally equal scripts compare
//! equal regardless of layout (used by the formatter round-trip tests).

use std::fmt;

use crate::span::Span;

/// An identifier with its source location. Equality and hashing consider
/// only the name.
#[derive(Debug, Clone, Eq)]
pub struct Ident {
    /// The identifier text.
    pub name: String,
    /// Source location (synthetic for generated nodes).
    pub span: Span,
}

impl Ident {
    /// Creates an identifier with a synthetic span (generated nodes).
    pub fn synthetic(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            span: Span::SYNTHETIC,
        }
    }

    /// The identifier text.
    pub fn as_str(&self) -> &str {
        &self.name
    }
}

impl PartialEq for Ident {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl std::hash::Hash for Ident {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl From<&str> for Ident {
    fn from(name: &str) -> Self {
        Ident::synthetic(name)
    }
}

/// A whole script: an ordered list of top-level items.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Script {
    /// Top-level declarations in source order.
    pub items: Vec<Item>,
}

impl Script {
    /// All object class declarations.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Class(c) => Some(c),
            _ => None,
        })
    }

    /// All task class declarations.
    pub fn task_classes(&self) -> impl Iterator<Item = &TaskClassDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::TaskClass(tc) => Some(tc),
            _ => None,
        })
    }

    /// All top-level task instances (simple and compound).
    pub fn tasks(&self) -> impl Iterator<Item = &Ident> {
        self.items.iter().filter_map(|i| match i {
            Item::Task(t) => Some(&t.name),
            Item::Compound(c) => Some(&c.name),
            Item::TemplateInstance(t) => Some(&t.name),
            _ => None,
        })
    }

    /// Finds a top-level compound task by name.
    pub fn find_compound(&self, name: &str) -> Option<&CompoundTaskDecl> {
        self.items.iter().find_map(|i| match i {
            Item::Compound(c) if c.name.name == name => Some(c),
            _ => None,
        })
    }

    /// Finds a task class declaration by name.
    pub fn find_task_class(&self, name: &str) -> Option<&TaskClassDecl> {
        self.task_classes().find(|tc| tc.name.name == name)
    }
}

/// One top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `class C;`
    Class(ClassDecl),
    /// `taskclass T { inputs {…}; outputs {…} }`
    TaskClass(TaskClassDecl),
    /// `task t of taskclass T {…}`
    Task(TaskDecl),
    /// `compoundtask c of taskclass T {…}`
    Compound(CompoundTaskDecl),
    /// `tasktemplate task tt of taskclass T { parameters {…}; … }`
    Template(TemplateDecl),
    /// `t of tasktemplate tt(a, b)`
    TemplateInstance(TemplateInstanceDecl),
}

impl Item {
    /// The declared name of this item.
    pub fn name(&self) -> &Ident {
        match self {
            Item::Class(c) => &c.name,
            Item::TaskClass(tc) => &tc.name,
            Item::Task(t) => &t.name,
            Item::Compound(c) => &c.name,
            Item::Template(t) => &t.name,
            Item::TemplateInstance(t) => &t.name,
        }
    }
}

/// `class C;` — an opaque object class. Member operations are external to
/// the script (paper §4.1): scripts only route *references*.
#[derive(Debug, Clone)]
pub struct ClassDecl {
    /// The class name.
    pub name: Ident,
    /// Source range of the declaration.
    pub span: Span,
}

/// `obj of class C` inside a task class signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSig {
    /// Object reference name.
    pub name: Ident,
    /// Its declared class.
    pub class: Ident,
}

/// One named input set in a task class signature (paper §4.2: a task may
/// have several; exactly one satisfied set is consumed at start).
#[derive(Debug, Clone, PartialEq)]
pub struct InputSetSig {
    /// The set name (e.g. `main`, `alternative`).
    pub name: Ident,
    /// Required object references.
    pub objects: Vec<ObjectSig>,
}

/// The four output kinds of paper §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputKind {
    /// Final output of the task.
    Outcome,
    /// Termination with *no side effects*; marks the task class atomic.
    AbortOutcome,
    /// Output routed back to restart the task; invisible to other tasks.
    RepeatOutcome,
    /// Early-release output produced *during* execution; a task that has
    /// produced a mark can no longer abort.
    Mark,
}

impl OutputKind {
    /// Script syntax for this kind.
    pub fn keyword(self) -> &'static str {
        match self {
            OutputKind::Outcome => "outcome",
            OutputKind::AbortOutcome => "abort outcome",
            OutputKind::RepeatOutcome => "repeat outcome",
            OutputKind::Mark => "mark",
        }
    }
}

impl fmt::Display for OutputKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One named output in a task class signature.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSig {
    /// Which of the four kinds.
    pub kind: OutputKind,
    /// Outcome name (e.g. `dispatchCompleted`).
    pub name: Ident,
    /// Object references produced with it.
    pub objects: Vec<ObjectSig>,
}

/// `taskclass T { inputs {…}; outputs {…} }`.
#[derive(Debug, Clone)]
pub struct TaskClassDecl {
    /// The task class name.
    pub name: Ident,
    /// Alternative input sets.
    pub input_sets: Vec<InputSetSig>,
    /// Possible outputs.
    pub outputs: Vec<OutputSig>,
    /// Source range.
    pub span: Span,
}

impl TaskClassDecl {
    /// Finds an input set by name.
    pub fn input_set(&self, name: &str) -> Option<&InputSetSig> {
        self.input_sets.iter().find(|s| s.name.name == name)
    }

    /// Finds an output by name.
    pub fn output(&self, name: &str) -> Option<&OutputSig> {
        self.outputs.iter().find(|o| o.name.name == name)
    }

    /// Whether this class is atomic (declares any abort outcome, §4.2).
    pub fn is_atomic(&self) -> bool {
        self.outputs
            .iter()
            .any(|o| o.kind == OutputKind::AbortOutcome)
    }
}

/// The condition under which a source provides its object/notification.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceCond {
    /// `if input S` — available once the referenced task binds input set
    /// `S`.
    Input(Ident),
    /// `if output O` — available once the referenced task produces output
    /// `O` (an outcome or a mark).
    Output(Ident),
    /// No condition — any (non-abort, non-repeat) output of the task that
    /// carries the object.
    Any,
}

/// One alternative source for an input object or compound output object:
/// `obj of task t [if input S | if output O]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSource {
    /// The object name at the producer.
    pub object: Ident,
    /// The producing task instance (a sibling, or the enclosing compound).
    pub task: Ident,
    /// Availability condition.
    pub cond: SourceCond,
}

/// One alternative source for a notification: `task t if output O`.
#[derive(Debug, Clone, PartialEq)]
pub struct NotifSource {
    /// The notifying task.
    pub task: Ident,
    /// The outcome whose production notifies.
    pub outcome: Ident,
}

/// `inputobject i from { … }` — an input object with its ordered
/// alternative sources (paper §4.3: first available wins).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectBinding {
    /// The input object name (must exist in the task class signature).
    pub name: Ident,
    /// Ordered alternatives.
    pub sources: Vec<ObjectSource>,
}

/// `notification from { … }` — a temporal dependency with alternatives.
#[derive(Debug, Clone, PartialEq)]
pub struct NotificationBinding {
    /// Ordered alternatives (any one firing satisfies the dependency).
    pub sources: Vec<NotifSource>,
}

/// One element of an input set binding.
#[derive(Debug, Clone, PartialEq)]
pub enum InputElem {
    /// A dataflow dependency.
    Object(ObjectBinding),
    /// A notification dependency.
    Notification(NotificationBinding),
}

/// `input main { … }` within a task instance: the dependencies that
/// satisfy this input set.
#[derive(Debug, Clone, PartialEq)]
pub struct InputSetBinding {
    /// Which declared input set this binds.
    pub name: Ident,
    /// Its dataflow/notification elements.
    pub elements: Vec<InputElem>,
}

/// A `(key, value)` pair from an `implementation { "k" is "v"; … }`
/// clause. The paper names `code`, `location`, `agent`, `deadline`,
/// `priority` as possible keys; the engine interprets `code` (and any
/// others it is taught) at bind time.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplPair {
    /// Implementation keyword (e.g. `code`).
    pub key: String,
    /// Its value (an executable name or a script name).
    pub value: String,
}

/// `task t of taskclass T { implementation {…}; inputs {…} }`.
#[derive(Debug, Clone)]
pub struct TaskDecl {
    /// Instance name.
    pub name: Ident,
    /// Task class name.
    pub class: Ident,
    /// Run-time binding hints.
    pub implementation: Vec<ImplPair>,
    /// Input set bindings.
    pub input_sets: Vec<InputSetBinding>,
    /// Source range.
    pub span: Span,
}

/// `outputobject o from { … }` — maps a compound task's output object to
/// constituent sources.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputElem {
    /// An output object mapping.
    Object(ObjectBinding),
    /// A notification condition for producing the output.
    Notification(NotificationBinding),
}

/// One output mapping of a compound task.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputMapping {
    /// Output kind (must match the task class signature).
    pub kind: OutputKind,
    /// Output name.
    pub name: Ident,
    /// How it is produced from constituents.
    pub elements: Vec<OutputElem>,
}

/// A constituent of a compound task.
#[derive(Debug, Clone, PartialEq)]
pub enum Constituent {
    /// A simple task instance.
    Task(TaskDecl),
    /// A nested compound task.
    Compound(CompoundTaskDecl),
    /// A template instantiation.
    TemplateInstance(TemplateInstanceDecl),
}

impl Constituent {
    /// The constituent's instance name.
    pub fn name(&self) -> &Ident {
        match self {
            Constituent::Task(t) => &t.name,
            Constituent::Compound(c) => &c.name,
            Constituent::TemplateInstance(t) => &t.name,
        }
    }
}

/// `compoundtask c of taskclass T { inputs? constituents… outputs {…} }`
/// (paper §4.4).
#[derive(Debug, Clone)]
pub struct CompoundTaskDecl {
    /// Instance name.
    pub name: Ident,
    /// Task class name.
    pub class: Ident,
    /// Input bindings (absent when the compound is used as a task
    /// implementation — the naming task instance supplies them).
    pub input_sets: Vec<InputSetBinding>,
    /// Constituent task instances.
    pub constituents: Vec<Constituent>,
    /// Output mappings from constituents to the compound's outputs.
    pub outputs: Vec<OutputMapping>,
    /// Source range.
    pub span: Span,
}

impl CompoundTaskDecl {
    /// Finds a constituent by name.
    pub fn constituent(&self, name: &str) -> Option<&Constituent> {
        self.constituents.iter().find(|c| c.name().name == name)
    }
}

/// `tasktemplate task tt of taskclass T { parameters {…}; … }`
/// (paper §4.5).
#[derive(Debug, Clone)]
pub struct TemplateDecl {
    /// Template name.
    pub name: Ident,
    /// Task class of instances.
    pub class: Ident,
    /// Formal parameters (task-name placeholders).
    pub params: Vec<Ident>,
    /// Implementation hints.
    pub implementation: Vec<ImplPair>,
    /// Input bindings, possibly referencing parameters as task names.
    pub input_sets: Vec<InputSetBinding>,
    /// Source range.
    pub span: Span,
}

/// `t of tasktemplate tt(a, b)`.
#[derive(Debug, Clone)]
pub struct TemplateInstanceDecl {
    /// Instance name.
    pub name: Ident,
    /// The template being instantiated.
    pub template: Ident,
    /// Actual task-name arguments.
    pub args: Vec<Ident>,
    /// Source range.
    pub span: Span,
}

/// Equality ignores `span` (structural comparison across reformatting).
impl PartialEq for ClassDecl {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

/// Equality ignores `span` (structural comparison across reformatting).
impl PartialEq for TaskClassDecl {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.input_sets == other.input_sets
            && self.outputs == other.outputs
    }
}

/// Equality ignores `span` (structural comparison across reformatting).
impl PartialEq for TaskDecl {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.class == other.class
            && self.implementation == other.implementation
            && self.input_sets == other.input_sets
    }
}

/// Equality ignores `span` (structural comparison across reformatting).
impl PartialEq for CompoundTaskDecl {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.class == other.class
            && self.input_sets == other.input_sets
            && self.constituents == other.constituents
            && self.outputs == other.outputs
    }
}

/// Equality ignores `span` (structural comparison across reformatting).
impl PartialEq for TemplateDecl {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.class == other.class
            && self.params == other.params
            && self.implementation == other.implementation
            && self.input_sets == other.input_sets
    }
}

/// Equality ignores `span` (structural comparison across reformatting).
impl PartialEq for TemplateInstanceDecl {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.template == other.template && self.args == other.args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_equality_ignores_span() {
        let a = Ident::synthetic("x");
        let b = Ident {
            name: "x".into(),
            span: Span::SYNTHETIC,
        };
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "x");
        assert_eq!(a.as_str(), "x");
    }

    #[test]
    fn output_kind_keywords() {
        assert_eq!(OutputKind::Outcome.keyword(), "outcome");
        assert_eq!(OutputKind::AbortOutcome.keyword(), "abort outcome");
        assert_eq!(OutputKind::RepeatOutcome.keyword(), "repeat outcome");
        assert_eq!(OutputKind::Mark.keyword(), "mark");
        assert_eq!(OutputKind::Mark.to_string(), "mark");
    }

    #[test]
    fn task_class_atomicity() {
        let atomic = TaskClassDecl {
            name: "T".into(),
            input_sets: vec![],
            outputs: vec![OutputSig {
                kind: OutputKind::AbortOutcome,
                name: "failed".into(),
                objects: vec![],
            }],
            span: Span::SYNTHETIC,
        };
        assert!(atomic.is_atomic());
        let plain = TaskClassDecl {
            name: "T".into(),
            input_sets: vec![],
            outputs: vec![OutputSig {
                kind: OutputKind::Outcome,
                name: "done".into(),
                objects: vec![],
            }],
            span: Span::SYNTHETIC,
        };
        assert!(!plain.is_atomic());
        assert!(plain.output("done").is_some());
        assert!(plain.output("nope").is_none());
    }

    #[test]
    fn script_queries() {
        let script = Script {
            items: vec![
                Item::Class(ClassDecl {
                    name: "C".into(),
                    span: Span::SYNTHETIC,
                }),
                Item::Task(TaskDecl {
                    name: "t1".into(),
                    class: "T".into(),
                    implementation: vec![],
                    input_sets: vec![],
                    span: Span::SYNTHETIC,
                }),
            ],
        };
        assert_eq!(script.classes().count(), 1);
        assert_eq!(script.tasks().count(), 1);
        assert_eq!(script.items[0].name().as_str(), "C");
        assert!(script.find_compound("t1").is_none());
    }
}
