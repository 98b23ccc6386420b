//! Run-time implementation binding.
//!
//! A script names its implementations abstractly (`"code" is
//! "refDispatch"`); the binding to executable behaviour happens at run
//! time, by that name — the paper's route to online upgrade
//! ("introducing online upgrade of an application without having to
//! change the corresponding workflow script"). A code is bound to
//!
//! - a program, a closure ([`crate::WorkflowSystem::bind_fn`]),
//! - a built-in (`builtin:timer` reads `duration_ms` from the
//!   implementation clause — the paper's timer-input idiom), bound by
//!   its name alone,
//! - another *script*: §4.3 allows an implementation name to refer to a
//!   script ([`crate::WorkflowSystem::bind_script`]), and the executor
//!   runs it as a nested workflow synchronously in simulated time.
//!
//! A binding table is a value. Each executor holds an `Arc` of a frozen
//! one, as a deployed binary holds its code, and keeps it across a
//! restart. The façade keeps the master table: a bind or an unbind
//! edits the façade's copy, and the façade hands the new table to every
//! executor as an operator's input before the world next delivers
//! anything — so a rebind is ordered with every other input a node
//! takes, and no node shares a cell with another.

use std::collections::BTreeMap;
use std::sync::Arc;

use flowscript_sim::SimDuration;

use crate::msg::{Clause, ObjectMap, StartView};
use crate::value::{ObjectRef, ObjectVal};

/// Context handed to an implementation invocation: the start it runs
/// for, read where the executor received it. Its names, clause and
/// objects borrow the delivered bytes ([`InvokeCtx::inputs`],
/// [`InvokeCtx::implementation`]); [`ObjectRef::to_val`] copies an
/// object out.
#[derive(Debug, Clone, Copy)]
pub struct InvokeCtx<'a> {
    /// Task path within the instance.
    pub path: &'a str,
    /// The enclosing scope's incarnation this execution belongs to
    /// (0 initially; a compound repeat resets its subtree into a new
    /// incarnation — pure-function implementations can key retry
    /// behaviour on it instead of hidden state).
    pub incarnation: u32,
    /// Dispatch attempt (0 for the first try; retries increment).
    pub attempt: u32,
    /// The bound input set's name.
    pub set: &'a str,
    inputs: ObjectMap<'a>,
    repeat_objects: ObjectMap<'a>,
    implementation: Clause<'a>,
}

impl<'a> InvokeCtx<'a> {
    /// The context of `start`, borrowing it.
    pub(crate) fn of(start: &StartView<'a>) -> Self {
        InvokeCtx {
            path: start.at.path,
            incarnation: start.at.incarnation,
            attempt: start.at.attempt,
            set: start.set,
            inputs: start.inputs,
            repeat_objects: start.repeat_objects,
            implementation: start.implementation,
        }
    }

    /// Bound input objects by slot name, names ascending.
    pub fn inputs(&self) -> impl Iterator<Item = (&'a str, ObjectRef<'a>)> + Clone {
        self.inputs.entries()
    }

    /// The bound input object in slot `name`.
    pub fn input(&self, name: &str) -> Option<ObjectRef<'a>> {
        self.inputs.get(name)
    }

    /// The text payload of an input object (empty if missing).
    pub fn input_text(&self, name: &str) -> String {
        self.input(name)
            .map(|object| object.as_text().into_owned())
            .unwrap_or_default()
    }

    /// Objects from a previous repeat outcome of this task, by name —
    /// none unless re-executing.
    pub fn repeat_objects(&self) -> impl Iterator<Item = (&'a str, ObjectRef<'a>)> + Clone {
        self.repeat_objects.entries()
    }

    /// The repeat outcome's object called `name`.
    pub fn repeat_object(&self, name: &str) -> Option<ObjectRef<'a>> {
        self.repeat_objects.get(name)
    }

    /// Implementation pairs from the script (code, deadline, priority,
    /// …), keys ascending.
    pub fn implementation(&self) -> impl Iterator<Item = (&'a str, &'a str)> + Clone {
        self.implementation.pairs()
    }

    /// An implementation pair's value.
    pub fn impl_value(&self, key: &str) -> Option<&'a str> {
        self.implementation.get(key)
    }

    /// The typed scheduling hints of the implementation clause
    /// (location, priority, duration, deadline) — one extraction
    /// instead of ad-hoc string parsing per consumer.
    pub fn hints(&self) -> crate::sched::ImplHints {
        crate::sched::ImplHints::from_lookup(|key| self.impl_value(key))
    }
}

/// A mark emitted part-way through execution (early release, §4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct MarkEmission {
    /// Offset into the execution at which the mark appears.
    pub at: SimDuration,
    /// Mark output name.
    pub name: String,
    /// Objects released.
    pub objects: BTreeMap<String, ObjectVal>,
}

/// How an execution terminates.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The declared output name (outcome, abort outcome or repeat
    /// outcome of the task's class).
    pub outcome: String,
    /// Objects produced with it.
    pub objects: BTreeMap<String, ObjectVal>,
}

/// The full behaviour of one execution attempt: simulated work time,
/// marks along the way, and a terminal completion.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskBehavior {
    /// Simulated execution time before the completion.
    pub work: SimDuration,
    /// Marks emitted during execution.
    pub marks: Vec<MarkEmission>,
    /// Terminal result.
    pub completion: Completion,
    /// Delay before re-execution when the completion is a repeat outcome.
    pub redo_after: SimDuration,
}

impl TaskBehavior {
    /// A behaviour terminating in `outcome` with no objects and default
    /// work time (1ms simulated).
    pub fn outcome(outcome: impl Into<String>) -> Self {
        Self {
            work: SimDuration::from_millis(1),
            marks: Vec::new(),
            completion: Completion {
                outcome: outcome.into(),
                objects: BTreeMap::new(),
            },
            redo_after: SimDuration::ZERO,
        }
    }

    /// Sets the delay before re-execution (repeat outcomes only).
    pub fn with_redo_after(mut self, delay: SimDuration) -> Self {
        self.redo_after = delay;
        self
    }

    /// Adds an output object to the completion.
    pub fn with_object(mut self, name: impl Into<String>, value: ObjectVal) -> Self {
        self.completion.objects.insert(name.into(), value);
        self
    }

    /// Sets the simulated work duration.
    pub fn with_work(mut self, work: SimDuration) -> Self {
        self.work = work;
        self
    }

    /// Adds a mark emitted at `at` into the execution.
    pub fn with_mark(
        mut self,
        at: SimDuration,
        name: impl Into<String>,
        objects: impl IntoIterator<Item = (&'static str, ObjectVal)>,
    ) -> Self {
        self.marks.push(MarkEmission {
            at,
            name: name.into(),
            objects: objects
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        });
        self
    }
}

/// What a code name is bound to.
#[derive(Clone)]
pub(crate) enum Binding {
    /// A program: asked once per attempt for the behaviour to play out.
    Program(Arc<dyn Fn(&InvokeCtx<'_>) -> TaskBehavior + Send + Sync>),
    /// A script, run from its root compound as a nested workflow (§4.3).
    Script { source: String, root: String },
}

/// A frozen binding table, by code name: what every executor holds.
pub(crate) type Bindings = Arc<BTreeMap<String, Binding>>;

/// Built-in implementations.
///
/// - `builtin:timer`: waits `duration_ms` (from the implementation
///   clause) and terminates in outcome `fired` — the paper's §4.2 idiom
///   of an exceptional input set with a timer.
/// - `builtin:emit:<outcome>`: terminates immediately in `<outcome>`,
///   echoing its inputs as outputs (handy glue in tests/benches).
pub(crate) fn builtin(name: &str, ctx: &InvokeCtx<'_>) -> Result<TaskBehavior, String> {
    if name == "timer" {
        if ctx.impl_value("duration_ms").is_none() {
            return Err("builtin:timer needs a duration_ms implementation pair".to_string());
        }
        let millis = ctx
            .hints()
            .duration_ms
            .ok_or_else(|| "builtin:timer duration_ms must be an integer".to_string())?;
        return Ok(TaskBehavior::outcome("fired").with_work(SimDuration::from_millis(millis)));
    }
    if let Some(outcome) = name.strip_prefix("emit:") {
        let mut behavior = TaskBehavior::outcome(outcome);
        for (slot, value) in ctx.inputs() {
            behavior = behavior.with_object(slot, value.to_val());
        }
        return Ok(behavior);
    }
    Err(format!("unknown builtin `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Attempt, EngineMsg, StartTask};

    /// A delivered start of `root/t`, input `x` bound, its clause
    /// `clause`.
    fn start(clause: &[(&str, &str)]) -> Vec<u8> {
        let clause = clause.iter().map(|(k, v)| (k.to_string(), v.to_string()));
        flowscript_codec::to_bytes(&EngineMsg::Start(StartTask {
            at: Attempt {
                instance: "i".into(),
                path: "root/t".into(),
                incarnation: 0,
                attempt: 0,
            },
            ticket: 0,
            implementation: clause.collect(),
            set: "main".into(),
            inputs: BTreeMap::from([("x".to_string(), ObjectVal::text("C", "v"))]),
            repeat_objects: BTreeMap::new(),
        }))
    }

    /// The context of the start `bytes` hold.
    fn ctx(bytes: &[u8]) -> InvokeCtx<'_> {
        InvokeCtx::of(&StartView::read(bytes).expect("a start"))
    }

    /// A start whose clause says `duration_ms` 250.
    fn timed() -> Vec<u8> {
        start(&[("duration_ms", "250")])
    }

    /// The context reads the start in place: its inputs, clause and
    /// set, as the start carried them.
    #[test]
    fn a_context_reads_its_start_in_place() {
        let bytes = start(&[("code", "c"), ("location", "")]);
        let ctx = ctx(&bytes);
        assert_eq!((ctx.path, ctx.set), ("root/t", "main"));
        let inputs: Vec<_> = ctx
            .inputs()
            .map(|(name, object)| (name, object.to_val()))
            .collect();
        assert_eq!(inputs, [("x", ObjectVal::text("C", "v"))]);
        assert_eq!(ctx.input_text("x"), "v");
        assert_eq!(ctx.input_text("y"), "");
        assert_eq!(ctx.repeat_objects().count(), 0);
        assert!(ctx.repeat_object("x").is_none());
        let pairs: Vec<_> = ctx.implementation().collect();
        assert_eq!(pairs, [("code", "c"), ("location", "")]);
        assert_eq!(
            (ctx.impl_value("code"), ctx.impl_value("x")),
            (Some("c"), None)
        );
        assert_eq!(ctx.hints().location, None, "an empty label pins nothing");
    }

    #[test]
    fn builtin_timer_reads_duration() {
        let behavior = builtin("timer", &ctx(&timed())).unwrap();
        assert_eq!(behavior.work, SimDuration::from_millis(250));
        assert_eq!(behavior.completion.outcome, "fired");
    }

    #[test]
    fn builtin_timer_without_duration_errors() {
        let untimed = start(&[]);
        assert!(builtin("timer", &ctx(&untimed)).is_err());
    }

    #[test]
    fn builtin_emit_echoes_inputs() {
        let behavior = builtin("emit:ok", &ctx(&timed())).unwrap();
        assert_eq!(behavior.completion.outcome, "ok");
        assert_eq!(behavior.completion.objects["x"].as_text(), "v");
    }

    #[test]
    fn unknown_builtin_is_error() {
        assert!(builtin("frobnicate", &ctx(&timed())).is_err());
    }

    #[test]
    fn behavior_builder_composes() {
        let behavior = TaskBehavior::outcome("done")
            .with_work(SimDuration::from_secs(1))
            .with_mark(
                SimDuration::from_millis(100),
                "progress",
                [("cost", ObjectVal::text("Cost", "12"))],
            )
            .with_object("out", ObjectVal::text("C", "x"));
        assert_eq!(behavior.marks.len(), 1);
        assert_eq!(behavior.marks[0].objects["cost"].as_text(), "12");
        assert_eq!(behavior.work, SimDuration::from_secs(1));
    }
}
