//! Dynamic reconfiguration of running instances (paper §2/§3).
//!
//! The paper requires that "the structure of a running application
//! \[can be changed\] by adding/deleting tasks, notifications and
//! dependencies", carried out under atomic transactions. A [`Reconfig`]
//! value describes one such change, and a change is a **new version of
//! the instance's script**: [`apply`] edits the pinned source's syntax
//! tree and renders the edited script in canonical form. The coordinator
//! compiles that text as it compiles every script it runs — the ordinary
//! front end is the only validator, and the plan is compiled from
//! exactly the text the coordinator pins — so a reconfigured instance
//! cannot be told apart from one started on the edited script. The
//! coordinator commits the new version, the remap of the instance's
//! state onto it and the re-evaluation behind it as one step.

use flowscript_core::ast::{
    CompoundTaskDecl, Constituent, InputElem, InputSetBinding, Item, NotifSource,
    NotificationBinding, ObjectBinding, ObjectSource, OutputElem, Script, SourceCond,
};
use flowscript_core::{fmt, parse, parse_task_decl, template};

use crate::error::EngineError;

/// One structural change to a running instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reconfig {
    /// Add a task (given as script text, `task t of taskclass T {…}`)
    /// to the scope at `scope_path`.
    AddTask {
        /// Path of the compound scope receiving the task.
        scope_path: String,
        /// The task declaration source.
        task_source: String,
    },
    /// Remove the task at `task_path`, and every source drawing on it.
    /// Rejected if any sibling or output mapping would lose its *only*
    /// source.
    RemoveTask {
        /// Full path of the task to remove.
        task_path: String,
    },
    /// Append a notification dependency `producer if output outcome` to
    /// an input set of a task.
    AddNotification {
        /// Consumer task path.
        task_path: String,
        /// Input set name.
        set: String,
        /// Producing sibling task name.
        producer: String,
        /// Outcome to wait for.
        outcome: String,
    },
    /// Append an alternative source to an input object slot (redundant
    /// data sources — the paper's application-level fault tolerance).
    AddObjectSource {
        /// Consumer task path.
        task_path: String,
        /// Input set name.
        set: String,
        /// Input object slot.
        object: String,
        /// Producing sibling task name.
        producer: String,
        /// Object name at the producer.
        producer_object: String,
        /// Producer outcome carrying the object.
        outcome: String,
    },
    /// Remove every source drawing from `producer` in one object slot.
    RemoveObjectSource {
        /// Consumer task path.
        task_path: String,
        /// Input set name.
        set: String,
        /// Input object slot.
        object: String,
        /// Producer whose alternatives are removed.
        producer: String,
    },
    /// Rebind an implementation name for this instance (online upgrade):
    /// every `"code" is "<code>"` pair of its script now names `to`.
    Rebind {
        /// The implementation name some task's script names.
        code: String,
        /// The replacement implementation name.
        to: String,
    },
}

/// Applies `op` to `source`, the script of an instance whose root
/// compound is `root`: the edited script in canonical form. The
/// coordinator compiles it as it compiles every script it runs, and a
/// text the front end refuses is [`rejected`].
///
/// # Errors
///
/// [`EngineError::UnknownTask`] for a path that names no task or scope;
/// [`EngineError::ReconfigRejected`] for an op that addresses no input
/// set, object slot, source or implementation of the script;
/// [`EngineError::InvalidScript`] if `source` itself does not parse.
pub fn apply(source: &str, root: &str, op: &Reconfig) -> Result<String, EngineError> {
    let mut script = template::expand(parse(source)?)?;
    edit(&mut script, root, op)?;
    Ok(fmt::format_script(&script))
}

/// An edit refused, with why — the front end's diagnostics of the
/// edited text, or what the edit could not address.
pub(crate) fn rejected(why: impl ToString) -> EngineError {
    EngineError::ReconfigRejected(why.to_string())
}

/// Edits the syntax tree; checking the result is the front end's.
fn edit(script: &mut Script, root: &str, op: &Reconfig) -> Result<(), EngineError> {
    match op {
        Reconfig::AddTask {
            scope_path,
            task_source,
        } => {
            let task = parse_task_decl(task_source).map_err(rejected)?;
            let scope = compound(script, root, scope_path)?;
            scope.constituents.push(Constituent::Task(task));
        }
        Reconfig::RemoveTask { task_path } => {
            let (scope, at) = locate(script, root, task_path)?;
            let removed = scope.constituents.remove(at);
            let name = removed.name().as_str();
            // Every source drawing on it goes too: a slot or an input
            // notification left with none is the front end's to refuse,
            // an output notification left with none is dropped.
            for constituent in &mut scope.constituents {
                for set in bindings_mut(constituent) {
                    for element in &mut set.elements {
                        match element {
                            InputElem::Object(slot) => {
                                slot.sources.retain(|s| s.task.as_str() != name)
                            }
                            InputElem::Notification(notification) => {
                                notification.sources.retain(|s| s.task.as_str() != name)
                            }
                        }
                    }
                }
            }
            for mapping in &mut scope.outputs {
                mapping.elements.retain_mut(|element| match element {
                    OutputElem::Object(slot) => {
                        slot.sources.retain(|s| s.task.as_str() != name);
                        true
                    }
                    OutputElem::Notification(notification) => {
                        notification.sources.retain(|s| s.task.as_str() != name);
                        !notification.sources.is_empty()
                    }
                });
            }
        }
        Reconfig::AddNotification {
            task_path,
            set,
            producer,
            outcome,
        } => {
            let source = NotifSource {
                task: producer.as_str().into(),
                outcome: outcome.as_str().into(),
            };
            let notification = NotificationBinding {
                sources: vec![source],
            };
            let set = input_set(script, root, task_path, set)?;
            set.elements.push(InputElem::Notification(notification));
        }
        Reconfig::AddObjectSource {
            task_path,
            set,
            object,
            producer,
            producer_object,
            outcome,
        } => {
            let source = ObjectSource {
                object: producer_object.as_str().into(),
                task: producer.as_str().into(),
                cond: SourceCond::Output(outcome.as_str().into()),
            };
            input_object(script, root, task_path, set, object)?
                .sources
                .push(source);
        }
        Reconfig::RemoveObjectSource {
            task_path,
            set,
            object,
            producer,
        } => {
            let slot = input_object(script, root, task_path, set, object)?;
            let before = slot.sources.len();
            slot.sources.retain(|s| s.task.as_str() != producer);
            if slot.sources.len() == before {
                return Err(rejected(format!(
                    "no source from `{producer}` on `{task_path}`.{set}.{object}"
                )));
            }
        }
        Reconfig::Rebind { code, to } => {
            if rebind(compound(script, root, root)?, code, to) == 0 {
                return Err(rejected(format!("no task's implementation is `{code}`")));
            }
        }
    }
    Ok(())
}

/// The scope of the task at `task_path`, and where the task sits among
/// its constituents.
fn locate<'a>(
    script: &'a mut Script,
    root: &str,
    task_path: &str,
) -> Result<(&'a mut CompoundTaskDecl, usize), EngineError> {
    let unknown = || EngineError::UnknownTask(task_path.to_string());
    let (scope_path, name) = task_path.rsplit_once('/').ok_or_else(unknown)?;
    let scope = compound(script, root, scope_path)?;
    let at = scope
        .constituents
        .iter()
        .position(|c| c.name().as_str() == name);
    Ok((scope, at.ok_or_else(unknown)?))
}

/// The compound at `path`: the root, or a compound nested in it.
fn compound<'a>(
    script: &'a mut Script,
    root: &str,
    path: &str,
) -> Result<&'a mut CompoundTaskDecl, EngineError> {
    let unknown = || EngineError::UnknownTask(path.to_string());
    let mut segments = path.split('/');
    if segments.next() != Some(root) {
        return Err(unknown());
    }
    let mut scope = script
        .items
        .iter_mut()
        .find_map(|item| match item {
            Item::Compound(compound) if compound.name.as_str() == root => Some(compound),
            _ => None,
        })
        .ok_or_else(unknown)?;
    for segment in segments {
        let constituent = scope.constituents.iter_mut();
        let mut named = constituent.filter(|c| c.name().as_str() == segment);
        scope = match named.next().ok_or_else(unknown)? {
            Constituent::Compound(inner) => inner,
            _ => {
                return Err(rejected(format!(
                    "`{segment}` in `{path}` is not a compound task"
                )))
            }
        };
    }
    Ok(scope)
}

/// A constituent's input-set bindings (the expansion leaves no template
/// instance, which would bind none).
fn bindings_mut(constituent: &mut Constituent) -> &mut [InputSetBinding] {
    match constituent {
        Constituent::Task(task) => &mut task.input_sets,
        Constituent::Compound(compound) => &mut compound.input_sets,
        Constituent::TemplateInstance(_) => &mut [],
    }
}

/// The binding of input set `set` of the task at `task_path`.
fn input_set<'a>(
    script: &'a mut Script,
    root: &str,
    task_path: &str,
    set: &str,
) -> Result<&'a mut InputSetBinding, EngineError> {
    let (scope, at) = locate(script, root, task_path)?;
    let mut bindings = bindings_mut(&mut scope.constituents[at]).iter_mut();
    let binding = bindings.find(|b| b.name.as_str() == set);
    binding.ok_or_else(|| rejected(format!("task `{task_path}` binds no input set `{set}`")))
}

/// The binding of input object `object` in set `set` of `task_path`.
fn input_object<'a>(
    script: &'a mut Script,
    root: &str,
    task_path: &str,
    set: &str,
    object: &str,
) -> Result<&'a mut ObjectBinding, EngineError> {
    let elements = &mut input_set(script, root, task_path, set)?.elements;
    let slot = elements.iter_mut().find_map(|element| match element {
        InputElem::Object(slot) if slot.name.as_str() == object => Some(slot),
        _ => None,
    });
    slot.ok_or_else(|| {
        rejected(format!(
            "task `{task_path}` has no input object `{object}` in set `{set}`"
        ))
    })
}

/// Points every `"code" is "<code>"` pair under `scope` at `to`; how
/// many there were.
fn rebind(scope: &mut CompoundTaskDecl, code: &str, to: &str) -> usize {
    let rebound = scope
        .constituents
        .iter_mut()
        .map(|constituent| match constituent {
            Constituent::Task(task) => {
                let pairs = task.implementation.iter_mut();
                let named = pairs.filter(|pair| pair.key == "code" && pair.value == code);
                named.map(|pair| pair.value = to.to_string()).count()
            }
            Constituent::Compound(inner) => rebind(inner, code, to),
            Constituent::TemplateInstance(_) => 0,
        });
    rebound.sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowscript_core::samples;
    use flowscript_core::schema::{compile_source, Schema};
    use flowscript_plan::Plan;

    /// `op` applied to `source`, and the plan the edited text lowers to:
    /// what a coordinator compiles, a text the front end refuses
    /// rejected as the coordinator rejects it.
    fn edited(source: &str, op: &Reconfig) -> Result<(String, Plan), EngineError> {
        let text = apply(source, "diamond", op)?;
        let schema = compile_source(&text, "diamond").map_err(rejected)?;
        Ok((text, Plan::lower(&schema)))
    }

    fn diamond(op: Reconfig) -> Result<(String, Plan), EngineError> {
        edited(samples::FIG1_DIAMOND, &op)
    }

    /// The edited script as the front end compiles it.
    fn compiled(text: &str) -> Schema {
        compile_source(text, "diamond").expect("an applied edit compiles")
    }

    /// What the front end said of a refused edit.
    fn refusal(op: Reconfig) -> String {
        match diamond(op) {
            Err(EngineError::ReconfigRejected(why)) => why,
            other => panic!("not refused: {other:?}"),
        }
    }

    fn t5_source() -> String {
        r#"
            task t5 of taskclass Join {
                implementation { "code" is "refT5" };
                inputs {
                    input main {
                        inputobject left from { out of task t2 if output done };
                        inputobject right from { out of task t4 if output done }
                    }
                }
            }
        "#
        .into()
    }

    fn add_task(task_source: &str) -> Reconfig {
        Reconfig::AddTask {
            scope_path: "diamond".into(),
            task_source: task_source.into(),
        }
    }

    #[test]
    fn add_task_t5_like_paper_section2() {
        // The paper's §2 scenario: add t5 depending on t2 and t4.
        let (text, plan) = diamond(add_task(&t5_source())).unwrap();
        assert!(compiled(&text).root.task("t5").is_some());
        assert_eq!(plan.tasks.len(), 6);
        assert!(plan.task_by_path("diamond/t5").is_some());
        // Canonical: the text is its own formatting.
        let reparsed = flowscript_core::parse(&text).unwrap();
        assert_eq!(fmt::format_script(&reparsed), text);
    }

    #[test]
    fn add_task_duplicate_rejected() {
        let why = refusal(add_task("task t2 of taskclass Stage { }"));
        assert!(
            why.contains("duplicate task instance `t2` in scope"),
            "{why}"
        );
    }

    #[test]
    fn add_task_unknown_sibling_rejected() {
        let why = refusal(add_task(
            r#"
                task t9 of taskclass Stage {
                    inputs { input main {
                        inputobject in from { out of task ghost if output done }
                    } }
                }
            "#,
        ));
        assert!(why.contains("unknown task `ghost` in source"), "{why}");
    }

    #[test]
    fn remove_sole_source_rejected() {
        // t3 is the only source of t4's `right` input.
        let why = refusal(Reconfig::RemoveTask {
            task_path: "diamond/t3".into(),
        });
        assert!(
            why.contains("input object `right` of task `t4` has no sources"),
            "{why}"
        );
    }

    #[test]
    fn remove_with_alternatives_allowed() {
        // First give t4.right an alternative from t2, then t3 is removable.
        let (text, _) = diamond(Reconfig::AddObjectSource {
            task_path: "diamond/t4".into(),
            set: "main".into(),
            object: "right".into(),
            producer: "t2".into(),
            producer_object: "out".into(),
            outcome: "done".into(),
        })
        .unwrap();
        let remove = Reconfig::RemoveTask {
            task_path: "diamond/t3".into(),
        };
        let (text, plan) = edited(&text, &remove).unwrap();
        let schema = compiled(&text);
        assert!(schema.root.task("t3").is_none());
        assert!(plan.task_by_path("diamond/t3").is_none());
        // t4.right kept only the t2 alternative.
        let t4 = schema.root.task("t4").unwrap();
        let right = t4.input_sets[0]
            .objects
            .iter()
            .find(|o| o.name == "right")
            .unwrap();
        assert_eq!(right.sources.len(), 1);
        assert_eq!(right.sources[0].task, "t2");
    }

    #[test]
    fn remove_last_source_of_slot_rejected() {
        let why = refusal(Reconfig::RemoveObjectSource {
            task_path: "diamond/t4".into(),
            set: "main".into(),
            object: "right".into(),
            producer: "t3".into(),
        });
        assert!(
            why.contains("input object `right` of task `t4` has no sources"),
            "{why}"
        );
        // Removing what is not there is no edit either.
        let why = refusal(Reconfig::RemoveObjectSource {
            task_path: "diamond/t4".into(),
            set: "main".into(),
            object: "right".into(),
            producer: "t1".into(),
        });
        assert!(why.contains("no source from `t1`"), "{why}");
    }

    #[test]
    fn add_notification_appends() {
        let (text, _) = diamond(Reconfig::AddNotification {
            task_path: "diamond/t4".into(),
            set: "main".into(),
            producer: "t2".into(),
            outcome: "done".into(),
        })
        .unwrap();
        let schema = compiled(&text);
        let t4 = schema.root.task("t4").unwrap();
        assert_eq!(t4.input_sets[0].notifications.len(), 1);
        // One on an outcome its producer does not declare is refused.
        let why = refusal(Reconfig::AddNotification {
            task_path: "diamond/t4".into(),
            set: "main".into(),
            producer: "t2".into(),
            outcome: "ghost".into(),
        });
        assert!(
            why.contains("taskclass `NotifiedStage` has no output `ghost`"),
            "{why}"
        );
    }

    #[test]
    fn unknown_scope_rejected() {
        let op = Reconfig::AddTask {
            scope_path: "diamond/nonexistent".into(),
            task_source: "task x of taskclass Stage { }".into(),
        };
        assert!(matches!(diamond(op), Err(EngineError::UnknownTask(_))));
        // A leaf is no scope.
        let op = Reconfig::AddTask {
            scope_path: "diamond/t1".into(),
            task_source: "task x of taskclass Stage { }".into(),
        };
        assert!(refusal(op).contains("is not a compound task"));
    }

    #[test]
    fn a_rebind_changes_only_implementation_pairs() {
        let canonical = |source: &str| {
            let script = template::expand(parse(source).unwrap()).unwrap();
            fmt::format_script(&script)
        };
        let (text, plan) = diamond(Reconfig::Rebind {
            code: "refT1".into(),
            to: "refT1v2".into(),
        })
        .unwrap();
        let original = canonical(samples::FIG1_DIAMOND);
        assert_eq!(text, original.replace("\"refT1\"", "\"refT1v2\""));
        let t1 = plan.task_by_path("diamond/t1").unwrap();
        assert_eq!(
            plan.code(plan.task(t1)).map(|code| &**code),
            Some("refT1v2")
        );
        // A code no task names — the one just replaced among them — is
        // no rebind at all.
        let rebind = Reconfig::Rebind {
            code: "refT1".into(),
            to: "refT1v3".into(),
        };
        match apply(&text, "diamond", &rebind) {
            Err(EngineError::ReconfigRejected(why)) => {
                assert!(why.contains("no task's implementation is `refT1`"), "{why}")
            }
            other => panic!("rebound a code no task names: {other:?}"),
        }
    }
}
