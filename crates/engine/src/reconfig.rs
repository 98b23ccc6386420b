//! Dynamic reconfiguration of running instances (paper §2/§3).
//!
//! The paper requires that "the structure of a running application
//! \[can be changed\] by adding/deleting tasks, notifications and
//! dependencies", carried out under atomic transactions. A [`Reconfig`]
//! value describes one such change; [`apply`] validates it against the
//! instance's schema and mutates the schema, reporting which control
//! blocks the engine must create or delete. The coordinator persists the
//! op (for recovery replay) and the control-block changes in a single
//! atomic action.

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use flowscript_core::parse_task_decl;
use flowscript_core::schema::{
    compile_task_fragment, CompiledCond, CompiledNotification, CompiledScope, CompiledSource,
    Schema, TaskBody,
};

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
    /// Remove the task at `task_path`. Rejected if any sibling or output
    /// mapping would lose its *only* source.
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
    /// Rebind an implementation name for this instance (online upgrade).
    Rebind {
        /// The script's implementation name.
        code: String,
        /// The replacement implementation name.
        to: String,
    },
}

impl Encode for Reconfig {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Reconfig::AddTask {
                scope_path,
                task_source,
            } => {
                w.put_u8(0);
                w.put_str(scope_path);
                w.put_str(task_source);
            }
            Reconfig::RemoveTask { task_path } => {
                w.put_u8(1);
                w.put_str(task_path);
            }
            Reconfig::AddNotification {
                task_path,
                set,
                producer,
                outcome,
            } => {
                w.put_u8(2);
                w.put_str(task_path);
                w.put_str(set);
                w.put_str(producer);
                w.put_str(outcome);
            }
            Reconfig::AddObjectSource {
                task_path,
                set,
                object,
                producer,
                producer_object,
                outcome,
            } => {
                w.put_u8(3);
                w.put_str(task_path);
                w.put_str(set);
                w.put_str(object);
                w.put_str(producer);
                w.put_str(producer_object);
                w.put_str(outcome);
            }
            Reconfig::RemoveObjectSource {
                task_path,
                set,
                object,
                producer,
            } => {
                w.put_u8(4);
                w.put_str(task_path);
                w.put_str(set);
                w.put_str(object);
                w.put_str(producer);
            }
            Reconfig::Rebind { code, to } => {
                w.put_u8(5);
                w.put_str(code);
                w.put_str(to);
            }
        }
    }
}

impl Decode for Reconfig {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => Reconfig::AddTask {
                scope_path: r.get_str()?.to_owned(),
                task_source: r.get_str()?.to_owned(),
            },
            1 => Reconfig::RemoveTask {
                task_path: r.get_str()?.to_owned(),
            },
            2 => Reconfig::AddNotification {
                task_path: r.get_str()?.to_owned(),
                set: r.get_str()?.to_owned(),
                producer: r.get_str()?.to_owned(),
                outcome: r.get_str()?.to_owned(),
            },
            3 => Reconfig::AddObjectSource {
                task_path: r.get_str()?.to_owned(),
                set: r.get_str()?.to_owned(),
                object: r.get_str()?.to_owned(),
                producer: r.get_str()?.to_owned(),
                producer_object: r.get_str()?.to_owned(),
                outcome: r.get_str()?.to_owned(),
            },
            4 => Reconfig::RemoveObjectSource {
                task_path: r.get_str()?.to_owned(),
                set: r.get_str()?.to_owned(),
                object: r.get_str()?.to_owned(),
                producer: r.get_str()?.to_owned(),
            },
            5 => Reconfig::Rebind {
                code: r.get_str()?.to_owned(),
                to: r.get_str()?.to_owned(),
            },
            other => {
                return Err(CodecError::InvalidDiscriminant {
                    ty: "Reconfig",
                    value: u64::from(other),
                })
            }
        })
    }
}

/// Control-block changes the engine must persist alongside the schema
/// mutation. (A removed task needs none: its block and facts are keyed
/// by its task id, and die when the remap onto the new plan finds no
/// task to move them to.)
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReconfigEffects {
    /// Full paths of tasks added (need fresh control blocks).
    pub new_tasks: Vec<String>,
}

/// Validates and applies one reconfiguration to a schema.
///
/// # Errors
///
/// [`EngineError::ReconfigRejected`] (schema untouched on the validation
/// failures that can be pre-checked; the coordinator applies `apply` to a
/// *clone*, so any error leaves the live schema untouched).
pub fn apply(schema: &mut Schema, op: &Reconfig) -> Result<ReconfigEffects, EngineError> {
    let mut effects = ReconfigEffects::default();
    match op {
        Reconfig::AddTask {
            scope_path,
            task_source,
        } => {
            let decl = parse_task_decl(task_source)
                .map_err(|d| EngineError::ReconfigRejected(d.to_string()))?;
            let task_classes = schema.task_classes.clone();
            let scope_name = scope_path
                .rsplit('/')
                .next()
                .unwrap_or(scope_path)
                .to_string();
            let compiled = compile_task_fragment(&decl, &scope_name, &task_classes)
                .map_err(|d| EngineError::ReconfigRejected(d.to_string()))?;
            let scope = scope_mut(schema, scope_path)?;
            if scope.task(&compiled.name).is_some() {
                return Err(EngineError::ReconfigRejected(format!(
                    "task `{}` already exists in `{scope_path}`",
                    compiled.name
                )));
            }
            // Sources must reference the scope itself or existing
            // siblings.
            for set in &compiled.input_sets {
                for slot in &set.objects {
                    for source in &slot.sources {
                        validate_source(scope, &scope_name, source)?;
                    }
                }
                for notification in &set.notifications {
                    for source in &notification.sources {
                        validate_source(scope, &scope_name, source)?;
                    }
                }
            }
            effects
                .new_tasks
                .push(format!("{scope_path}/{}", compiled.name));
            scope.tasks.push(compiled);
        }
        Reconfig::RemoveTask { task_path } => {
            let (scope_path, task_name) = split_path(task_path)?;
            let scope = scope_mut(schema, &scope_path)?;
            let Some(index) = scope.tasks.iter().position(|t| t.name == task_name) else {
                return Err(EngineError::UnknownTask(task_path.clone()));
            };
            // No sibling slot or output mapping may lose its only source.
            let mut dependents = Vec::new();
            for sibling in &scope.tasks {
                if sibling.name == task_name {
                    continue;
                }
                for set in &sibling.input_sets {
                    for slot in &set.objects {
                        let all_from_target = !slot.sources.is_empty()
                            && slot
                                .sources
                                .iter()
                                .all(|s| !s.is_self && s.task == task_name);
                        if all_from_target {
                            dependents.push(format!("{}/{}", sibling.name, slot.name));
                        }
                    }
                    for notification in &set.notifications {
                        let all_from_target = !notification.sources.is_empty()
                            && notification
                                .sources
                                .iter()
                                .all(|s| !s.is_self && s.task == task_name);
                        if all_from_target {
                            dependents.push(format!("{} (notification)", sibling.name));
                        }
                    }
                }
            }
            for output in &scope.outputs {
                for slot in &output.objects {
                    let all_from_target = !slot.sources.is_empty()
                        && slot
                            .sources
                            .iter()
                            .all(|s| !s.is_self && s.task == task_name);
                    if all_from_target {
                        dependents.push(format!("output {}", output.name));
                    }
                }
            }
            if !dependents.is_empty() {
                return Err(EngineError::ReconfigRejected(format!(
                    "removing `{task_path}` would orphan: {}",
                    dependents.join(", ")
                )));
            }
            scope.tasks.remove(index);
            // Drop any remaining references to the removed task from
            // sibling alternatives (they had others, by the check above).
            let scope = scope_mut(schema, &scope_path)?;
            for sibling in &mut scope.tasks {
                for set in &mut sibling.input_sets {
                    for slot in &mut set.objects {
                        slot.sources.retain(|s| s.is_self || s.task != task_name);
                    }
                    for notification in &mut set.notifications {
                        notification
                            .sources
                            .retain(|s| s.is_self || s.task != task_name);
                    }
                    set.notifications.retain(|n| !n.sources.is_empty());
                }
            }
            for output in &mut scope.outputs {
                for slot in &mut output.objects {
                    slot.sources.retain(|s| s.is_self || s.task != task_name);
                }
                for notification in &mut output.notifications {
                    notification
                        .sources
                        .retain(|s| s.is_self || s.task != task_name);
                }
                output.notifications.retain(|n| !n.sources.is_empty());
            }
        }
        Reconfig::AddNotification {
            task_path,
            set,
            producer,
            outcome,
        } => {
            let (scope_path, task_name) = split_path(task_path)?;
            let scope_name = scope_path
                .rsplit('/')
                .next()
                .unwrap_or(&scope_path)
                .to_string();
            let source = CompiledSource {
                task: producer.clone(),
                is_self: *producer == scope_name,
                object: None,
                cond: CompiledCond::Output(outcome.clone()),
            };
            {
                let scope = scope_mut(schema, &scope_path)?;
                validate_source(scope, &scope_name, &source)?;
                let task = task_mut(scope, &task_name, task_path)?;
                let Some(input_set) = task.input_sets.iter_mut().find(|s| s.name == *set) else {
                    return Err(EngineError::ReconfigRejected(format!(
                        "task `{task_path}` binds no input set `{set}`"
                    )));
                };
                input_set.notifications.push(CompiledNotification {
                    sources: vec![source],
                });
            }
        }
        Reconfig::AddObjectSource {
            task_path,
            set,
            object,
            producer,
            producer_object,
            outcome,
        } => {
            let (scope_path, task_name) = split_path(task_path)?;
            let scope_name = scope_path
                .rsplit('/')
                .next()
                .unwrap_or(&scope_path)
                .to_string();
            let source = CompiledSource {
                task: producer.clone(),
                is_self: *producer == scope_name,
                object: Some(producer_object.clone()),
                cond: CompiledCond::Output(outcome.clone()),
            };
            let scope = scope_mut(schema, &scope_path)?;
            validate_source(scope, &scope_name, &source)?;
            let task = task_mut(scope, &task_name, task_path)?;
            let Some(input_set) = task.input_sets.iter_mut().find(|s| s.name == *set) else {
                return Err(EngineError::ReconfigRejected(format!(
                    "task `{task_path}` binds no input set `{set}`"
                )));
            };
            let Some(slot) = input_set.objects.iter_mut().find(|o| o.name == *object) else {
                return Err(EngineError::ReconfigRejected(format!(
                    "task `{task_path}` has no input object `{object}` in set `{set}`"
                )));
            };
            slot.sources.push(source);
        }
        Reconfig::RemoveObjectSource {
            task_path,
            set,
            object,
            producer,
        } => {
            let (scope_path, task_name) = split_path(task_path)?;
            let scope = scope_mut(schema, &scope_path)?;
            let task = task_mut(scope, &task_name, task_path)?;
            let Some(input_set) = task.input_sets.iter_mut().find(|s| s.name == *set) else {
                return Err(EngineError::ReconfigRejected(format!(
                    "task `{task_path}` binds no input set `{set}`"
                )));
            };
            let Some(slot) = input_set.objects.iter_mut().find(|o| o.name == *object) else {
                return Err(EngineError::ReconfigRejected(format!(
                    "task `{task_path}` has no input object `{object}` in set `{set}`"
                )));
            };
            let before = slot.sources.len();
            let remaining: Vec<CompiledSource> = slot
                .sources
                .iter()
                .filter(|s| s.is_self || s.task != *producer)
                .cloned()
                .collect();
            if remaining.is_empty() {
                return Err(EngineError::ReconfigRejected(format!(
                    "removing sources from `{producer}` would leave `{object}` sourceless"
                )));
            }
            if remaining.len() == before {
                return Err(EngineError::ReconfigRejected(format!(
                    "no source from `{producer}` on `{task_path}`.{set}.{object}"
                )));
            }
            slot.sources = remaining;
        }
        Reconfig::Rebind { .. } => {
            // Schema untouched; the coordinator records the binding.
        }
    }
    Ok(effects)
}

fn split_path(task_path: &str) -> Result<(String, String), EngineError> {
    task_path
        .rsplit_once('/')
        .map(|(scope, name)| (scope.to_string(), name.to_string()))
        .ok_or_else(|| EngineError::UnknownTask(task_path.to_string()))
}

/// Finds the mutable scope with the given path.
fn scope_mut<'a>(
    schema: &'a mut Schema,
    scope_path: &str,
) -> Result<&'a mut CompiledScope, EngineError> {
    let mut segments = scope_path.split('/');
    let root = segments
        .next()
        .ok_or_else(|| EngineError::UnknownTask(scope_path.to_string()))?;
    if root != schema.root.name {
        return Err(EngineError::UnknownTask(scope_path.to_string()));
    }
    let mut scope = &mut schema.root;
    for segment in segments {
        let task = scope
            .tasks
            .iter_mut()
            .find(|t| t.name == segment)
            .ok_or_else(|| EngineError::UnknownTask(scope_path.to_string()))?;
        match &mut task.body {
            TaskBody::Scope(inner) => scope = inner,
            TaskBody::Leaf => {
                return Err(EngineError::ReconfigRejected(format!(
                    "`{segment}` in `{scope_path}` is not a compound task"
                )))
            }
        }
    }
    Ok(scope)
}

fn task_mut<'a>(
    scope: &'a mut CompiledScope,
    name: &str,
    full_path: &str,
) -> Result<&'a mut flowscript_core::schema::CompiledTask, EngineError> {
    scope
        .tasks
        .iter_mut()
        .find(|t| t.name == name)
        .ok_or_else(|| EngineError::UnknownTask(full_path.to_string()))
}

/// Checks a source refers to the scope itself or an existing sibling, and
/// that the producer actually declares the referenced output/object.
fn validate_source(
    scope: &CompiledScope,
    scope_name: &str,
    source: &CompiledSource,
) -> Result<(), EngineError> {
    if source.is_self || source.task == scope_name {
        return Ok(());
    }
    let Some(_producer) = scope.task(&source.task) else {
        return Err(EngineError::ReconfigRejected(format!(
            "source references unknown task `{}`",
            source.task
        )));
    };
    if let CompiledCond::Output(outcome) = &source.cond {
        if outcome == "retry" || outcome.is_empty() {
            // Repeat outcomes are private to their producer (§4.2); we
            // cannot check kinds without the class table here, so the
            // coordinator's schema-level validation is authoritative.
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowscript_core::samples;
    use flowscript_core::schema::compile_source;

    fn diamond() -> Schema {
        compile_source(samples::FIG1_DIAMOND, "diamond").unwrap()
    }

    #[test]
    fn ops_roundtrip_codec() {
        let ops = vec![
            Reconfig::AddTask {
                scope_path: "diamond".into(),
                task_source: "task t5 of taskclass Stage { }".into(),
            },
            Reconfig::RemoveTask {
                task_path: "diamond/t2".into(),
            },
            Reconfig::AddNotification {
                task_path: "diamond/t4".into(),
                set: "main".into(),
                producer: "t2".into(),
                outcome: "done".into(),
            },
            Reconfig::AddObjectSource {
                task_path: "diamond/t4".into(),
                set: "main".into(),
                object: "left".into(),
                producer: "t3".into(),
                producer_object: "out".into(),
                outcome: "done".into(),
            },
            Reconfig::RemoveObjectSource {
                task_path: "diamond/t4".into(),
                set: "main".into(),
                object: "left".into(),
                producer: "t2".into(),
            },
            Reconfig::Rebind {
                code: "refT1".into(),
                to: "refT1v2".into(),
            },
        ];
        for op in ops {
            let bytes = flowscript_codec::to_bytes(&op);
            assert_eq!(
                flowscript_codec::from_bytes::<Reconfig>(&bytes).unwrap(),
                op
            );
        }
    }

    #[test]
    fn add_task_t5_like_paper_section2() {
        // The paper's §2 scenario: add t5 depending on t2 and t4.
        let mut schema = diamond();
        let effects = apply(
            &mut schema,
            &Reconfig::AddTask {
                scope_path: "diamond".into(),
                task_source: r#"
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
                .into(),
            },
        )
        .unwrap();
        assert_eq!(effects.new_tasks, vec!["diamond/t5".to_string()]);
        assert!(schema.root.task("t5").is_some());
    }

    #[test]
    fn add_task_duplicate_rejected() {
        let mut schema = diamond();
        let err = apply(
            &mut schema,
            &Reconfig::AddTask {
                scope_path: "diamond".into(),
                task_source: "task t2 of taskclass Stage { }".into(),
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("already exists"));
    }

    #[test]
    fn add_task_unknown_sibling_rejected() {
        let mut schema = diamond();
        let err = apply(
            &mut schema,
            &Reconfig::AddTask {
                scope_path: "diamond".into(),
                task_source: r#"
                    task t9 of taskclass Stage {
                        inputs { input main {
                            inputobject in from { out of task ghost if output done }
                        } }
                    }
                "#
                .into(),
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown task `ghost`"));
    }

    #[test]
    fn remove_sole_source_rejected() {
        let mut schema = diamond();
        // t3 is the only source of t4's `right` input.
        let err = apply(
            &mut schema,
            &Reconfig::RemoveTask {
                task_path: "diamond/t3".into(),
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("would orphan"));
    }

    #[test]
    fn remove_with_alternatives_allowed() {
        let mut schema = diamond();
        // First give t4.right an alternative from t2, then t3 is removable.
        apply(
            &mut schema,
            &Reconfig::AddObjectSource {
                task_path: "diamond/t4".into(),
                set: "main".into(),
                object: "right".into(),
                producer: "t2".into(),
                producer_object: "out".into(),
                outcome: "done".into(),
            },
        )
        .unwrap();
        let effects = apply(
            &mut schema,
            &Reconfig::RemoveTask {
                task_path: "diamond/t3".into(),
            },
        )
        .unwrap();
        assert!(effects.new_tasks.is_empty());
        assert!(schema.root.task("t3").is_none());
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
        let mut schema = diamond();
        let err = apply(
            &mut schema,
            &Reconfig::RemoveObjectSource {
                task_path: "diamond/t4".into(),
                set: "main".into(),
                object: "right".into(),
                producer: "t3".into(),
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("sourceless"));
    }

    #[test]
    fn add_notification_appends() {
        let mut schema = diamond();
        apply(
            &mut schema,
            &Reconfig::AddNotification {
                task_path: "diamond/t4".into(),
                set: "main".into(),
                producer: "t2".into(),
                outcome: "done".into(),
            },
        )
        .unwrap();
        let t4 = schema.root.task("t4").unwrap();
        assert_eq!(t4.input_sets[0].notifications.len(), 1);
    }

    #[test]
    fn unknown_scope_rejected() {
        let mut schema = diamond();
        let err = apply(
            &mut schema,
            &Reconfig::AddTask {
                scope_path: "diamond/nonexistent".into(),
                task_source: "task x of taskclass Stage { }".into(),
            },
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::UnknownTask(_)));
    }

    #[test]
    fn rebind_leaves_schema_untouched() {
        let mut schema = diamond();
        let before = schema.clone();
        let effects = apply(
            &mut schema,
            &Reconfig::Rebind {
                code: "refT1".into(),
                to: "refT1v2".into(),
            },
        )
        .unwrap();
        assert_eq!(schema, before);
        assert!(effects.new_tasks.is_empty());
    }
}
