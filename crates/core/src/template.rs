//! Task template expansion (paper §4.5).
//!
//! `tasktemplate` declarations are parameterised task definitions; an
//! instantiation `t of tasktemplate tt(a, b)` becomes an ordinary task
//! whose source-task references have the formal parameters replaced by the
//! argument task names. [`expand`] rewrites a script so that no template
//! instances remain; the result is checked and compiled like any other
//! script.

use std::collections::BTreeMap;

use crate::ast::*;
use crate::diag::{Diagnostic, Diagnostics};

/// Expands every template instantiation in `script`.
///
/// Template declarations are retained (they are harmless and keep the
/// script self-describing); instances become [`TaskDecl`]s.
///
/// # Errors
///
/// Unknown templates or argument-count mismatches (normally caught
/// earlier by [`crate::sema::check`]).
///
/// ```
/// let source = r#"
///     class C;
///     taskclass P {
///         inputs { input main { seed of class C } };
///         outputs { outcome done { out of class C } }
///     }
///     taskclass W {
///         inputs { input main { in of class C } };
///         outputs { outcome done { } }
///     }
///     tasktemplate task watcher of taskclass W {
///         parameters { upstream };
///         inputs { input main { inputobject in from { out of task upstream if output done } } }
///     }
///     task p of taskclass P {
///         inputs { input main { inputobject seed from { seed of task p if input main } } }
///     }
///     w1 of tasktemplate watcher(p)
/// "#;
/// let script = flowscript_core::parse(source)?;
/// let expanded = flowscript_core::template::expand(script)?;
/// // The instance became a plain task.
/// assert!(expanded.items.iter().any(|i| matches!(
///     i,
///     flowscript_core::ast::Item::Task(t) if t.name.as_str() == "w1"
/// )));
/// # Ok::<(), flowscript_core::Diagnostics>(())
/// ```
pub fn expand(script: Script) -> Result<Script, Diagnostics> {
    // Owned, so the items can move out of the script below.
    let templates: BTreeMap<String, TemplateDecl> = script
        .items
        .iter()
        .filter_map(|item| match item {
            Item::Template(t) => Some((t.name.name.clone(), t.clone())),
            _ => None,
        })
        .collect();

    let mut diags = Diagnostics::new();
    let mut items = Vec::with_capacity(script.items.len());
    for item in script.items {
        match item {
            Item::TemplateInstance(instance) => {
                match instantiate(&instance, &templates, &mut diags) {
                    Some(task) => items.push(Item::Task(task)),
                    None => items.push(Item::TemplateInstance(instance)),
                }
            }
            Item::Compound(compound) => {
                items.push(Item::Compound(expand_compound(
                    compound, &templates, &mut diags,
                )));
            }
            other => items.push(other),
        }
    }
    if diags.has_errors() {
        Err(diags)
    } else {
        Ok(Script { items })
    }
}

fn expand_compound(
    mut compound: CompoundTaskDecl,
    templates: &BTreeMap<String, TemplateDecl>,
    diags: &mut Diagnostics,
) -> CompoundTaskDecl {
    compound.constituents = std::mem::take(&mut compound.constituents)
        .into_iter()
        .map(|constituent| match constituent {
            Constituent::TemplateInstance(instance) => {
                match instantiate(&instance, templates, diags) {
                    Some(task) => Constituent::Task(task),
                    None => Constituent::TemplateInstance(instance),
                }
            }
            Constituent::Compound(inner) => {
                Constituent::Compound(expand_compound(inner, templates, diags))
            }
            task @ Constituent::Task(_) => task,
        })
        .collect();
    compound
}

fn instantiate(
    instance: &TemplateInstanceDecl,
    templates: &BTreeMap<String, TemplateDecl>,
    diags: &mut Diagnostics,
) -> Option<TaskDecl> {
    let Some(template) = templates.get(instance.template.as_str()) else {
        diags.push(Diagnostic::error(
            format!("unknown tasktemplate `{}`", instance.template),
            instance.template.span,
        ));
        return None;
    };
    if template.params.len() != instance.args.len() {
        diags.push(Diagnostic::error(
            format!(
                "tasktemplate `{}` expects {} argument(s), got {}",
                instance.template,
                template.params.len(),
                instance.args.len()
            ),
            instance.name.span,
        ));
        return None;
    }
    let substitution: BTreeMap<&str, &Ident> = template
        .params
        .iter()
        .map(|p| p.as_str())
        .zip(instance.args.iter())
        .collect();

    let input_sets = template
        .input_sets
        .iter()
        .map(|binding| substitute_binding(binding, &substitution))
        .collect();

    Some(TaskDecl {
        name: instance.name.clone(),
        class: template.class.clone(),
        implementation: template.implementation.clone(),
        input_sets,
        span: instance.span,
    })
}

fn substitute_binding(
    binding: &InputSetBinding,
    substitution: &BTreeMap<&str, &Ident>,
) -> InputSetBinding {
    InputSetBinding {
        name: binding.name.clone(),
        elements: binding
            .elements
            .iter()
            .map(|element| match element {
                InputElem::Object(object) => InputElem::Object(ObjectBinding {
                    name: object.name.clone(),
                    sources: object
                        .sources
                        .iter()
                        .map(|source| ObjectSource {
                            object: source.object.clone(),
                            task: substitute(&source.task, substitution),
                            cond: source.cond.clone(),
                        })
                        .collect(),
                }),
                InputElem::Notification(notification) => {
                    InputElem::Notification(NotificationBinding {
                        sources: notification
                            .sources
                            .iter()
                            .map(|source| NotifSource {
                                task: substitute(&source.task, substitution),
                                outcome: source.outcome.clone(),
                            })
                            .collect(),
                    })
                }
            })
            .collect(),
    }
}

fn substitute(task: &Ident, substitution: &BTreeMap<&str, &Ident>) -> Ident {
    match substitution.get(task.as_str()) {
        Some(argument) => Ident {
            name: argument.name.clone(),
            span: task.span,
        },
        None => task.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const TEMPLATE_SCRIPT: &str = r#"
        class C;
        taskclass P {
            inputs { input main { seed of class C } };
            outputs { outcome done { out of class C } }
        }
        taskclass Join {
            inputs { input main { left of class C; right of class C } };
            outputs { outcome done { } }
        }
        tasktemplate task joiner of taskclass Join {
            parameters { lhs; rhs };
            implementation { "code" is "refJoin" };
            inputs {
                input main {
                    inputobject left from { out of task lhs if output done };
                    inputobject right from { out of task rhs if output done }
                }
            }
        }
        task p1 of taskclass P {
            inputs { input main { inputobject seed from { seed of task p1 if input main } } }
        }
        task p2 of taskclass P {
            inputs { input main { inputobject seed from { seed of task p2 if input main } } }
        }
        j of tasktemplate joiner(p1, p2)
    "#;

    #[test]
    fn instance_becomes_task_with_substituted_sources() {
        let script = parse(TEMPLATE_SCRIPT).unwrap();
        let expanded = expand(script).unwrap();
        let task = expanded
            .items
            .iter()
            .find_map(|item| match item {
                Item::Task(t) if t.name.as_str() == "j" => Some(t),
                _ => None,
            })
            .expect("expanded task j");
        assert_eq!(task.class.as_str(), "Join");
        assert_eq!(task.implementation[0].value, "refJoin");
        let InputElem::Object(left) = &task.input_sets[0].elements[0] else {
            panic!();
        };
        assert_eq!(left.sources[0].task.as_str(), "p1");
        let InputElem::Object(right) = &task.input_sets[0].elements[1] else {
            panic!();
        };
        assert_eq!(right.sources[0].task.as_str(), "p2");
    }

    #[test]
    fn expanded_script_passes_sema() {
        let script = parse(TEMPLATE_SCRIPT).unwrap();
        let expanded = expand(script).unwrap();
        crate::sema::check(&expanded).expect("expanded script is valid");
    }

    #[test]
    fn arity_mismatch_reported() {
        let source = TEMPLATE_SCRIPT.replace("joiner(p1, p2)", "joiner(p1)");
        let script = parse(&source).unwrap();
        let err = expand(script).unwrap_err();
        assert!(err.to_string().contains("expects 2 argument(s), got 1"));
    }

    #[test]
    fn unknown_template_reported() {
        let source = TEMPLATE_SCRIPT.replace(
            "j of tasktemplate joiner(p1, p2)",
            "j of tasktemplate ghost(p1, p2)",
        );
        let script = parse(&source).unwrap();
        let err = expand(script).unwrap_err();
        assert!(err.to_string().contains("unknown tasktemplate `ghost`"));
    }

    #[test]
    fn scripts_without_templates_unchanged() {
        let script = parse(crate::samples::ORDER_PROCESSING).unwrap();
        let expanded = expand(script.clone()).unwrap();
        assert_eq!(script, expanded);
    }
}
