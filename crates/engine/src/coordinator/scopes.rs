//! Compound-task scopes: publishing a scope's marks, terminating it
//! (cancelling whatever is still live below), and the scope-level
//! repeat of fig. 8.

use flowscript_core::ast::OutputKind;
use flowscript_obs::ObsEventKind;
use flowscript_plan::{Plan, StrId, TaskId, Worklist};
use flowscript_sim::World;
use flowscript_tx::{AtomicAction, StableStore, StoreKey, TxManager};

use super::{CoordHandle, InstanceStatus, Outcome};
use crate::error::EngineError;
use crate::facts;
use crate::keys::InstanceKeys;
use crate::state::{CbState, TaskCb};
use crate::value::ObjectVal;

impl CoordHandle {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn emit_scope_mark(
        &self,
        now_ns: u64,
        instance: &str,
        plan: &Plan,
        keys: &InstanceKeys,
        scope_id: TaskId,
        out_idx: usize,
        mapped: &[(StrId, ObjectVal)],
    ) -> Result<(), EngineError> {
        let output = &plan.outputs[out_idx];
        let mark = plan.str(output.name);
        let scope_path = plan.str(plan.task(scope_id).path);
        let out_key = keys
            .out_key(plan, scope_id, mark)
            .ok_or_else(|| EngineError::UnknownTask(scope_path.to_string()))?;
        let mut coordinator = self.inner.borrow_mut();
        let Some(mut cb) = coordinator.read_cb_id(keys, scope_id) else {
            return Err(EngineError::UnknownTask(scope_path.to_string()));
        };
        cb.marks_emitted.push(mark.to_string());
        let whole = coordinator.config.whole_record_facts;
        let action = coordinator.mgr.begin();
        coordinator.mgr.write(&action, keys.cb(scope_id), &cb)?;
        facts::write_fact_bound(
            &mut coordinator.mgr,
            &action,
            plan,
            out_key,
            output.slots,
            mapped,
            whole,
        )?;
        coordinator.commit(action)?;
        // Count the mark only now that it committed.
        coordinator.metrics.marks.inc();
        coordinator.record_event(
            now_ns,
            instance,
            Some(scope_path),
            cb.attempt,
            coordinator.commit_event(format!("mark `{mark}`")),
        );
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn terminate_scope(
        &self,
        world: &mut World,
        instance: &str,
        plan: &Plan,
        keys: &InstanceKeys,
        scope_id: TaskId,
        out_idx: usize,
        kind: OutputKind,
        mapped: Vec<(StrId, ObjectVal)>,
    ) {
        let output = &plan.outputs[out_idx];
        let outcome_name = plan.str(output.name);
        let scope_path = plan.str(plan.task(scope_id).path);
        let is_root = !scope_path.contains('/');
        let Some(out_key) = keys.out_key(plan, scope_id, outcome_name) else {
            return;
        };
        {
            let mut coordinator = self.inner.borrow_mut();
            let Some(mut cb) = coordinator.read_cb_id(keys, scope_id) else {
                return;
            };
            cb.transition(if kind == OutputKind::Outcome {
                CbState::Done {
                    outcome: outcome_name.to_string(),
                }
            } else {
                CbState::Aborted {
                    outcome: outcome_name.to_string(),
                }
            });
            let whole = coordinator.config.whole_record_facts;
            let action = coordinator.mgr.begin();
            let mut ok = coordinator
                .mgr
                .write(&action, keys.cb(scope_id), &cb)
                .is_ok()
                && facts::write_fact_bound(
                    &mut coordinator.mgr,
                    &action,
                    plan,
                    out_key,
                    output.slots,
                    &mapped,
                    whole,
                )
                .is_ok();
            // Cancel every non-terminal descendant (one flat subtree
            // scan — DFS pre-order keeps descendants contiguous).
            let mut terminal_delta = 1; // the scope itself
            if ok {
                match cancel_descendants(&mut coordinator.mgr, &action, keys, plan, scope_id) {
                    Ok(cancelled) => terminal_delta += cancelled,
                    Err(_) => ok = false,
                }
            }
            let mut root_status = None;
            if ok && is_root {
                if let Some(mut meta) = coordinator.read_meta(instance) {
                    meta.status = InstanceStatus::Completed(Outcome {
                        name: outcome_name.to_string(),
                        kind,
                        objects: facts::bound_map(plan, &mapped),
                    });
                    ok = coordinator.mgr.write(&action, keys.meta(), &meta).is_ok();
                    root_status = Some(meta.status);
                }
            }
            if ok {
                if coordinator.commit(action).is_ok() {
                    coordinator.note_terminals(instance, terminal_delta);
                    if let Some(status) = &root_status {
                        coordinator.note_status(instance, status);
                    }
                    if is_root {
                        // The instance just completed: its admission
                        // slot frees for a queued start.
                        coordinator.admission.instance_settled();
                    }
                    let verb = if kind == OutputKind::Outcome {
                        "done"
                    } else {
                        "aborted"
                    };
                    let event = if is_root {
                        ObsEventKind::Terminal {
                            outcome: format!("{verb} `{outcome_name}`"),
                        }
                    } else {
                        coordinator.commit_event(format!("{verb} `{outcome_name}`"))
                    };
                    coordinator.record_event(
                        world.now().as_nanos(),
                        instance,
                        Some(scope_path),
                        0,
                        event,
                    );
                }
            } else {
                coordinator.mgr.abort(action);
            }
        }
        // Drop volatile tracking for the whole subtree.
        let watchdogs = self.inner.borrow_mut().sweep_subtree(instance, scope_path);
        for (_, id) in watchdogs {
            world.cancel(id);
        }
    }

    /// Scope-level repeat (Fig. 8): publish the repeat fact, reset the
    /// subtree and let the compound rebind its inputs.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn repeat_scope(
        &self,
        world: &mut World,
        instance: &str,
        plan: &Plan,
        keys: &InstanceKeys,
        scope_id: TaskId,
        out_idx: usize,
        mapped: Vec<(StrId, ObjectVal)>,
        worklist: &mut Worklist,
    ) {
        let output = &plan.outputs[out_idx];
        let outcome_name = plan.str(output.name);
        let scope_path = plan.str(plan.task(scope_id).path);
        let is_root = !scope_path.contains('/');
        let Some(out_key) = keys.out_key(plan, scope_id, outcome_name) else {
            return;
        };
        let over_limit = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(mut cb) = coordinator.read_cb_id(keys, scope_id) else {
                return;
            };
            cb.repeats += 1;
            if cb.repeats > coordinator.config.max_repeats {
                cb.transition(CbState::Failed {
                    reason: format!("compound repeat limit exceeded via `{outcome_name}`"),
                });
                // The repeat counts only on commit success.
                if coordinator.commit_cb(keys.cb(scope_id), &cb) {
                    coordinator.metrics.repeats.inc();
                    coordinator.record_event(
                        world.now().as_nanos(),
                        instance,
                        Some(scope_path),
                        cb.attempt,
                        coordinator.commit_event(format!("repeat `{outcome_name}`")),
                    );
                    coordinator.note_terminals(instance, 1);
                }
                true
            } else {
                // Reset: bump this scope's incarnation, clear own input
                // facts and all descendant state, publish the repeat fact.
                cb.scope_inc += 1;
                let new_inc = cb.scope_inc;
                let meta = coordinator.read_meta(instance);
                let whole = coordinator.config.whole_record_facts;
                let action = coordinator.mgr.begin();
                let mut ok = facts::write_fact_bound(
                    &mut coordinator.mgr,
                    &action,
                    plan,
                    out_key,
                    output.slots,
                    &mapped,
                    whole,
                )
                .is_ok();
                // The compound goes back to Waiting to rebind (the root,
                // which has no bindings, reactivates with its original
                // inputs).
                if is_root {
                    if let Some(meta) = &meta {
                        cb.state = CbState::Active {
                            set: meta.set.clone(),
                        };
                        if let Some(in_key) = keys.in_key(plan, scope_id, &meta.set) {
                            ok = ok
                                && facts::write_fact_map(
                                    &mut coordinator.mgr,
                                    &action,
                                    plan,
                                    in_key,
                                    &meta.inputs,
                                    whole,
                                )
                                .is_ok();
                        } else {
                            ok = false;
                        }
                    }
                } else {
                    cb.state = CbState::Waiting;
                    // Clear own input-binding facts so the new incarnation
                    // rebinds afresh — one range scan over the dense keys.
                    let (lo, hi) = keys.input_fact_range(scope_id);
                    for fact in coordinator.mgr.fact_keys_in_range(lo, hi) {
                        ok = ok
                            && coordinator
                                .mgr
                                .delete_key(&action, &StoreKey::Fact(fact))
                                .is_ok();
                    }
                }
                ok = ok
                    && coordinator
                        .mgr
                        .write(&action, keys.cb(scope_id), &cb)
                        .is_ok();
                if ok {
                    // All descendant facts die with the incarnation: the
                    // whole DFS-contiguous subtree is one key range.
                    if let Some((lo, hi)) = keys.subtree_fact_range(plan, scope_id) {
                        for fact in coordinator.mgr.fact_keys_in_range(lo, hi) {
                            ok = ok
                                && coordinator
                                    .mgr
                                    .delete_key(&action, &StoreKey::Fact(fact))
                                    .is_ok();
                        }
                    }
                }
                let mut revived = 0;
                if ok {
                    match reset_descendants(
                        &mut coordinator.mgr,
                        &action,
                        keys,
                        plan,
                        scope_id,
                        new_inc,
                    ) {
                        Ok(n) => revived = n,
                        Err(_) => ok = false,
                    }
                }
                if ok {
                    if coordinator.commit(action).is_ok() {
                        coordinator.metrics.repeats.inc();
                        coordinator.record_event(
                            world.now().as_nanos(),
                            instance,
                            Some(scope_path),
                            cb.attempt,
                            coordinator.commit_event(format!("repeat `{outcome_name}`")),
                        );
                        coordinator.note_revived(instance, revived);
                    }
                } else {
                    coordinator.mgr.abort(action);
                }
                false
            }
        };
        // Cancel volatile subtree tracking either way.
        let watchdogs = self.inner.borrow_mut().sweep_subtree(instance, scope_path);
        for (_, id) in watchdogs {
            world.cancel(id);
        }
        // Seed the re-entry: the repeat fact is a fresh commit; a reset
        // non-root compound rebinds through the start agenda; a reset
        // root reactivates directly, enabling its constituents.
        worklist.seed_commit(plan, scope_id);
        if over_limit {
            return;
        }
        if is_root {
            worklist.seed_children(plan, scope_id);
        } else {
            worklist.push_task(plan, scope_id);
        }
    }
}

/// Cancels every non-terminal descendant of a scope: one linear scan of
/// the plan's contiguous subtree range, through the interned cb uids.
/// Returns how many blocks it cancelled.
fn cancel_descendants(
    mgr: &mut TxManager<StableStore>,
    action: &AtomicAction,
    keys: &InstanceKeys,
    plan: &Plan,
    scope_id: TaskId,
) -> Result<usize, EngineError> {
    let mut cancelled = 0;
    for task_id in plan.subtree(scope_id) {
        let uid = keys.cb(task_id);
        if let Some(mut cb) = mgr.read::<TaskCb>(action, uid)? {
            if !cb.state.is_terminal() {
                cb.transition(CbState::Cancelled);
                mgr.write(action, uid, &cb)?;
                cancelled += 1;
            }
        }
    }
    Ok(cancelled)
}

/// Resets a scope's subtree for a new incarnation, bumping each nested
/// compound's own scope incarnation so its children rebind
/// consistently. (The subtree's facts were already range-deleted by the
/// caller.) Returns how many previously *terminal* blocks the reset
/// revived to `Waiting`.
fn reset_descendants(
    mgr: &mut TxManager<StableStore>,
    action: &AtomicAction,
    keys: &InstanceKeys,
    plan: &Plan,
    scope_id: TaskId,
    incarnation: u32,
) -> Result<usize, EngineError> {
    let mut revived = 0;
    for &child in plan.children(scope_id) {
        let task = plan.task(child);
        let uid = keys.cb(child);
        let mut inner_inc = 0;
        if let Some(mut cb) = mgr.read::<TaskCb>(action, uid)? {
            if cb.state.is_terminal() {
                revived += 1;
            }
            cb.reset_for_incarnation(incarnation);
            if task.is_scope {
                // A nested compound's own scope advances too, so its
                // children rebind consistently.
                cb.scope_inc += 1;
                inner_inc = cb.scope_inc;
            }
            mgr.write(action, uid, &cb)?;
        }
        if task.is_scope {
            revived += reset_descendants(mgr, action, keys, plan, child, inner_inc)?;
        }
    }
    Ok(revived)
}
