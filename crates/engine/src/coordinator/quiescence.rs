//! Quiescence: stuck detection, the storage-fault park, and — in debug
//! builds — the full-scan oracle asserted after every drain.

#[cfg(debug_assertions)]
use flowscript_core::ast::OutputKind;
use flowscript_obs::ObsEventKind;
#[cfg(debug_assertions)]
use flowscript_plan::Plan;
use flowscript_plan::{eval as plan_eval, TaskId};
use flowscript_sim::World;

use super::{CoordHandle, Coordinator, InstanceStatus};
use crate::facts::StoreFacts;
use crate::keys::InstanceKeys;
use crate::state::CbState;

impl Coordinator {
    /// Parks a running instance `Stuck` with the diagnosable `reason`
    /// (a reconfiguration or administrative repair can revive it).
    fn park_stuck(&mut self, now_ns: u64, instance: &str, keys: &InstanceKeys, reason: String) {
        let Some(mut meta) = self.read_meta(instance) else {
            return;
        };
        if meta.status.is_terminal() {
            return;
        }
        meta.status = InstanceStatus::Stuck {
            reason: reason.clone(),
        };
        let action = self.mgr.begin();
        if self.mgr.write(&action, keys.meta(), &meta).is_err() {
            self.mgr.abort(action);
            return;
        }
        if self.commit(action).is_ok() {
            self.note_status(instance, &meta.status);
            // A stuck instance stops counting against the admission
            // cap (a revival re-counts it).
            self.admission.instance_settled();
            self.record_event(now_ns, instance, None, 0, ObsEventKind::Stuck { reason });
        }
    }
}

impl CoordHandle {
    /// Fails an instance on a storage/decode fault: the fact store can
    /// no longer answer readiness soundly, so instead of silently
    /// treating the fact as absent the drain parks the instance with
    /// the diagnosable reason (a reconfiguration or administrative
    /// repair can revive it).
    pub(super) fn fail_instance_storage(
        &self,
        world: &World,
        instance: &str,
        keys: &InstanceKeys,
        fault: &str,
    ) {
        let reason = format!("fact storage fault: {fault}");
        self.inner
            .borrow_mut()
            .park_stuck(world.now().as_nanos(), instance, keys, reason);
    }

    /// The full-scan oracle (debug builds): after a worklist drain, no
    /// startable task and no satisfied unprocessed scope output may
    /// remain — if one does, the reverse-edge seeding missed it.
    #[cfg(debug_assertions)]
    pub(super) fn assert_quiescent(&self, instance: &str, plan: &Plan, keys: &InstanceKeys) {
        let coordinator = self.inner.borrow();
        // The incremental non-terminal count must agree with a fresh
        // recount (this is the bookkeeping stuck detection trusts).
        if let Some(rt) = coordinator.instances.get(instance) {
            debug_assert_eq!(
                rt.nonterminal,
                super::lifecycle::count_nonterminal(&coordinator.mgr, plan, keys),
                "incremental non-terminal count of `{instance}` drifted"
            );
        }
        let facts = StoreFacts::new(
            &coordinator.mgr,
            keys,
            coordinator.config.whole_record_facts,
        );
        for id in 1..plan.tasks.len() as TaskId {
            let task = plan.task(id);
            let Some(parent) = task.parent else {
                continue;
            };
            let (Some(parent_cb), Some(cb)) = (
                coordinator.read_cb_id(keys, parent),
                coordinator.read_cb_id(keys, id),
            ) else {
                continue;
            };
            if matches!(parent_cb.state, CbState::Active { .. })
                && cb.state == CbState::Waiting
                && cb.incarnation == parent_cb.scope_inc
            {
                debug_assert!(
                    plan_eval::eval_task_inputs(plan, id, &facts).is_none(),
                    "worklist missed a startable task `{}` of instance `{instance}`",
                    plan.str(task.path)
                );
            }
        }
        for id in 0..plan.tasks.len() as TaskId {
            if !plan.task(id).is_scope {
                continue;
            }
            let Some(cb) = coordinator.read_cb_id(keys, id) else {
                continue;
            };
            if !matches!(cb.state, CbState::Active { .. }) {
                continue;
            }
            for (out_idx, _) in plan_eval::eval_scope_outputs(plan, id, &facts) {
                let output = &plan.outputs[out_idx];
                let name = plan.str(output.name);
                let missed = match output.kind {
                    OutputKind::Mark => !cb.mark_emitted(name),
                    _ => true,
                };
                debug_assert!(
                    !missed,
                    "worklist missed a satisfied output `{name}` of scope `{}` in `{instance}`",
                    plan.str(plan.task(id).path)
                );
            }
        }
    }

    /// Stuck detection. O(1) on every drain: a running instance with
    /// work in flight (or, in principle, no live control blocks) can
    /// never be stuck, and both tests read volatile counters the drain
    /// maintains incrementally — no control-block enumeration, no store
    /// scan. Only the one-time transition *to* Stuck reads control
    /// blocks (point reads through the interned uid table) to compose
    /// the diagnostic reason.
    pub(super) fn stuck_check(&self, world: &mut World, instance: &str) {
        let mut coordinator = self.inner.borrow_mut();
        let Some(rt) = coordinator.instances.get(instance) else {
            return;
        };
        if rt.terminal || !rt.in_flight.is_empty() {
            return;
        }
        let plan = rt.plan.clone();
        let keys = rt.keys.clone();
        let nonterminal = rt.nonterminal;
        // Quiescent but not terminated: stuck. Summarise why — one walk
        // over the plan's dense task ids (point reads; this runs once
        // per stuck instance, never on the commit path), using the
        // plan's satisfaction masks to say how close each waiting task
        // got.
        let mut failed = Vec::new();
        let mut waiting = Vec::new();
        for id in 0..plan.tasks.len() as TaskId {
            let Some(cb) = coordinator.read_cb_id(&keys, id) else {
                continue;
            };
            match &cb.state {
                CbState::Failed { reason } => {
                    failed.push(format!("{} ({reason})", cb.path));
                }
                CbState::Waiting => {
                    let facts = StoreFacts::new(
                        &coordinator.mgr,
                        &keys,
                        coordinator.config.whole_record_facts,
                    );
                    let task = plan.task(id);
                    let pending = plan.sets[task.sets.as_range()]
                        .iter()
                        .map(|set| {
                            let met = plan_eval::met_requirements(&plan, set, &facts);
                            format!("{} {met}/{}", plan.str(set.name), set.requirement_count())
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                    if pending.is_empty() {
                        waiting.push(cb.path.clone());
                    } else {
                        waiting.push(format!("{} (deps met: {pending})", cb.path));
                    }
                }
                _ => {}
            }
        }
        let reason = format!(
            "no runnable task and the root cannot terminate ({nonterminal} of {} tasks \
             non-terminal); failed: [{}]; waiting: [{}]",
            plan.tasks.len(),
            failed.join(", "),
            waiting.join(", ")
        );
        coordinator.park_stuck(world.now().as_nanos(), instance, &keys, reason);
    }
}
