//! Crash recovery: reopen the log, reset everything volatile, repair
//! stranded hand-offs, reload every stored instance and re-dispatch
//! whatever was executing.

use flowscript_obs::ObsEventKind;
use flowscript_sim::World;
use flowscript_tx::{StableStore, TxManager};

use super::{Admission, CoordHandle, Coordinator, InstanceMeta, InstanceStatus, PlanCache};
use crate::keys::meta_uid;
use crate::msg::EngineMsg;

/// The name of every `inst/{name}/meta` object in `mgr` — the one
/// enumeration recovery, orphan adoption, plan GC and dead-shard claims
/// share. The name is what lies between one `inst/` and one `/meta` —
/// stripped once, so a name that itself starts with `inst/` or ends in
/// `/meta` survives. Nothing is decoded: a control block whose task
/// happens to be called `meta` matches too, and only reading the object
/// as a meta tells the two apart.
pub(super) fn stored_instance_names(mgr: &TxManager<StableStore>) -> impl Iterator<Item = String> {
    mgr.uids_matching("inst/", "/meta")
        .into_iter()
        .filter_map(|uid| {
            let name = uid.as_str().strip_prefix("inst/")?.strip_suffix("/meta")?;
            Some(name.to_string())
        })
}

/// Every instance stored in `mgr`, by name, with its committed meta:
/// [`stored_instance_names`] minus whatever does not decode as one.
pub(super) fn stored_instances(mgr: &TxManager<StableStore>) -> Vec<(String, InstanceMeta)> {
    stored_instance_names(mgr)
        .filter_map(|name| {
            let meta = mgr.read_committed(&meta_uid(&name)).ok()??;
            Some((name, meta))
        })
        .collect()
}

impl Coordinator {
    /// Everything volatile died with the process: resident runtimes and
    /// decoded plans (the loads re-validate each persisted blob once),
    /// the open commit window, dispatch's in-flight view and ready queue
    /// (re-dispatches rebuild both) and the admission queue and counts
    /// (queued starts are the client's to retry — their reply tokens
    /// are gone — and the reload recounts occupancy from the persisted
    /// metas).
    fn reset_volatile(&mut self) {
        self.instances.clear();
        self.plan_cache = PlanCache::default();
        self.window.reset();
        self.dispatcher.reset();
        self.admission = Admission::default();
        self.membership.reset_protocols();
    }
}

impl CoordHandle {
    /// Rebuilds all state from the write-ahead log after a restart and
    /// resumes every running instance (re-dispatching in-flight tasks).
    ///
    /// The compiled plan is read back from its persisted, fingerprinted
    /// blob (written at instance start and on every reconfiguration),
    /// so recovery skips the whole front end; recompiling from source —
    /// replaying persisted reconfigurations — survives only as the
    /// fallback for a missing or corrupt blob.
    pub fn recover(&self, world: &mut World) {
        let (node, instances, handoff_traffic) = {
            let mut coordinator = self.inner.borrow_mut();
            let (node, storage) = (coordinator.node, coordinator.storage.clone());
            // Reopen the store against the same registry: metric
            // history (like the flight recorder's) spans the crash.
            let Ok(mgr) = TxManager::open_with_metrics(
                node.index() as u32,
                storage,
                &coordinator.registry,
                coordinator.config.observe,
            ) else {
                return;
            };
            coordinator.mgr = mgr;
            coordinator.reset_volatile();
            if coordinator.mgr.fenced().is_some() {
                // Another shard claimed this storage while the node was
                // down (crash-driven adoption): every instance now
                // lives — and runs — on the claimant's side. A zombie
                // must not reload, re-dispatch, or relay anything; it
                // wakes empty and every durable act it attempts fails
                // on the fence.
                coordinator.membership.forget_moves();
                return;
            }
            // Hand-off repair first: an instance a committed move took
            // away must be purged before the loop below could load it.
            let handoff_traffic = coordinator.repair_handoffs();
            let mut running = Vec::new();
            for (name, meta) in stored_instances(&coordinator.mgr) {
                // Fast path inside: decode the persisted plan
                // (validated like any other untrusted plan) and skip
                // the front end.
                let Some(rt) = coordinator.load_instance(&name, &meta) else {
                    continue;
                };
                coordinator.instances.insert(name.clone(), rt);
                coordinator.metrics.recovered_instances.inc();
                let epoch = coordinator.membership.epoch();
                coordinator.record_event(
                    world.now().as_nanos(),
                    &name,
                    None,
                    0,
                    ObsEventKind::Recovery { epoch },
                );
                if meta.status == InstanceStatus::Running {
                    coordinator.admission.instance_live();
                    running.push(name);
                }
            }
            (node, running, handoff_traffic)
        };
        for (to, msg) in handoff_traffic {
            world.send(node, to, flowscript_codec::to_bytes(&EngineMsg::Dist(msg)));
        }

        // Re-dispatch whatever was executing (at-least-once execution,
        // exactly-once outcome application via attempt matching).
        for instance in &instances {
            let Some((_, keys)) = self.instance_ctx(instance) else {
                continue;
            };
            let executing = self.inner.borrow().executing(instance);
            for (task, _) in executing {
                // Bump the attempt so a late pre-crash reply is ignored
                // (re-read: an earlier re-dispatch of this loop may have
                // failed its task and cancelled this one).
                let bumped = {
                    let mut coordinator = self.inner.borrow_mut();
                    let Some(mut cb) = coordinator.read_cb_id(&keys, task) else {
                        continue;
                    };
                    cb.attempt += 1;
                    coordinator.commit_cb(keys.cb(task), &cb).then_some(cb)
                };
                if let Some(cb) = bumped {
                    self.redispatch(world, instance, &cb.path, cb.attempt);
                }
            }
            self.evaluate(world, instance);
        }
        // Re-dispatches above may have parked against a still-cold
        // scheduler view; give them one immediate placement pass.
        self.pump(world);
    }
}
