//! Crash recovery: reset everything volatile, reopen the log (one that
//! does not open leaves the shard holding nothing), repair hand-offs
//! from their move records, reload every stored instance (a slice an
//! unlanded round holds frozen stays unloaded) and re-arm every running
//! one in a single step — for each instance in turn, every executing
//! block's attempt bump and re-dispatch, then the full drain — so a
//! restart logs one frame and pays one sync, however many instances it
//! resumes. The re-dispatches ship once it commits, instance by
//! instance. A step that rolls back retries each instance alone, the
//! `flush_pending` idiom; one that still cannot commit leaves its
//! attempts as committed to fresh watchdogs.

use std::slice;
use std::sync::Arc;

use flowscript_obs::ObsEventKind;
use flowscript_plan::Plan;
use flowscript_tx::{SharedStorage, StableStore, TxManager};

use super::{Admission, Coordinator, InstanceHeader, PlanCache};
use crate::error::EngineError;
use crate::facts;
use crate::keys::{self, meta_uid};

/// The name of every instance with a header in `mgr` — the one
/// enumeration recovery, orphan adoption, blob GC and dead-shard claims
/// share. Nothing is decoded: the uid alone says whether it is a header
/// and whose (see [`keys::header_instance`]).
pub(super) fn stored_instance_names(mgr: &TxManager<StableStore>) -> impl Iterator<Item = String> {
    mgr.uids_matching(keys::INSTANCE_ROOT, keys::HEADER_SUFFIX)
        .into_iter()
        .filter_map(|uid| keys::header_instance(uid.as_str()))
}

/// Every instance stored in `mgr`, by name, with its committed header:
/// [`stored_instance_names`] minus any header that does not decode.
pub(super) fn stored_instances(mgr: &TxManager<StableStore>) -> Vec<(String, InstanceHeader)> {
    stored_instance_names(mgr)
        .filter_map(|name| {
            let header = mgr.read_committed_key(&meta_uid(&name)).ok()??;
            Some((name, header))
        })
        .collect()
}

/// The first instance id past every id `mgr` holds: the last fact key's
/// (an instance stores its root block from its start to its purge) and
/// each of `headers`' ids (the ones recovery reads anyway, a frozen
/// slice's included). An id whose instance was purged whole is free
/// again, which is safe because nothing outside an instance's own keys
/// names its id (see [`keys`]).
pub(super) fn next_free_id(
    mgr: &TxManager<StableStore>,
    headers: impl IntoIterator<Item = u32>,
) -> u32 {
    let last = mgr.last_fact_key().map(|key| key.instance);
    let highest = headers.into_iter().chain(last).max();
    highest.map_or(0, |id| id + 1)
}

impl Coordinator {
    /// Everything volatile died with the process: resident runtimes and
    /// compiled plans (the loads compile each pinned version once),
    /// the open commit window, dispatch's in-flight view and ready queue
    /// (re-dispatches rebuild both) and the admission queue and counts
    /// (queued starts are the client's to retry — their reply tokens
    /// are gone — and the reload recounts occupancy from what the log
    /// says of each instance: a stuck record, or a root block that says
    /// it terminated).
    fn reset_volatile(&mut self) {
        self.instances.clear();
        self.plan_cache = PlanCache::default();
        self.window.reset();
        self.dispatcher.reset();
        self.admission = Admission::default();
        self.membership.reset_protocols();
    }

    /// Rebuilds all state from the write-ahead log after a restart
    /// ([`super::Input::Restart`]) and resumes every running instance,
    /// all of them in one step ([`Coordinator::rearm`]): every in-flight
    /// task re-dispatched under its next attempt.
    ///
    /// Each instance runs off its pinned source — the script's current
    /// version — compiled once per version through the plan cache, so
    /// a restart runs the front end once per version, not per instance.
    /// An instance runs unless it has a stuck record or its root block
    /// says `Done`/`Aborted`; a running one whose plan cannot be built
    /// stops `Stuck` with why ([`Coordinator::load_or_park`]). A load
    /// scans no store prefix of its own.
    ///
    /// A log that does not open leaves the shard holding nothing: an
    /// empty store over no storage, so nothing appends behind the bad
    /// frame, and every start and operator request is answered with the
    /// open's error until a restart opens the log.
    pub(super) fn recover(&mut self) {
        self.reset_volatile();
        let node = self.node.index() as u32;
        let (mut mgr, unopened) = match TxManager::open(node, self.storage.clone()) {
            Ok(mgr) => (mgr, None),
            Err(err) => {
                let nothing = TxManager::open(node, SharedStorage::new().into());
                (nothing.expect("empty storage opens"), Some(err.into()))
            }
        };
        // The reopened store takes the old one's metrics: their history
        // (like the flight recorder's) spans the crash.
        std::mem::swap(mgr.metrics_mut(), self.mgr.metrics_mut());
        self.mgr = mgr;
        self.unopened = unopened;
        if self.unopened.is_some() {
            return;
        }
        if self.mgr.fenced().is_some() {
            // Another shard claimed this storage while the node was
            // down (crash-driven adoption): every instance now lives —
            // and runs — on the claimant's side. A zombie must not
            // reload, re-dispatch, or relay anything; it wakes empty and
            // every durable act it attempts fails on the fence.
            self.membership.forget_moves();
            return;
        }
        // Hand-off repair: the relay table comes back from the landed
        // move records, the unlanded rounds with their slices frozen.
        let unlanded = self.repair_handoffs();
        let stored = stored_instances(&self.mgr);
        let ids = stored.iter().map(|(_, header)| header.instance_id);
        self.next_id = next_free_id(&self.mgr, ids);
        let mut running = Vec::new();
        for (name, header) in stored {
            if self.membership.freezing(&name).is_some() {
                continue;
            }
            let Some(rt) = self.load_or_park(&name, &header) else {
                continue;
            };
            let settled = rt.terminal;
            self.instances.insert(name.clone(), rt);
            self.metrics.stats.recovered_instances += 1;
            let epoch = self.membership.epoch();
            let kind = ObsEventKind::Recovery { epoch };
            self.record_event(&name, None, 0, kind);
            if !settled {
                self.admission.instance_live();
                running.push(name);
            }
        }
        for id in unlanded {
            self.send_claim(id);
        }

        // Re-dispatch whatever was executing (at-least-once execution,
        // exactly-once outcome application via attempt matching), every
        // running instance in one step. One that rolls back leaves
        // committed state untouched: each instance retries alone, and
        // one that still cannot re-arm keeps the attempts as committed
        // on the wire, if anywhere — their watchdogs are what can still
        // move them.
        if !running.is_empty() && self.rearm(&running).is_err() {
            for instance in &running {
                if running.len() == 1 || self.rearm(slice::from_ref(instance)).is_err() {
                    self.rearm_adopted(instance);
                }
            }
        }
        // Re-dispatches above may have parked against a still-cold
        // scheduler view; give them one immediate placement pass.
        self.pump();
    }

    /// Re-arms `instances` in one step: for each in turn, every executing
    /// block's attempt bumped — so a late pre-crash reply is ignored —
    /// and re-dispatched, then the full drain. One commit, the effects
    /// published in staging order (instance by instance), one checkpoint
    /// check, then the oracles over each.
    ///
    /// # Errors
    ///
    /// The step rolled back: nothing of it was published.
    fn rearm(&mut self, instances: &[String]) -> Result<(), EngineError> {
        let contexts: Vec<(Arc<str>, Arc<Plan>, u32)> = instances
            .iter()
            .filter_map(|name| {
                let (plan, id) = self.instance_ctx(name)?;
                Some((name.as_str().into(), plan, id))
            })
            .collect();
        let ((), effects) = self.run_step(|coordinator, step| {
            for (name, plan, id) in &contexts {
                let mut drain = coordinator.drain_of(name.clone(), plan, *id);
                match coordinator.executing(name) {
                    // What the corrupt block was doing is unknown: re-run
                    // nothing, stop the instance with why.
                    Err(fault) => coordinator.park_stuck(step, &mut drain, fault)?,
                    Ok(executing) => {
                        for (task, mut cb) in executing {
                            cb.attempt += 1;
                            let action = step.action(&mut coordinator.mgr);
                            facts::write_block(&mut coordinator.mgr, action, plan, *id, task, &cb)?;
                            coordinator.stage_launch(step, &mut drain, task, &cb, None, None)?;
                        }
                        drain.worklist.seed_all(plan);
                    }
                }
                coordinator.stage_drain(step, &mut drain)?;
            }
            Ok(())
        })?;
        self.publish(effects);
        let _ = self.maybe_checkpoint();
        for instance in instances {
            self.assert_settled(instance);
        }
        Ok(())
    }
}
