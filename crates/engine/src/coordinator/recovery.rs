//! How a stored instance comes back: [`Coordinator::load_stored`] makes
//! it resident and [`Coordinator::resume`] re-arms every running one in
//! a single [`Coordinator::reevaluate`] — one frame and one sync however
//! many it resumes — a restart, or a landing out of a dead shard,
//! staging the re-send of each executing block's attempt as committed
//! ahead of the full drain, a live landing (`membership`) nothing. The
//! executors did not crash: the attempt the shard re-sends may still run
//! there, and whichever of its reports lands first is applied — the
//! other is a duplicate the block no longer awaits — while a report
//! lost with the shard is covered by the re-send. And crash
//! recovery, the restart: reset everything volatile, reopen the log (one
//! that does not open leaves the shard holding nothing), repair
//! hand-offs from their move records, then load (a slice an unlanded
//! round holds frozen stays unloaded) and resume.

use flowscript_obs::ObsEventKind;
use flowscript_tx::{SharedStorage, StableStore, TxManager};

use super::{Admission, Coordinator, InstanceHeader, PlanCache};
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

/// Why stored instances come back into residence.
#[derive(Clone, Copy)]
pub(super) enum Back {
    /// The shard restarted over its own log.
    Restart,
    /// A claim landed them, or a slice thawed; `Some((dead shard,
    /// epoch))` when claimed out of a dead shard's fenced storage.
    Landed(Option<(u32, u64)>),
}

impl Coordinator {
    /// Everything volatile died with the process: resident runtimes,
    /// compiled plans (the loads compile each pinned version once) and
    /// the repository versions the shard knew (the next start of each
    /// fetches it once more), the open commit window, dispatch's
    /// in-flight view and ready queue (re-dispatches rebuild both) and
    /// the admission queue and counts (queued starts are the client's to
    /// retry — their reply tokens are gone — and the reload recounts
    /// occupancy from what the log says of each instance: a stuck
    /// record, or a root block that says it terminated).
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
    /// all of them in one step ([`Coordinator::resume`]): every in-flight
    /// task re-sent under the attempt it has, beside the shard-life key
    /// ([`Coordinator::stage_life`]). The claims of unlanded rounds go out
    /// between the load and the re-arm.
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
        self.dispatcher.reopened(mgr.next_seq());
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
        let loaded = self.load_stored(stored, Back::Restart);
        for id in unlanded {
            self.send_claim(id);
        }
        self.resume(loaded, Back::Restart);
        // Re-dispatches above may have parked against a still-cold
        // scheduler view; give them one immediate placement pass.
        self.pump();
    }

    /// Makes each of `stored` resident, less a frozen slice and what
    /// [`Coordinator::load_or_park`] stops: a running one takes an
    /// admission slot, each is traced and counted as `why` says. Arms and
    /// dispatches nothing: the names loaded, for [`Coordinator::resume`].
    pub(super) fn load_stored(
        &mut self,
        stored: Vec<(String, InstanceHeader)>,
        why: Back,
    ) -> Vec<String> {
        let mut loaded = Vec::new();
        for (name, header) in stored {
            if self.membership.freezing(&name).is_some() {
                continue;
            }
            let Some(rt) = self.load_or_park(&name, &header) else {
                continue;
            };
            if !rt.terminal {
                self.admission.instance_live();
            }
            self.instances.insert(name.clone(), rt);
            let epoch = self.membership.epoch();
            let kind = match why {
                Back::Restart => {
                    self.metrics.stats.recovered_instances += 1;
                    ObsEventKind::Recovery { epoch }
                }
                Back::Landed(Some((from, epoch))) => {
                    self.metrics.stats.adoptions += 1;
                    ObsEventKind::Adopted { from, epoch }
                }
                Back::Landed(None) => ObsEventKind::HandOff {
                    to: self.node.index() as u32,
                    epoch,
                },
            };
            self.record_event(&name, None, 0, kind);
            loaded.push(name);
        }
        loaded
    }

    /// Re-arms every running instance of `loaded` in one step, the full
    /// drain behind what `why` stages for each: a restart, and a landing
    /// out of a dead shard, which relays nothing, re-send every executing
    /// block's attempt as committed — a restart that ships any beside its
    /// shard-life key, the landing behind its claim's commit — so the
    /// first report of each attempt to land is applied; a live landing
    /// stages nothing, its fresh watchdogs armed first
    /// ([`Coordinator::keep_moving`]) for what its old owner relays.
    pub(super) fn resume(&mut self, loaded: Vec<String>, why: Back) {
        let redispatch = matches!(why, Back::Restart | Back::Landed(Some(_)));
        if !redispatch {
            loaded.iter().for_each(|name| self.keep_moving(name));
        }
        let running: Vec<String> = loaded
            .into_iter()
            .filter(|name| !self.instances[name].terminal)
            .collect();
        let _ = self.reevaluate(&running, |coordinator, step, drain| {
            if redispatch {
                // What a corrupt block was doing is unknown: re-run
                // nothing, stop the instance with why.
                let executing = match coordinator.executing(&drain.name) {
                    Ok(executing) => executing,
                    Err(fault) => return coordinator.park_stuck(step, drain, fault),
                };
                if matches!(why, Back::Restart) && !executing.is_empty() {
                    coordinator.stage_life(step)?;
                }
                for (task, cb) in executing {
                    coordinator.stage_launch(step, drain, task, &cb, None, None)?;
                }
            }
            // No transition to seed from: every task is looked at.
            drain.worklist.seed_all(drain.plan);
            Ok(())
        });
    }
}
