//! How a stored instance comes back: [`Coordinator::load_stored`] makes
//! it resident and [`Coordinator::resume`] re-arms every running one,
//! each executing task watched by a fresh watchdog, in at most one
//! [`Coordinator::reevaluate`] however many it resumes. And crash
//! recovery, the restart: reset everything volatile, reopen the log (one
//! that does not open leaves the shard holding nothing), repair
//! hand-offs from their move records, then load (a slice an unlanded
//! round holds frozen stays unloaded) and resume.
//!
//! **Committed state is quiescent**, and a restart relies on it: every
//! running instance in a shard's committed state has no task startable
//! and no scope output satisfied and not yet taken. Each step stages its
//! cascade to quiescence in the action it commits, a step that rolls
//! back commits nothing, and a torn tail drops only whole frames, each a
//! whole step. So a restart or a landing seeds no worklist, and a
//! restart steps only the instances left with nothing outstanding, for
//! their stuck check. [`Coordinator::quiescence_misses`] states the
//! invariant as a full scan, in release builds too (the test harness
//! runs it after restarts and at teardown, the step's debug oracle after
//! every step). What is not a fixpoint is volatile, and the invariant
//! does not cover it: a start queued for admission (not yet committed:
//! the client retries it), an attempt delayed by a back-off and a
//! dispatch parked behind a saturated fleet (each a committed
//! `Executing` block, which no evaluation moves). A restart loses all
//! three, and [`Coordinator::keep_moving`] re-arms the last two with a
//! watchdog each.
//!
//! The executors did not crash with the shard: the work they run for it
//! survived. So a restart that holds instances takes a **census**: one
//! [`EngineMsg::Census`] call to every executor, answered with each
//! attempt it still runs for this shard. An attempt its block still
//! awaits is taken over where it runs — charged on that executor under
//! its old ticket, as if sent when the answer came — and anything else
//! listed, a copy an earlier life left behind, is cancelled there
//! ([`Coordinator::claim_running`]). Once every executor has answered,
//! or its call has timed out ([`FLEET_DEADLINE`]), each executing
//! attempt nobody claimed is re-sent as committed, in one step beside
//! the shard-life key: a report lost while the shard was down, or work
//! that died with its executor. A landing out of a dead shard re-sends
//! at once: its attempts report to the dead node.

use flowscript_obs::ObsEventKind;
use flowscript_sim::{NodeId, RpcError};
use flowscript_tx::{SharedStorage, StableStore, TxManager};

use super::step::Effect;
use super::{Admission, Call, Coordinator, InstanceHeader, Output, PlanCache, FLEET_DEADLINE};
use crate::keys::{self, meta_uid};
use crate::msg::EngineMsg;

/// The name of every instance with a header in `mgr` — the one
/// enumeration recovery, blob GC and dead-shard claims share. Nothing
/// is decoded: the uid alone says whether it is a header and whose
/// (see [`keys::header_instance`]).
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

/// A restart's census of its executors: how many have yet to answer,
/// and the instances whose executing attempts are re-sent once all have,
/// unless an executor claims them first.
#[derive(Default)]
pub(super) struct Census {
    awaited: usize,
    owed: Vec<u32>,
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
        self.instances.reset(0);
        self.plan_cache = PlanCache::default();
        self.window.reset();
        self.dispatcher.reset();
        self.admission = Admission::default();
        self.membership.reset_protocols();
        self.census = Census::default();
    }

    /// Rebuilds all state from the write-ahead log after a restart
    /// ([`super::Input::Restart`]) and resumes every running instance,
    /// all of them in one step ([`Coordinator::resume`]), then takes the
    /// census of the executors if it holds any instance: what nobody
    /// still runs is re-sent once every executor has answered. The
    /// claims of unlanded rounds go out between the load and the re-arm.
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
            // reload, re-dispatch, or relay anything; it wakes empty, its
            // books of rounds empty too, and every durable act it
            // attempts fails on the fence.
            return;
        }
        // Hand-off repair: every move record comes back as its round,
        // landed or frozen, and a frozen round's slice stays unloaded.
        let unlanded = self.repair_handoffs();
        let stored = stored_instances(&self.mgr);
        let ids = stored.iter().map(|(_, header)| header.instance_id);
        self.next_id = next_free_id(&self.mgr, ids);
        self.instances.reset(self.next_id);
        let loaded = self.load_stored(stored, Back::Restart);
        for id in unlanded {
            self.send_claim(id);
        }
        self.resume(loaded, Back::Restart);
        if !self.instances.is_empty() {
            self.take_census();
        }
        // Dispatches above may have parked against a still-cold
        // scheduler view; give them one immediate placement pass.
        self.pump();
    }

    /// Asks every executor what it still runs for this shard.
    fn take_census(&mut self) {
        let executors = self.dispatcher.executors();
        self.census.awaited = executors.len();
        for node in executors {
            self.outbox.push(Output::Call {
                to: node,
                bytes: flowscript_codec::to_bytes(&EngineMsg::Census),
                timeout: FLEET_DEADLINE,
                call: Call::Census(node),
            });
        }
    }

    /// `node` answered the census ([`Call::Census`]), or did not in time:
    /// each attempt it listed is claimed or cancelled, and the last
    /// answer re-sends what nobody claimed.
    pub(super) fn on_census(&mut self, node: NodeId, answer: Result<Vec<u8>, RpcError>) {
        let listed = answer
            .ok()
            .and_then(|bytes| flowscript_codec::from_bytes(&bytes).ok());
        if let Some(EngineMsg::Running { attempts }) = listed {
            for (ticket, at) in attempts {
                self.claim_running(node, ticket, at);
            }
        }
        self.census.awaited = self.census.awaited.saturating_sub(1);
        if self.census.awaited == 0 {
            self.resend_unclaimed();
        }
    }

    /// Re-sends, as committed, each executing attempt of the instances
    /// the census owes that no executor claimed, in one step: each
    /// instance that ships any stages the shard-life key beside them
    /// ([`Coordinator::stage_life`]), so they follow a commit of their
    /// own and a refused append ships none — the watchdogs armed at the
    /// restart then retry them.
    fn resend_unclaimed(&mut self) {
        let mut owed = std::mem::take(&mut self.census.owed);
        owed.retain(|&id| !self.unclaimed(id).is_empty());
        let _ = self.reevaluate(&owed, |coordinator, step, drain| {
            for task in coordinator.unclaimed(drain.id) {
                // What a corrupt block was doing is unknown: re-run
                // nothing, stop the instance with why.
                let Some(cb) = coordinator.drain_cb(step, drain, task)? else {
                    return Ok(());
                };
                coordinator.stage_life(step)?;
                coordinator.stage_launch(step, drain, task, &cb, None, None)?;
                if drain.terminal {
                    return Ok(()); // an input that does not decode parked it
                }
                step.push(drain.id, Effect::Count(|stats| &mut stats.resent));
            }
            Ok(())
        });
        self.pump();
    }

    /// Makes each of `stored` resident, less a frozen slice and what
    /// [`Coordinator::load_or_park`] stops: a running one takes an
    /// admission slot, each is traced and counted as `why` says. Arms and
    /// dispatches nothing: the ids loaded, in `stored`'s order, for
    /// [`Coordinator::resume`].
    pub(super) fn load_stored(
        &mut self,
        stored: Vec<(String, InstanceHeader)>,
        why: Back,
    ) -> Vec<u32> {
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
            loaded.push(rt.id);
            self.instances.insert(rt);
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
        }
        loaded
    }

    /// Re-arms every running instance of `loaded`, in at most one step.
    /// Nothing is re-evaluated: what was loaded is committed state, and
    /// committed state is quiescent (see the module doc). A restart
    /// watches each executing task of a running instance with a fresh
    /// watchdog up front ([`Coordinator::keep_moving`]) and owes the
    /// instance to its census; only an instance left with nothing
    /// outstanding takes the step, for its stuck check — a block that
    /// does not decode arms nothing, and the check's read of it parks the
    /// instance. A live landing watches the executing tasks of every
    /// instance it landed, for what its old owner relays; a landing out
    /// of a dead shard re-sends each executing block's attempt as
    /// committed, behind its claim's commit: those attempts report to
    /// the dead node. Both step every running instance they landed.
    pub(super) fn resume(&mut self, loaded: Vec<u32>, why: Back) {
        let running: Vec<u32> = loaded
            .iter()
            .copied()
            .filter(|&id| self.instances.get(id).is_some_and(|rt| !rt.terminal))
            .collect();
        let watched: &[u32] = match why {
            Back::Restart => &running,
            Back::Landed(None) => &loaded,
            Back::Landed(Some(_)) => &[],
        };
        watched.iter().for_each(|&id| self.keep_moving(id));
        let idle = |id: u32| {
            let rt = self.instances.get(id);
            rt.is_some_and(|rt| rt.flights.outstanding().next().is_none())
        };
        // The instances a restart does not step get the step's oracles
        // as they stand.
        #[cfg_attr(not(debug_assertions), allow(unused_variables))]
        let (stepped, moving): (Vec<u32>, Vec<u32>) = running
            .iter()
            .partition(|&&id| matches!(why, Back::Landed(_)) || idle(id));
        #[cfg(debug_assertions)]
        for &id in &moving {
            self.assert_settled(id);
        }
        let _ = self.reevaluate(&stepped, |coordinator, step, drain| {
            if let Back::Landed(Some(_)) = why {
                // What a corrupt block was doing is unknown: re-run
                // nothing, stop the instance with why.
                let executing = match coordinator.executing(drain.id) {
                    Ok(executing) => executing,
                    Err(fault) => return coordinator.park_stuck(step, drain, fault),
                };
                for (task, cb) in executing {
                    coordinator.stage_launch(step, drain, task, &cb, None, None)?;
                }
            }
            Ok(())
        });
        if let Back::Restart = why {
            self.census.owed = running;
        }
    }
}
