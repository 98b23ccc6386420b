//! Instance lifecycle: starting an instance, materialising its volatile
//! runtime from committed state (crash recovery and adoption share the
//! loader), the monitoring reads — and the compiled plans instances run
//! off: decoded and validated once per distinct encoding ([`PlanCache`]),
//! persisted once per fingerprint (`sys/plan/…`) beside the canonical
//! source they were compiled from (`sys/src/…`, once per content hash),
//! both pinned by a start or a reconfiguration ([`pin_blobs`]) and
//! collected when no instance references them.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use flowscript_core::schema;
use flowscript_obs::ObsEventKind;
use flowscript_plan::{Plan, TaskId};
use flowscript_tx::{AtomicAction, StableStore, StoreKey, TxManager};

use super::meta::source_hash;
use super::step::Effect;
use super::{
    stored_instances, Coordinator, Flights, InstanceHeader, InstanceRt, InstanceStatus,
    StatusRecord,
};
use crate::error::EngineError;
use crate::facts;
use crate::keys::{self, instance_seq_uid, plan_uid, source_uid, InstanceKeys};
use crate::state::{CbState, TaskCb};
use crate::value::ObjectVal;

impl Coordinator {
    /// Materializes an instance's volatile runtime from committed
    /// state: the persisted fingerprinted plan when valid (its current
    /// source recompiled as the fallback), interned keys and the
    /// non-terminal count. Pure state load — arms no timers and
    /// dispatches nothing. Shared by crash recovery and hand-off
    /// adoption.
    pub(super) fn load_instance(
        &mut self,
        name: &str,
        header: &InstanceHeader,
        record: &StatusRecord,
    ) -> Option<InstanceRt> {
        let plan = self.committed_plan(name, header, record)?;
        let keys = InstanceKeys::build(&plan, name, header.instance_id);
        let nonterminal = self.count_nonterminal(None, &plan, &keys);
        Some(InstanceRt {
            plan,
            keys: Arc::new(keys),
            flights: Flights::default(),
            nonterminal,
            terminal: record.status.is_terminal(),
            planted: true,
        })
    }

    /// The plan a stored instance runs off: the persisted blob its
    /// status record names when that validates, else the source its
    /// header names recompiled and re-lowered.
    fn committed_plan(
        &mut self,
        name: &str,
        header: &InstanceHeader,
        record: &StatusRecord,
    ) -> Option<Arc<Plan>> {
        let cached: Option<Arc<Plan>> = self
            .mgr
            .read_committed_bytes(&plan_uid(record.plan_fingerprint))
            .and_then(|bytes| self.plan_cache.validated(bytes))
            .filter(|plan| plan.fingerprint == record.plan_fingerprint);
        if cached.is_some() {
            return cached;
        }
        let source = self.pinned_source(name, header).ok()?;
        let compiled = schema::compile_source(source, &header.root).ok()?;
        Some(Arc::new(Plan::lower(&compiled)))
    }

    /// The canonical source of the script version `name` runs, as its
    /// header pins it. Instances run off their plan: only
    /// reconfiguration, and a load that finds no valid plan blob, read
    /// this.
    ///
    /// # Errors
    ///
    /// The source blob is missing or is not the text the header's hash
    /// names.
    pub(super) fn pinned_source(
        &self,
        name: &str,
        header: &InstanceHeader,
    ) -> Result<&str, EngineError> {
        let key = source_uid(header.source_hash);
        self.mgr
            .read_committed_bytes(&key)
            .and_then(|bytes| std::str::from_utf8(bytes).ok())
            .filter(|text| source_hash(text) == header.source_hash)
            .ok_or_else(|| EngineError::Tx(format!("`{key}` does not hold the source of `{name}`")))
    }

    /// Compiles and launches an admitted instance, reusing the plan the
    /// repository served for this script version when there is one.
    ///
    /// # Errors
    ///
    /// Invalid script, bad inputs or storage failure.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn start_instance(
        &mut self,
        instance: &str,
        script_name: &str,
        source: &str,
        root: &str,
        set: &str,
        inputs: BTreeMap<String, ObjectVal>,
        served_plan: Option<Arc<Plan>>,
    ) -> Result<(), EngineError> {
        // Compile-once, execute-many: a validated served plan skips the
        // whole front end here.
        let plan = match served_plan {
            Some(plan) => plan,
            None => Arc::new(Plan::lower(&schema::compile_source(source, root)?)),
        };
        // Validate the chosen input set against the root task class.
        let root_class = plan
            .classes
            .get(plan.root().class as usize)
            .ok_or_else(|| EngineError::InvalidScript("root class missing".into()))?;
        let set_info = plan.class_set(root_class, set).ok_or_else(|| {
            EngineError::BadInputs(format!(
                "taskclass `{}` has no input set `{set}`",
                plan.str(root_class.name)
            ))
        })?;
        for object in &plan.class_objects[set_info.objects.as_range()] {
            let (name, class) = (plan.str(object.name), plan.str(object.class));
            match inputs.get(name) {
                None => {
                    return Err(EngineError::BadInputs(format!(
                        "missing input object `{name}`"
                    )))
                }
                Some(value) if value.class != class => {
                    return Err(EngineError::BadInputs(format!(
                        "input `{name}` has class `{}`, expected `{class}`",
                        value.class
                    )))
                }
                Some(_) => {}
            }
        }
        let root_path = plan.str(plan.root().path).to_string();
        let hash = source_hash(source);
        let name: Arc<str> = Arc::from(instance);

        // The start is one step — header, status record, blocks, the
        // root's binding *and* the first drain's activations in one
        // action — committed straight to the log: a frame that fails to
        // append aborts it, and leaves nothing behind.
        let staged = self.run_step(|coordinator, step| {
            // A second start must not write over the first.
            if coordinator.holds(instance) {
                return Err(EngineError::DuplicateInstance(instance.to_string()));
            }
            // Allocate the dense instance id from the persistent sequence.
            let seq_uid = instance_seq_uid();
            let instance_id: u32 = coordinator.mgr.read_committed_key(&seq_uid)?.unwrap_or(0);
            let keys = Arc::new(InstanceKeys::build(&plan, instance, instance_id));
            let root_in = keys
                .in_key(&plan, 0, set)
                .ok_or_else(|| EngineError::BadInputs(format!("unmapped input set `{set}`")))?;
            let header = InstanceHeader {
                script: script_name.to_string(),
                source_hash: hash,
                root: root.to_string(),
                set: set.to_string(),
                inputs,
                instance_id,
            };
            let record = StatusRecord {
                status: InstanceStatus::Running,
                plan_fingerprint: plan.fingerprint,
            };
            let action = step.action(&mut coordinator.mgr);
            let mgr = &mut coordinator.mgr;
            mgr.write_key(action, &seq_uid, &(instance_id + 1))?;
            mgr.write_key(action, keys.meta(), &header)?;
            mgr.write_key(action, keys.status(), &record)?;
            pin_blobs(mgr, action, script_name, hash, source, &plan)?;
            // Root control block starts Active with the supplied inputs
            // bound; every descendant starts `Waiting`, which a block
            // never stored reads as.
            let mut root_cb = TaskCb::waiting();
            root_cb.transition(CbState::Active {
                set: set.to_string(),
            });
            facts::write_block(mgr, action, &plan, &keys, 0, &root_cb)?;
            // The root's input binding goes through the fact layout like
            // every other fact, so root-input fallbacks probe per object.
            facts::write_fact_map(mgr, action, &plan, root_in, &header.inputs)?;
            let rt = InstanceRt {
                plan: plan.clone(),
                keys: keys.clone(),
                flights: Flights::default(),
                // Root Active + every descendant Waiting.
                nonterminal: plan.tasks.len(),
                terminal: false,
                planted: false,
            };
            step.push(&name, Effect::Resident(Box::new(rt)));
            coordinator.trace(step, &name, Some(&root_path), 0, || {
                ObsEventKind::InstanceStart
            });
            // The first drain: the root just activated.
            let mut drain = coordinator.drain_of(name.clone(), &plan, &keys);
            drain.worklist.seed_children(&plan, 0);
            coordinator.stage_drain(step, &mut drain)
        });
        // The caller acknowledges the start on `Ok`: a frame that did
        // not reach the log must not read as one.
        let ((), effects) = staged?;
        self.publish(effects);
        self.assert_settled(instance);
        let _ = self.maybe_checkpoint();
        Ok(())
    }

    /// Instance status (monitoring API).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownInstance`]; a storage error if the stored
    /// status record does not decode.
    pub fn status(&self, instance: &str) -> Result<InstanceStatus, EngineError> {
        let record = self.read_status(instance)?;
        Ok(record.status)
    }

    /// All task states of an instance, keyed by path (a block never
    /// stored reads `Waiting`).
    pub fn task_states(&mut self, instance: &str) -> BTreeMap<String, CbState> {
        let blocks = self.task_blocks(instance).into_iter();
        blocks.map(|(path, cb)| (path, cb.state)).collect()
    }

    /// Every committed control block of an instance, keyed by path:
    /// point reads over the plan's dense task ids, skipping a block that
    /// does not decode. An instance not resident in memory (e.g.
    /// monitoring a crashed-but-unrecovered store) resolves through its
    /// stored header's id and the plan its status record names. Test
    /// hook beyond the states.
    #[doc(hidden)]
    pub fn task_blocks(&mut self, instance: &str) -> BTreeMap<String, TaskCb> {
        let stored = |coordinator: &mut Coordinator| {
            let header = coordinator.read_header(instance).ok()?;
            let record = coordinator.read_status(instance).ok()?;
            let plan = coordinator.committed_plan(instance, &header, &record)?;
            let keys = InstanceKeys::build(&plan, instance, header.instance_id);
            Some((plan, Arc::new(keys)))
        };
        let Some((plan, keys)) = self.instance_ctx(instance).or_else(|| stored(self)) else {
            return BTreeMap::new();
        };
        (0..plan.tasks.len() as TaskId)
            .filter_map(|id| {
                let cb = self.read_cb_id(&plan, &keys, id).ok()?;
                Some((plan.str(plan.task(id).path).to_string(), cb))
            })
            .collect()
    }

    /// A published output fact (monitoring; e.g. root marks).
    pub fn output_fact(
        &self,
        instance: &str,
        path: &str,
        output: &str,
    ) -> Option<BTreeMap<String, ObjectVal>> {
        let rt = self.instances.get(instance)?;
        let task = rt.plan.task_by_path(path)?;
        let key = rt.keys.out_key(&rt.plan, task, output)?;
        facts::read_fact_map(&self.mgr, &rt.plan, key)
            .ok()
            .flatten()
    }

    /// Names of instances known to the coordinator.
    pub fn instance_names(&self) -> Vec<String> {
        self.instances.keys().cloned().collect()
    }

    /// Counts an instance's non-terminal control blocks as `action`
    /// reads them — committed state when `None` (point reads over the
    /// plan's dense ids, no store scan); a block that does not decode is
    /// not known to be terminal. Seeds and cross-checks the incrementally
    /// maintained `InstanceRt::nonterminal`.
    pub(super) fn count_nonterminal(
        &self,
        action: Option<&AtomicAction>,
        plan: &Plan,
        keys: &InstanceKeys,
    ) -> usize {
        let terminal = |id| {
            let cb = facts::read_block(&self.mgr, action, plan, keys, id);
            cb.is_ok_and(|cb| cb.state.is_terminal())
        };
        (0..plan.tasks.len() as TaskId)
            .filter(|&id| !terminal(id))
            .count()
    }

    /// Drops the persisted plan blobs (`sys/plan/…`) and pinned sources
    /// (`sys/src/…`) no instance references any more. Both persist once
    /// per content; every reconfiguration pins a new version of both, so
    /// without this a reconfigured instance strands its old blobs
    /// forever, and a script's source outlives its last instance. Runs at
    /// checkpoint time (cold path): one pass over the stored instances
    /// — covering those the shard has not (re)loaded — feeds both
    /// reference sets, plus every resident instance's current plan.
    pub(super) fn gc_plans(&mut self) -> Result<(), EngineError> {
        let mut live_plans: BTreeSet<u64> = self
            .instances
            .values()
            .map(|rt| rt.plan.fingerprint)
            .collect();
        let mut live_sources = BTreeSet::new();
        for (_, header, record) in stored_instances(&self.mgr) {
            live_plans.insert(record.plan_fingerprint);
            live_sources.insert(header.source_hash);
        }
        self.plan_cache.retain_live(&live_plans);
        let mut stale = Vec::new();
        for (prefix, live) in [
            (keys::PLAN_PREFIX, &live_plans),
            (keys::SOURCE_PREFIX, &live_sources),
        ] {
            let mut blobs = self.mgr.uids_with_prefix(prefix);
            blobs.retain(|uid| keys::blob_id(uid, prefix).is_none_or(|id| !live.contains(&id)));
            stale.extend(blobs.into_iter().map(StoreKey::Uid));
        }
        if stale.is_empty() {
            return Ok(());
        }
        // Straight to the manager: the checkpoint that follows compacts
        // this commit away, and routing through `Self::atomically` would
        // re-trigger the checkpoint counter.
        let action = self.mgr.begin();
        if let Err(err) = stale
            .iter()
            .try_for_each(|key| self.mgr.delete_key(&action, key))
        {
            self.mgr.abort(action);
            return Err(err.into());
        }
        self.mgr.commit(action)?;
        Ok(())
    }

    /// The ids of the blobs this shard's store holds under `prefix`.
    /// Performs a uid prefix scan: admin/monitoring only.
    fn persisted_blobs(&self, prefix: &str) -> Vec<u64> {
        let blobs = self.mgr.uids_with_prefix(prefix);
        let ids = blobs.iter().filter_map(|uid| keys::blob_id(uid, prefix));
        ids.collect()
    }

    /// Fingerprints of the compiled-plan blobs persisted in this
    /// shard's store (`sys/plan/…`) — the plan-GC observability hook.
    pub fn persisted_plan_fingerprints(&self) -> Vec<u64> {
        self.persisted_blobs(keys::PLAN_PREFIX)
    }

    /// Hashes of the canonical sources pinned in this shard's store
    /// (`sys/src/…`) — the twin of
    /// [`Coordinator::persisted_plan_fingerprints`]; test hook.
    #[doc(hidden)]
    pub fn persisted_source_hashes(&self) -> Vec<u64> {
        self.persisted_blobs(keys::SOURCE_PREFIX)
    }

    /// Fingerprints of the validated plans this shard holds decoded
    /// (served by the repository or read back from `sys/plan/…`
    /// blobs), ascending — the in-memory twin of
    /// [`Coordinator::persisted_plan_fingerprints`]; test hook for the
    /// plan-cache suites.
    #[doc(hidden)]
    pub fn cached_plan_fingerprints(&self) -> Vec<u64> {
        self.plan_cache.fingerprints()
    }
}

/// Stages the two blobs an instance runs off, each only where the shard
/// has none yet: the canonical `source` of `script` under its `hash` —
/// text already there is shared only if it is this text — and `plan`
/// under its fingerprint, so a load decodes it instead of recompiling.
///
/// # Errors
///
/// Different text under `hash`, or a write the action refused.
pub(super) fn pin_blobs(
    mgr: &mut TxManager<StableStore>,
    action: &AtomicAction,
    script: &str,
    hash: u64,
    source: &str,
    plan: &Plan,
) -> Result<(), EngineError> {
    let source_key = source_uid(hash);
    match mgr.read_committed_bytes(&source_key) {
        Some(stored) if stored != source.as_bytes() => {
            return Err(EngineError::Tx(format!(
                "`{source_key}` holds a different source than script `{script}`"
            )));
        }
        Some(_) => {}
        None => mgr.write_key_raw(action, &source_key, source.as_bytes().to_vec())?,
    }
    let plan_key = plan_uid(plan.fingerprint);
    if !mgr.exists_key(&plan_key) {
        mgr.write_key(action, &plan_key, plan)?;
    }
    Ok(())
}

/// Validated plans by their encoding. Decoding a plan and checking it
/// (`is_well_formed` + `verify_fingerprint`) is a pure function of the
/// bytes, so each distinct encoding — the repository's reply for a
/// script version, a `sys/plan/…` blob — pays it once per coordinator,
/// and every instance of that plan shares one `Arc<Plan>`. Bytes that
/// fail to decode or validate are never entered. Evicted with the
/// blobs, in [`Coordinator::gc_plans`].
#[derive(Default)]
pub(crate) struct PlanCache {
    plans: BTreeMap<Vec<u8>, Arc<Plan>>,
}

impl PlanCache {
    pub(crate) fn validated(&mut self, bytes: &[u8]) -> Option<Arc<Plan>> {
        if let Some(plan) = self.plans.get(bytes) {
            return Some(plan.clone());
        }
        let plan = flowscript_codec::from_bytes::<Plan>(bytes)
            .ok()
            .filter(|plan| plan.is_well_formed() && plan.verify_fingerprint())?;
        let plan = Arc::new(plan);
        self.plans.insert(bytes.to_vec(), plan.clone());
        Some(plan)
    }

    /// Drops every plan whose fingerprint is not in `live`.
    fn retain_live(&mut self, live: &BTreeSet<u64>) {
        self.plans
            .retain(|_, plan| live.contains(&plan.fingerprint));
    }

    /// The held plans' fingerprints, ascending.
    fn fingerprints(&self) -> Vec<u64> {
        let mut held: Vec<u64> = self.plans.values().map(|plan| plan.fingerprint).collect();
        held.sort_unstable();
        held
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use flowscript_core::samples::FIG1_DIAMOND;
    use flowscript_tx::storage::FlakyStorage;
    use flowscript_tx::{Shared, SharedStorage, StableStore};

    use flowscript_sim::{NodeId, SimTime};

    use super::*;
    use crate::coordinator::{EngineConfig, Input};
    use crate::driver::Node;
    use crate::sched::ExecutorSpec;
    use crate::shard::ShardMap;

    /// One shard over `storage`, its executor never run: nothing but
    /// the coordinator, its outputs left in its outbox.
    fn shard(storage: impl Into<StableStore>) -> Coordinator {
        let [client, here, executor] = [0, 1, 2].map(NodeId::from_index);
        let config = EngineConfig::default();
        let executors = vec![ExecutorSpec::unbounded(executor)];
        let shard = ShardMap::new(vec![here]);
        Coordinator::open(here, client, executors, config, storage, shard)
            .expect("empty storage opens")
    }

    fn start(coord: &mut Coordinator, name: &str) -> Result<(), EngineError> {
        let seed = ObjectVal::text("Data", "s");
        let inputs = BTreeMap::from([("seed".to_string(), seed)]);
        coord.start_instance(
            name,
            "diamond",
            FIG1_DIAMOND,
            "diamond",
            "main",
            inputs,
            None,
        )
    }

    #[test]
    fn a_start_that_fails_mid_staging_keeps_no_lock() {
        let mut coord = shard(SharedStorage::new());
        // Another open action holds the write lock on `x`'s header: the
        // start of `x` dies on it, after it took the id sequence's.
        let blocker = coord.mgr.begin();
        let written = coord.mgr.write_key(&blocker, &keys::meta_uid("x"), &0u8);
        written.expect("nothing else is open");
        assert!(matches!(start(&mut coord, "x"), Err(EngineError::Tx(_))));
        // Abandoned with its locks, that action would fail every later
        // start on this shard until a restart.
        start(&mut coord, "y").expect("the failed start released the id sequence");
        coord.mgr.abort(blocker);
        start(&mut coord, "x").expect("and left nothing of `x` behind");
        assert_eq!(coord.instance_names(), ["x", "y"]);
    }

    /// The `Ack` never precedes a durable frame, and a refused start
    /// leaves nothing behind: the start is one commit record appended
    /// before it is applied, so a frame that fails to append aborts the
    /// step — no key of `x` in the store, no runtime, no admission slot,
    /// no lock — and the *same* name starts once the disk heals.
    #[test]
    fn a_start_whose_frame_fails_to_append_is_not_acknowledged() {
        let storage = FlakyStorage::default();
        let fail = storage.fail.clone();
        let mut coord = shard(Shared::from(storage));
        let objects = |coord: &Coordinator| coord.mgr.object_count();
        let occupancy = |coord: &Coordinator| coord.admission.occupancy();
        fail.store(true, Ordering::Relaxed);
        let refused = start(&mut coord, "x");
        assert!(
            matches!(&refused, Err(EngineError::Tx(why)) if why.contains("injected append failure")),
            "{refused:?}"
        );
        assert!(coord.instance_names().is_empty());
        assert_eq!((objects(&coord), occupancy(&coord)), (0, 0));
        assert_eq!(coord.log_size(), 0);
        assert!(coord.outbox.is_empty(), "nothing was published");
        assert_eq!(coord.stats().dispatches, 0);
        fail.store(false, Ordering::Relaxed);
        start(&mut coord, "x").expect("the healed disk takes the same name");
        assert_eq!(coord.instance_names(), ["x"]);
        assert_eq!(occupancy(&coord), 1);
        assert_eq!(coord.stats().dispatches, 1, "t1, once");
    }

    /// A restart that finds an `Executing` block it cannot decode stops
    /// the instance and says where. Read as absent — which is `Waiting`
    /// — the leaf would never run again and the instance would wait on
    /// it with no explanation.
    #[test]
    fn a_corrupt_block_stops_a_restart_instead_of_reading_as_waiting() {
        let mut coord = shard(SharedStorage::new());
        start(&mut coord, "d").expect("starts");
        assert_eq!(coord.stats().dispatches, 1, "t1");
        let t1 = {
            let rt = &coord.instances["d"];
            let t1 = rt.plan.task_by_path("diamond/t1").unwrap();
            StoreKey::Fact(rt.keys.cb(t1))
        };
        assert!(coord.task_states("d")["diamond/t1"].is_running());
        assert!(coord.poison([t1]), "poison lands");
        // The crash loses nothing committed: the restart replays the log.
        coord.handle(SimTime::ZERO, Input::Restart);
        match coord.status("d") {
            Ok(InstanceStatus::Stuck { reason }) => {
                assert!(reason.contains("control block storage fault"), "{reason}");
                assert!(reason.contains("diamond/t1"), "{reason}");
            }
            other => panic!("expected a storage-fault stop, got {other:?}"),
        }
        assert_eq!(coord.stats().dispatches, 1, "t1 was not re-dispatched");
    }

    #[test]
    fn plan_cache_validates_once_and_never_holds_bad_bytes() {
        let schema =
            schema::compile_source(flowscript_core::samples::FIG1_DIAMOND, "diamond").unwrap();
        let bytes = flowscript_codec::to_bytes(&Plan::lower(&schema));
        let mut cache = PlanCache::default();
        // Every instance of one encoding shares one decoded plan.
        let first = cache.validated(&bytes).expect("a lowered plan validates");
        let again = cache
            .validated(&bytes)
            .expect("and is served from the cache");
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(cache.fingerprints(), [first.fingerprint]);
        // Undecodable, truncated and tampered encodings all miss — and
        // leave no entry behind to be served later.
        let mut tampered = bytes.clone();
        *tampered.last_mut().unwrap() ^= 0xFF; // the stored fingerprint
        for bad in [&[0xFF; 3][..], &bytes[..bytes.len() / 2], &tampered] {
            assert!(cache.validated(bad).is_none());
        }
        assert_eq!(cache.fingerprints(), [first.fingerprint]);
    }
}
