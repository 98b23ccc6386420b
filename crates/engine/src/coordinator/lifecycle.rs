//! Instance lifecycle: starting an instance, materialising its volatile
//! runtime from committed state (crash recovery and adoption share the
//! loader), the monitoring reads — and the plans instances run off. A
//! plan is its source, compiled: the canonical text a start or a
//! reconfiguration pins (`sys/src/…`, once per content hash,
//! [`pin_source`]) is compiled once per shard and version by the
//! [`PlanCache`], which every start, load and reconfiguration goes
//! through, and which sheds a version with its source blob once no
//! instance pins it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use flowscript_codec::IdMap;
use flowscript_core::{schema, Diagnostics};
use flowscript_obs::ObsEventKind;
use flowscript_plan::{Plan, TaskId};
use flowscript_tx::{AtomicAction, StableStore, StoreKey, TxManager};

use super::meta::source_hash;
use super::step::Effect;
use super::{
    settled, stored_instances, Coordinator, Flights, InstanceHeader, InstanceRt, InstanceStatus,
    Outcome, StuckRecord,
};
use crate::error::EngineError;
use crate::facts;
use crate::keys::{self, in_key, meta_uid, out_key, source_uid, status_uid};
use crate::state::{CbState, TaskCb};
use crate::value::{entries, ObjectVal};

impl Coordinator {
    /// Materializes an instance's volatile runtime from committed
    /// state: the plan of the source its header pins, and its id. Pure
    /// state load — arms no timers and dispatches nothing.
    ///
    /// # Errors
    ///
    /// The pinned source is missing or corrupt, or does not compile.
    fn load_instance(
        &mut self,
        name: &str,
        header: &InstanceHeader,
    ) -> Result<InstanceRt, EngineError> {
        let plan = match self.cached_plan(header) {
            Some(plan) => plan,
            None => {
                let source = pinned_source(&self.mgr, name, header)?;
                let (hash, root) = (header.source_hash, header.root.as_str());
                self.plan_cache.plan(hash, source, root)?
            }
        };
        let terminal = settled(&self.mgr, None, name, header.instance_id);
        Ok(InstanceRt {
            name: name.into(),
            plan,
            id: header.instance_id,
            flights: Flights::default(),
            terminal,
            planted: true,
        })
    }

    /// [`Self::load_instance`] for crash recovery and adoption, which
    /// must not leave a stored instance behind unexplained: a running
    /// instance whose plan cannot be built is stopped `Stuck`, its
    /// reason naming the fault — as a control block that does not
    /// decode stops its instance. Read as absent it would stay
    /// `Running`, never dispatched again, with no word of why. Whether
    /// it runs is read without the plan: no stuck record, and a root
    /// block whose tag says neither `Done` nor `Aborted`.
    pub(super) fn load_or_park(
        &mut self,
        name: &str,
        header: &InstanceHeader,
    ) -> Option<InstanceRt> {
        let fault = match self.load_instance(name, header) {
            Ok(rt) => return Some(rt),
            Err(fault) => fault,
        };
        let key = status_uid(name);
        if !settled(&self.mgr, None, name, header.instance_id) {
            let reason = format!("script source storage fault: {fault}");
            let stuck = StuckRecord { reason };
            let _ = self.atomically(|mgr, action| Ok(mgr.write_key(action, &key, &stuck)?));
        }
        None
    }

    /// The plan a stored instance runs off — the source its header pins,
    /// compiled for its root — if the shard's [`PlanCache`] holds it: a
    /// comparison, the bytes being checked when the entry was compiled.
    fn cached_plan(&self, header: &InstanceHeader) -> Option<Arc<Plan>> {
        let (hash, root) = (header.source_hash, header.root.as_str());
        let stored = self.mgr.read_committed_bytes(&source_uid(hash))?;
        self.plan_cache.cached(hash, root, stored)
    }

    /// Compiles (through the [`PlanCache`]) and launches an admitted
    /// instance of `source`, the text the repository serves for the
    /// script version, whose [`source_hash`] is `hash` (worked out once
    /// per version, when the shard fetched it).
    ///
    /// # Errors
    ///
    /// Invalid script, bad inputs or storage failure.
    pub(super) fn start_instance(
        &mut self,
        instance: &str,
        (hash, source): (u64, &str),
        root: &str,
        set: &str,
        inputs: BTreeMap<String, ObjectVal>,
    ) -> Result<(), EngineError> {
        let plan = self.plan_cache.plan(hash, source, root)?;
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
        let (root_path, set_name) = (plan.name(plan.root().path), plan.name(set_info.name));
        let name: Arc<str> = Arc::from(instance);

        // The start is one step — header, blocks, the root's binding
        // *and* the first drain's activations in one action — committed
        // straight to the log: a frame that fails to append aborts it,
        // and leaves nothing behind. It writes no status: the root block
        // it stores `Active` says the instance runs. The caller
        // acknowledges the start on `Ok`: a frame that did not reach the
        // log must not read as one.
        self.step(&[self.next_id], |coordinator, step, _| {
            // A second start must not write over the first.
            if coordinator.holds(instance) {
                return Err(EngineError::DuplicateInstance(instance.to_string()));
            }
            // The dense instance id: the shard's next free one, taken
            // once the start commits (`Effect::Resident`).
            let instance_id = coordinator.next_id;
            let root_in = in_key(&plan, instance_id, 0, set)
                .ok_or_else(|| EngineError::BadInputs(format!("unmapped input set `{set}`")))?;
            let header = InstanceHeader {
                source_hash: hash,
                root: root.to_string(),
                instance_id,
            };
            let action = step.action(&mut coordinator.mgr);
            let mgr = &mut coordinator.mgr;
            mgr.write_key(action, &meta_uid(instance), &header)?;
            pin_source(mgr, action, hash, source)?;
            // Root control block starts Active with the supplied inputs
            // bound; every descendant starts `Waiting`, which a block
            // never stored reads as.
            let mut root_cb = TaskCb::waiting();
            root_cb.transition(CbState::Active {
                set: set_name.clone(),
            });
            facts::write_block(mgr, action, &plan, instance_id, 0, &root_cb)?;
            // The root's input binding goes through the fact layout like
            // every other fact, so root-input fallbacks probe per object;
            // it is the one record of what the instance was started on.
            facts::write_fact_map(mgr, action, &plan, root_in, entries(&inputs), None)?;
            let rt = InstanceRt {
                name: name.clone(),
                plan: plan.clone(),
                id: instance_id,
                flights: Flights::default(),
                terminal: false,
                planted: false,
            };
            step.push(instance_id, Effect::Resident(Box::new(rt)));
            coordinator.trace(step, instance_id, Some(&root_path), 0, || {
                ObsEventKind::InstanceStart
            });
            // The first drain: the root just activated.
            let mut drain = coordinator.drain_of(name.clone(), &plan, instance_id);
            drain.worklist.seed_children(&plan, 0);
            coordinator.stage_drain(step, &mut drain)
        })
    }

    /// Instance status (monitoring API), read off what the log holds: a
    /// stuck record says `Stuck` and why; else a root block saying
    /// `Done`/`Aborted` says `Completed`, with the objects of the root's
    /// output fact; else the instance runs. An instance not resident
    /// resolves through its stored header and pinned source.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownInstance`]; a storage error if the stuck
    /// record, the root block or the root's output fact does not decode.
    pub fn status(&self, instance: &str) -> Result<InstanceStatus, EngineError> {
        let stuck: Option<StuckRecord> = self.mgr.read_committed_key(&status_uid(instance))?;
        if let Some(StuckRecord { reason }) = stuck {
            return Ok(InstanceStatus::Stuck { reason });
        }
        let (plan, instance_id) = self.plan_of(instance)?;
        let (CbState::Done { outcome: name } | CbState::Aborted { outcome: name }) =
            self.read_cb_id(&plan, instance_id, 0)?.state
        else {
            return Ok(InstanceStatus::Running);
        };
        let kind = plan.class_output(plan.class_of(plan.root()), &name);
        let fact = out_key(&plan, instance_id, 0, &name);
        let objects = fact.map(|key| facts::read_fact_map(&self.mgr, &plan, key));
        match (kind, objects.transpose()?.flatten()) {
            (Some(output), Some(objects)) => Ok(InstanceStatus::Completed(Outcome {
                name: name.to_string(),
                kind: output.kind,
                objects,
            })),
            _ => Err(EngineError::Tx(format!(
                "the root of `{instance}` ended `{name}` and holds no such output"
            ))),
        }
    }

    /// `instance`'s plan and id: the resident runtime's, else
    /// (e.g. monitoring a crashed-but-unrecovered store) its stored
    /// header's id over the plan of the source it pins — compiled, on a
    /// cache miss, without keeping it: a read leaves the cache alone.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownInstance`], or a header or source that does
    /// not load.
    fn plan_of(&self, instance: &str) -> Result<(Arc<Plan>, u32), EngineError> {
        if let Some(rt) = self.instances.named(instance) {
            return Ok((rt.plan.clone(), rt.id));
        }
        let header = self.read_header(instance)?;
        let plan = match self.cached_plan(&header) {
            Some(plan) => plan,
            None => PlanCache::compile(pinned_source(&self.mgr, instance, &header)?, &header.root)?,
        };
        Ok((plan, header.instance_id))
    }

    /// All task states of an instance, keyed by path (a block never
    /// stored reads `Waiting`).
    pub fn task_states(&self, instance: &str) -> BTreeMap<String, CbState> {
        let blocks = self.task_blocks(instance).into_iter();
        blocks.map(|(path, cb)| (path, cb.state)).collect()
    }

    /// Every committed control block of an instance, keyed by path:
    /// point reads over the plan's dense task ids, skipping a block that
    /// does not decode; an instance not resident resolves through its
    /// stored header and pinned source. Test hook beyond the states.
    #[doc(hidden)]
    pub fn task_blocks(&self, instance: &str) -> BTreeMap<String, TaskCb> {
        let Ok((plan, instance_id)) = self.plan_of(instance) else {
            return BTreeMap::new();
        };
        (0..plan.tasks.len() as TaskId)
            .filter_map(|id| {
                let cb = self.read_cb_id(&plan, instance_id, id).ok()?;
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
        let rt = self.instances.named(instance)?;
        let task = rt.plan.task_by_path(path)?;
        let key = out_key(&rt.plan, rt.id, task, output)?;
        facts::read_fact_map(&self.mgr, &rt.plan, key)
            .ok()
            .flatten()
    }

    /// Names of instances known to the coordinator, in name order.
    pub fn instance_names(&self) -> Vec<String> {
        self.instances.names().map(ToString::to_string).collect()
    }

    /// Drops the pinned sources (`sys/src/…`) no stored instance
    /// references any more, and their versions' plans with them. Every
    /// reconfiguration pins a new version, so without this a
    /// reconfigured instance strands its old source forever, and a
    /// script's source outlives its last instance. Runs at checkpoint
    /// time (cold path): one pass over the stored instances — covering
    /// those the shard has not (re)loaded — names every live version.
    pub(super) fn gc_plans(&mut self) -> Result<(), EngineError> {
        let live: BTreeSet<u64> = stored_instances(&self.mgr)
            .into_iter()
            .map(|(_, header)| header.source_hash)
            .collect();
        self.plan_cache.retain(&live);
        let mut stale = self.mgr.uids_with_prefix(keys::SOURCE_PREFIX);
        stale.retain(|uid| keys::source_blob_hash(uid).is_none_or(|hash| !live.contains(&hash)));
        if stale.is_empty() {
            return Ok(());
        }
        // Straight to the manager: the checkpoint that follows compacts
        // this commit away, and routing through `Self::atomically` would
        // re-trigger the checkpoint counter.
        let action = self.mgr.begin();
        if let Err(err) = stale
            .into_iter()
            .try_for_each(|uid| self.mgr.delete_key(&action, &StoreKey::Uid(uid)))
        {
            self.mgr.abort(action);
            return Err(err.into());
        }
        self.mgr.commit(action)?;
        Ok(())
    }

    /// Hashes of the canonical sources pinned in this shard's store
    /// (`sys/src/…`) — the blob-GC observability hook. Performs a uid
    /// prefix scan.
    #[doc(hidden)]
    pub fn persisted_source_hashes(&self) -> Vec<u64> {
        let blobs = self.mgr.uids_with_prefix(keys::SOURCE_PREFIX);
        blobs.iter().filter_map(keys::source_blob_hash).collect()
    }
}

/// The canonical source the header of `name` pins, as `mgr` holds it
/// committed. Every plan a stored instance runs off is compiled from
/// this text, and a reconfiguration edits it.
///
/// # Errors
///
/// The source blob is missing or is not the text the header's hash
/// names.
pub(super) fn pinned_source<'a>(
    mgr: &'a TxManager<StableStore>,
    name: &str,
    header: &InstanceHeader,
) -> Result<&'a str, EngineError> {
    let key = source_uid(header.source_hash);
    mgr.read_committed_bytes(&key)
        .and_then(|bytes| std::str::from_utf8(bytes).ok())
        .filter(|text| source_hash(text) == header.source_hash)
        .ok_or_else(|| EngineError::Tx(format!("`{key}` does not hold the source of `{name}`")))
}

/// Stages the canonical `source` under its `hash`, unless the shard
/// holds it already — text already there is shared only if it is this
/// text.
///
/// # Errors
///
/// Different text under `hash`, or a write the action refused.
pub(super) fn pin_source(
    mgr: &mut TxManager<StableStore>,
    action: &AtomicAction,
    hash: u64,
    source: &str,
) -> Result<(), EngineError> {
    let key = source_uid(hash);
    match mgr.read_committed_bytes(&key) {
        Some(stored) if stored != source.as_bytes() => Err(EngineError::Tx(format!(
            "`{key}` holds a different source of the same hash"
        ))),
        Some(_) => Ok(()),
        None => Ok(mgr.write_key_raw(action, &key, source.as_bytes().to_vec())?),
    }
}

/// The plans of the script versions this shard runs, each compiled once
/// and shared by every instance of its version as one `Arc<Plan>`. A
/// version is its source hash and root; an entry keeps the text it was
/// compiled from and is served only for that text, so a plan is never
/// handed to a text it was not compiled from, whatever the hash says.
/// It also knows what each repository version it fetched is — a
/// `(script, version)`'s text never changes — so a start that names
/// one launches off the entry's text with no round trip.
/// Volatile: a restart recompiles each version on its first load, and
/// fetches each repository version once more.
#[derive(Default)]
pub(super) struct PlanCache {
    /// By source hash, one entry per root its text was compiled for:
    /// the text and the plan, which names its root. A lookup is one
    /// probe and a walk of a handful. The hashes are the shard's own
    /// digests of the versions it runs, so they hash under the fixed
    /// hasher.
    plans: IdMap<u64, Vec<Compiled>>,
    /// Script → version → the source hash and root of its text.
    versions: BTreeMap<String, BTreeMap<u32, (u64, Arc<str>)>>,
}

/// A version's text and the plan compiled from it.
type Compiled = (Arc<str>, Arc<Plan>);

/// The root `plan` was compiled for.
fn root_of(plan: &Plan) -> &str {
    plan.str(plan.root().name)
}

impl PlanCache {
    /// The plan of `source` (whose [`source_hash`] is `hash`) compiled
    /// for `root`: from the cache, else compiled and kept.
    ///
    /// # Errors
    ///
    /// The front end refuses the text.
    pub(super) fn plan(
        &mut self,
        hash: u64,
        source: &str,
        root: &str,
    ) -> Result<Arc<Plan>, Diagnostics> {
        if let Some(plan) = self.cached(hash, root, source.as_bytes()) {
            return Ok(plan);
        }
        let plan = Self::compile(source, root)?;
        let roots = self.plans.entry(hash).or_default();
        let compiled = (Arc::from(source), plan.clone());
        match roots.iter_mut().find(|(_, held)| root_of(held) == root) {
            Some(held) => *held = compiled,
            None => roots.push(compiled),
        }
        Ok(plan)
    }

    /// `source` compiled for `root` and kept nowhere: the one place a
    /// coordinator lowers a plan.
    fn compile(source: &str, root: &str) -> Result<Arc<Plan>, Diagnostics> {
        let schema = schema::compile_source(source, root)?;
        Ok(Arc::new(Plan::lower(&schema)))
    }

    /// Notes that the repository serves `source` for `root` as `version`
    /// of `script`: its [`source_hash`], the one a fetched version costs.
    pub(super) fn remember(&mut self, script: &str, version: u32, source: &str, root: &str) -> u64 {
        let hash = source_hash(source);
        let versions = self.versions.entry(script.to_string()).or_default();
        versions.insert(version, (hash, root.into()));
        hash
    }

    /// The source hash, text and root of `version` of `script`, if this
    /// shard fetched it and still holds its plan.
    pub(super) fn version(&self, script: &str, version: u32) -> Option<(u64, Arc<str>, Arc<str>)> {
        let (hash, root) = self.versions.get(script)?.get(&version)?;
        let (text, _) = self.entry(*hash, root)?;
        Some((*hash, text.clone(), root.clone()))
    }

    /// The entry of version `(hash, root)`: one probe, then the hash's
    /// few roots.
    fn entry(&self, hash: u64, root: &str) -> Option<&Compiled> {
        let roots = self.plans.get(&hash)?;
        roots.iter().find(|(_, plan)| root_of(plan) == root)
    }

    /// The plan of version `(hash, root)`, if this shard compiled it
    /// from exactly `source`: the entry's own text (as
    /// [`PlanCache::version`] serves it) is, and any other is compared.
    fn cached(&self, hash: u64, root: &str, source: &[u8]) -> Option<Arc<Plan>> {
        let (text, plan) = self.entry(hash, root)?;
        let text = text.as_bytes();
        (std::ptr::eq(text, source) || text == source).then(|| plan.clone())
    }

    /// Drops every version whose source hash is not in `live`: a start
    /// of a repository version dropped here fetches it again.
    fn retain(&mut self, live: &BTreeSet<u64>) {
        self.plans.retain(|hash, _| live.contains(hash));
        for versions in self.versions.values_mut() {
            versions.retain(|_, (hash, _)| live.contains(hash));
        }
        self.versions.retain(|_, versions| !versions.is_empty());
    }

    /// How many versions have a plan here.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.plans.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use flowscript_core::samples::FIG1_DIAMOND;
    use flowscript_tx::storage::FlakyStorage;
    use flowscript_tx::{FactKey, Shared, SharedStorage, StableStore};

    use flowscript_sim::{NodeId, SimTime};

    use super::*;
    use crate::coordinator::{EngineConfig, Input, Op, Output};
    use crate::driver::Node;
    use crate::reconfig::Reconfig;
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
            (source_hash(FIG1_DIAMOND), FIG1_DIAMOND),
            "diamond",
            "main",
            inputs,
        )
    }

    /// The operator's reconfiguration of `instance`, handed in through
    /// the door: what it is answered.
    fn reconfigure(
        coord: &mut Coordinator,
        instance: &str,
        op: Reconfig,
    ) -> Result<(), EngineError> {
        let op = Op::Reconfigure {
            instance: instance.into(),
            op,
        };
        match coord.handle(SimTime::ZERO, Input::Op(op)).pop() {
            Some(Output::Answer(answer)) => answer.map(drop),
            last => panic!("the answer comes last: {last:?}"),
        }
    }

    /// The `Ack` never precedes a durable frame, and a refused start
    /// leaves nothing behind: the start is one commit record appended
    /// before it is applied, so a frame that fails to append aborts the
    /// step — no key of `x` in the store, no runtime, no admission slot,
    /// no instance id — and the *same* name starts once the disk heals.
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
        assert_eq!(
            coord.instances.named("x").unwrap().id,
            0,
            "nor did it take an id"
        );
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
            let rt = coord.instances.named("d").unwrap();
            let t1 = rt.plan.task_by_path("diamond/t1").unwrap();
            StoreKey::Fact(FactKey::control(rt.id, t1))
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

    /// A shard compiles each script version once: every instance on a
    /// version holds the one plan, a restart compiles each version once
    /// more, and a checkpoint sheds a version no instance runs any more.
    #[test]
    fn a_shard_compiles_each_version_once() {
        let mut coord = shard(SharedStorage::new());
        for name in ["d1", "d2", "d3"] {
            start(&mut coord, name).expect("starts");
        }
        let rebind = || Reconfig::Rebind {
            code: "refT4".into(),
            to: "refT4b".into(),
        };
        let reconfigured = reconfigure(&mut coord, "d1", rebind());
        reconfigured.expect("a new version of `d1`'s script");
        let plan =
            |coord: &Coordinator, name: &str| coord.instances.named(name).unwrap().plan.clone();
        let shared = |coord: &Coordinator, a, b| Arc::ptr_eq(&plan(coord, a), &plan(coord, b));

        coord.handle(SimTime::ZERO, Input::Restart);
        assert_eq!(coord.instance_names(), ["d1", "d2", "d3"]);
        assert!(shared(&coord, "d2", "d3"), "one plan per version");
        assert!(!shared(&coord, "d1", "d2"));
        assert_eq!(coord.plan_cache.len(), 2, "two versions, two compiles");

        for name in ["d2", "d3"] {
            let reconfigured = reconfigure(&mut coord, name, rebind());
            reconfigured.expect("the same edit makes the same version");
        }
        assert!(shared(&coord, "d1", "d2") && shared(&coord, "d2", "d3"));
        assert_eq!(
            coord.plan_cache.len(),
            2,
            "the first version is still cached"
        );
        coord.gc_plans().expect("collects");
        assert_eq!(coord.plan_cache.len(), 1, "it left with its source");
        assert_eq!(coord.persisted_source_hashes().len(), 1);
    }
}
