//! Shard membership: who owns an instance, relaying what lands on the
//! wrong shard, moving live instances between shards (the four-step
//! hand-off below) and adopting a dead shard's instances out of its
//! claimed storage.

use std::collections::BTreeMap;

use flowscript_obs::ObsEventKind;
use flowscript_sim::{NodeId, ReplyToken, SimDuration, World};
use flowscript_tx::{FactKey, StableStore, StoreKey, TxId, TxManager};

use super::meta::{instance_seq_uid, plan_uid};
use super::{stored_instance_names, CoordHandle, Coordinator, InstanceMeta, InstanceStatus};
use crate::error::EngineError;
use crate::keys::meta_uid;
use crate::msg::EngineMsg;
use crate::sched::ImplHints;
use crate::shard::ShardMap;

/// Maximum relays a misdirected message may take before the relay
/// drops it as a routing loop (see [`super::CoordStats::forward_loops`]).
/// One hop resolves any transient single-rebalance disagreement; four
/// leaves slack for stacked membership changes.
pub const MAX_FORWARD_HOPS: u32 = 4;

/// Who owns what, as this coordinator sees it.
pub(super) struct Membership {
    /// Instance ownership across all coordinator nodes of the system
    /// (shared verbatim by every shard; requests for instances this
    /// node does not own are forwarded to the owner).
    shard: ShardMap,
    /// Where instances this node handed off went — the dual-delivery
    /// relay table for the window between a move's commit and the
    /// rebalance's final map flip, when this node's `shard` map still
    /// claims ownership. Volatile, but rebuilt on recovery from
    /// replayed `HandOffEnd` frames; cleared by the flip
    /// ([`CoordHandle::set_shard_map`]), after which the map itself
    /// routes to the new owner.
    moved: BTreeMap<String, NodeId>,
}

impl Membership {
    pub(super) fn new(shard: ShardMap) -> Self {
        Self {
            shard,
            moved: BTreeMap::new(),
        }
    }

    /// The shard map's current epoch (stamped on dispatches and on the
    /// membership trace events).
    pub(super) fn epoch(&self) -> u64 {
        self.shard.epoch()
    }

    /// A fenced zombie relays nothing: its relay table dies with its
    /// claim on the storage.
    pub(super) fn forget_moves(&mut self) {
        self.moved.clear();
    }
}

/// Everything one instance move ships from source to destination
/// shard: the moving transaction's identity and the raw committed
/// bytes of the instance's whole keyspace — metadata, control blocks,
/// rebindings, reconfiguration records, the pinned compiled plan and
/// every dependency fact (one contiguous range scan). Produced by
/// [`CoordHandle::handoff_collect`] on the source, consumed by
/// [`CoordHandle::handoff_prepare`] on the destination; fact keys
/// still carry the source shard's dense instance id (the destination
/// re-keys them under its own allocator while staging).
#[derive(Debug, Clone)]
pub struct HandoffPackage {
    /// The move's distributed transaction (2PC, source-coordinated).
    pub tx: TxId,
    /// The instance being moved.
    pub instance: String,
    /// Source coordinator node index — the 2PC coordinator a restarted
    /// destination queries to terminate an in-doubt stage.
    src_node: u32,
    /// The instance's dense fact-key id on the source shard.
    src_instance_id: u32,
    /// Raw committed entries, keyed as the source stored them.
    entries: Vec<(StoreKey, Vec<u8>)>,
}

impl HandoffPackage {
    /// Number of committed entries the package carries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the package carries no entries (it never does for a
    /// real instance — the meta object alone is one entry).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The package's entries as the destination stores them: every fact
    /// key re-keyed onto `new_id` (the dense id is shard-local; the
    /// instance keeps its name), the meta's `instance_id` rewritten to
    /// match, everything else verbatim.
    ///
    /// # Errors
    ///
    /// An undecodable meta entry.
    fn rekeyed(&self, new_id: u32) -> Result<Vec<(StoreKey, Vec<u8>)>, EngineError> {
        let meta_key = StoreKey::Uid(meta_uid(&self.instance));
        self.entries
            .iter()
            .map(|(key, bytes)| match key {
                StoreKey::Fact(fact) => {
                    debug_assert_eq!(fact.instance, self.src_instance_id);
                    let fact = FactKey {
                        instance: new_id,
                        ..*fact
                    };
                    Ok((StoreKey::Fact(fact), bytes.clone()))
                }
                key if *key == meta_key => {
                    let mut meta: InstanceMeta = flowscript_codec::from_bytes(bytes)
                        .map_err(|e| EngineError::Tx(format!("hand-off meta corrupt: {e}")))?;
                    meta.instance_id = new_id;
                    Ok((key.clone(), flowscript_codec::to_bytes(&meta)))
                }
                key => Ok((key.clone(), bytes.clone())),
            })
            .collect()
    }
}

/// Packages `instance`'s entire committed keyspace out of `mgr` for a
/// move under transaction `tx` — the collect half shared by planned
/// hand-offs (the source's own store) and crash-driven adoption (a dead
/// shard's reopened storage). Everything derives from the committed
/// meta: the `inst/{name}/` uid prefix, the plan pinned under the
/// meta's fingerprint, and the dense fact range of the meta's instance
/// id — one contiguous range scan. `src_node` is the shard the bytes
/// come from. Returns `None` for a missing or undecodable meta.
pub(crate) fn package_instance(
    mgr: &TxManager<StableStore>,
    instance: &str,
    tx: TxId,
    src_node: u32,
) -> Option<HandoffPackage> {
    let meta: InstanceMeta = mgr.read_committed(&meta_uid(instance)).ok()??;
    let mut entries: Vec<(StoreKey, Vec<u8>)> = Vec::new();
    for uid in mgr.uids_with_prefix(&format!("inst/{instance}/")) {
        let key = StoreKey::Uid(uid);
        if let Some(bytes) = mgr.read_committed_bytes(&key).map(<[u8]>::to_vec) {
            entries.push((key, bytes));
        }
    }
    let plan_key = StoreKey::Uid(plan_uid(meta.plan_fingerprint));
    if let Some(bytes) = mgr.read_committed_bytes(&plan_key).map(<[u8]>::to_vec) {
        entries.push((plan_key, bytes));
    }
    let lo = FactKey::instance_first(meta.instance_id);
    let hi = FactKey::instance_last(meta.instance_id);
    for fact in mgr.fact_keys_in_range(lo, hi) {
        let key = StoreKey::Fact(fact);
        if let Some(bytes) = mgr.read_committed_bytes(&key).map(<[u8]>::to_vec) {
            entries.push((key, bytes));
        }
    }
    Some(HandoffPackage {
        tx,
        instance: instance.to_string(),
        src_node,
        src_instance_id: meta.instance_id,
        entries,
    })
}

impl Coordinator {
    /// Deletes every committed object of `instance` in one atomic
    /// action: the whole `inst/{name}/` uid prefix plus the dense fact
    /// range of the meta's instance id. The storage half of the source
    /// side of a committed hand-off (the shared compiled-plan blob
    /// stays; plan GC collects it once no local meta pins it). Returns
    /// the meta it deleted, if there was one.
    fn purge_instance(&mut self, instance: &str) -> Result<Option<InstanceMeta>, EngineError> {
        let meta: Option<InstanceMeta> = self.mgr.read_committed(&meta_uid(instance))?;
        let action = self.mgr.begin();
        for uid in self.mgr.uids_with_prefix(&format!("inst/{instance}/")) {
            self.mgr.delete(&action, &uid)?;
        }
        if let Some(meta) = &meta {
            let lo = FactKey::instance_first(meta.instance_id);
            let hi = FactKey::instance_last(meta.instance_id);
            for fact in self.mgr.fact_keys_in_range(lo, hi) {
                self.mgr.delete_key(&action, &StoreKey::Fact(fact))?;
            }
        }
        self.commit(action)?;
        Ok(meta)
    }

    /// Hand-off crash repair, run by recovery before any instance
    /// loads. A crash can strand a move at any point:
    ///  * a replayed *committed* decision whose keyspace purge did not
    ///    land means the destination owns the instance — purge now and
    ///    rebuild its relay entry;
    ///  * an intent with no decision is presumed aborted: append the
    ///    durable abort so the destination releases its staged locks.
    ///
    /// Returns the 2PC termination traffic to send once the instances
    /// are back: every durable decision this restart replayed (plus the
    /// presumed aborts just appended) is re-announced — the destination
    /// may have crashed before hearing it the first time; resolution is
    /// idempotent, so duplicates are harmless — and every stage this
    /// node prepared but never heard a decision for is chased with a
    /// query to its coordinator.
    pub(super) fn repair_handoffs(&mut self) -> Vec<(NodeId, EngineMsg)> {
        let mut traffic = Vec::new();
        for (tx, instance, dest, committed) in self.mgr.replayed_handoff_ends().to_vec() {
            let dest_node = NodeId::from_index(dest as usize);
            if committed {
                if self.mgr.exists(&meta_uid(&instance)) {
                    let _ = self.purge_instance(&instance);
                }
                // Executor replies for the moved instance may still
                // arrive here.
                self.membership.moved.insert(instance, dest_node);
            }
            traffic.push((dest_node, verdict(tx, committed)));
        }
        for (tx, instance, dest) in self.mgr.open_handoffs() {
            let _ = self.mgr.handoff_end(tx, &instance, dest, false);
            traffic.push((NodeId::from_index(dest as usize), verdict(tx, false)));
        }
        for (tx, coordinator_node) in self.mgr.in_doubt() {
            let query = EngineMsg::HandoffQuery {
                tx_node: tx.node(),
                tx_seq: tx.seq(),
            };
            traffic.push((NodeId::from_index(coordinator_node as usize), query));
        }
        traffic
    }
}

/// The source's decision on moving transaction `tx`, as a message.
fn verdict(tx: TxId, committed: bool) -> EngineMsg {
    EngineMsg::HandoffVerdict {
        tx_node: tx.node(),
        tx_seq: tx.seq(),
        committed,
    }
}

impl CoordHandle {
    /// `Some(owner)` when `instance` belongs to a *different*
    /// coordinator per the shared shard map (the request must be
    /// forwarded), `None` when this node owns it.
    pub(super) fn misdirected(&self, instance: &str) -> Option<NodeId> {
        let coordinator = self.inner.borrow();
        // Residency beats the map: the instant a committed hand-off is
        // adopted, this node *is* the owner — even while its own map is
        // still the pre-flip one (a crashed destination recovers the
        // move before any map update reaches it). Without this, the
        // stale map bounces relayed reports straight back at the
        // relayer until the hop cap eats them.
        if coordinator.instances.contains_key(instance) {
            return None;
        }
        let owner = coordinator.membership.shard.node_of(instance);
        if owner != coordinator.node {
            return Some(owner);
        }
        // The map says "mine" but the instance was handed off and the
        // rebalance's map flip hasn't happened yet (the dual-delivery
        // window): relay to where it went.
        coordinator.membership.moved.get(instance).copied()
    }

    /// Wraps a misdirected message for its relay to `owner`: an
    /// `EngineMsg::Forwarded` carrying this node's map epoch and the
    /// hop count, returned as `(this node, encoded wrapper)`. A message
    /// that already burned [`MAX_FORWARD_HOPS`] relays is circling
    /// between coordinators whose shard maps disagree — it is counted
    /// (`coord.forward_loops`) and `None` comes back instead of another
    /// bounce. The relay charges only `forwarded`; the owner counts the
    /// operation itself exactly once.
    fn forward_envelope(
        &self,
        world: &World,
        owner: NodeId,
        instance: &str,
        inner: &EngineMsg,
        hops: u32,
    ) -> Option<(NodeId, Vec<u8>)> {
        let coordinator = self.inner.borrow();
        if hops >= MAX_FORWARD_HOPS {
            coordinator.metrics.forward_loops.inc();
            return None;
        }
        coordinator.metrics.forwarded.inc();
        let epoch = coordinator.membership.epoch();
        coordinator.record_event(
            world.now().as_nanos(),
            instance,
            None,
            0,
            ObsEventKind::Forward {
                to: owner.index() as u32,
                epoch,
            },
        );
        let wrapped = EngineMsg::Forwarded {
            epoch,
            hops: hops + 1,
            inner: flowscript_codec::to_bytes(inner),
        };
        Some((coordinator.node, flowscript_codec::to_bytes(&wrapped)))
    }

    /// Relays a misdirected one-way message (`Done`/`Mark`) to the
    /// owning shard; at the hop cap it is dropped.
    pub(super) fn forward_oneway(
        &self,
        world: &mut World,
        owner: NodeId,
        instance: &str,
        inner: EngineMsg,
        hops: u32,
    ) {
        if let Some((node, wrapped)) = self.forward_envelope(world, owner, instance, &inner, hops) {
            world.send(node, owner, wrapped);
        }
    }

    /// Relays a misdirected `StartInstance` RPC to the owning shard and
    /// pipes the owner's reply back to the original caller. At the hop
    /// cap the caller gets a diagnosable error instead of a hang.
    pub(super) fn forward_start(
        &self,
        world: &mut World,
        owner: NodeId,
        instance: &str,
        token: ReplyToken,
        inner: EngineMsg,
        hops: u32,
    ) {
        let Some((node, wrapped)) = self.forward_envelope(world, owner, instance, &inner, hops)
        else {
            let reply = EngineMsg::Ack {
                result: Err(format!(
                    "instance `{instance}` bounced through {hops} shards without \
                     finding an owner (disagreeing shard maps?)"
                )),
            };
            world.rpc_reply_to(token, flowscript_codec::to_bytes(&reply));
            return;
        };
        world.rpc_call(
            node,
            owner,
            wrapped,
            SimDuration::from_secs(8),
            move |world, reply| {
                let bytes = match reply {
                    Ok(bytes) => bytes,
                    Err(err) => flowscript_codec::to_bytes(&EngineMsg::Ack {
                        result: Err(format!("owning shard unreachable: {err}")),
                    }),
                };
                world.rpc_reply_to(token, bytes);
            },
        );
    }

    // -----------------------------------------------------------------
    // Live hand-off (rebalancing and planned drains).
    //
    // A slice of instances bound for one destination moves in four
    // steps under ONE moving transaction, a 2PC with the source as
    // coordinator (a rebalance moves slices of one, a drain slices of
    // up to a batch):
    //
    //   1. `handoff_collect` (source): WAL `HandOffBegin` intents, then
    //      gather each instance's entire committed keyspace into a
    //      [`HandoffPackage`].
    //   2. `handoff_prepare` (destination): re-key the packages under a
    //      freshly allocated contiguous instance-id range and stage
    //      them as one prepared remote transaction (one durable
    //      yes-vote, write locks held).
    //   3. `handoff_commit` (source): WAL `HandOffEnd` per instance —
    //      the durable decision — plus the keyspace deletes, flushed as
    //      one atomic frame; the volatile runtimes are dropped. From
    //      here the source only relays (executor replies to in-flight
    //      tasks are forwarded to the new owner by the ordinary
    //      misdirection path).
    //   4. `handoff_apply` (destination): resolve the prepared stage
    //      and adopt the materialized instances — watchdogs re-armed
    //      for executing tasks *without* attempt bumps, so a relayed
    //      reply applies exactly as if the instance had never moved.
    //
    // Crash repair: see `Coordinator::repair_handoffs`.
    // -----------------------------------------------------------------

    /// Step 1 (source): logs the move intents under one moving
    /// transaction and packages each instance's committed keyspace.
    /// The batch window is flushed first so the packages reflect every
    /// report that has arrived.
    ///
    /// # Errors
    ///
    /// Unknown instance, or storage failure logging the intents.
    pub fn handoff_collect(
        &self,
        world: &mut World,
        instances: &[String],
        dest: NodeId,
    ) -> Result<Vec<HandoffPackage>, EngineError> {
        // The packages must be the whole committed truth: absorb the
        // batch window first so no report is stranded in memory.
        self.flush_pending(world);
        let mut coordinator = self.inner.borrow_mut();
        for instance in instances {
            if !coordinator.instances.contains_key(instance.as_str()) {
                return Err(EngineError::UnknownInstance(instance.clone()));
            }
        }
        let tx = coordinator
            .mgr
            .handoff_begin(instances, dest.index() as u32)?;
        let node = coordinator.node.index() as u32;
        instances
            .iter()
            .map(|instance| {
                package_instance(&coordinator.mgr, instance, tx, node)
                    .ok_or_else(|| EngineError::UnknownInstance(instance.clone()))
            })
            .collect()
    }

    /// Step 2 (destination): re-keys the packages under freshly
    /// allocated local instance ids and stages them as one prepared
    /// remote transaction — the durable yes-vote. The committed id
    /// sequence is read once and a contiguous range `base..base + N`
    /// allocated up front, so the slice costs a single prepare frame
    /// however many instances it carries. Nothing is visible until the
    /// source's decision arrives ([`Self::handoff_apply`] or a replayed
    /// verdict).
    ///
    /// Moves into one destination must run sequentially: the id
    /// allocation reads *committed* state, so a second prepare before
    /// the first resolves would draw the same ids.
    ///
    /// # Errors
    ///
    /// Lock conflict on a staged key, undecodable metadata, or storage
    /// failure persisting the vote. All packages must share one moving
    /// transaction.
    pub fn handoff_prepare(&self, packages: &[HandoffPackage]) -> Result<(), EngineError> {
        let Some(first) = packages.first() else {
            return Ok(());
        };
        let mut coordinator = self.inner.borrow_mut();
        // Allocate the destination's next id range and re-key each
        // package at its offset.
        let base: u32 = coordinator
            .mgr
            .read_committed(&instance_seq_uid())?
            .unwrap_or(0);
        let total: usize = packages.iter().map(HandoffPackage::len).sum();
        let mut writes: Vec<(StoreKey, Option<Vec<u8>>)> = Vec::with_capacity(total + 1);
        writes.push((
            StoreKey::Uid(instance_seq_uid()),
            Some(flowscript_codec::to_bytes(&(base + packages.len() as u32))),
        ));
        for (offset, package) in packages.iter().enumerate() {
            debug_assert_eq!(package.tx, first.tx, "batch spans one moving tx");
            let rekeyed = package.rekeyed(base + offset as u32)?;
            writes.extend(rekeyed.into_iter().map(|(key, bytes)| (key, Some(bytes))));
        }
        coordinator
            .mgr
            .prepare_remote(first.tx, first.src_node, writes)?;
        Ok(())
    }

    /// Step 3 (source): durably decides the move committed, atomically
    /// deletes each instance's keyspace and drops its volatile runtime
    /// (watchdogs disarmed, outstanding dispatch load released — the
    /// executor replies those dispatches still owe will arrive here
    /// and be relayed to the new owner by the ordinary misdirection
    /// path). The per-instance decision frames and keyspace purges run
    /// inside a WAL commit group, flushing as a single atomic frame: a
    /// crash can never leave half the slice committed and the other
    /// half presumed aborted — which matters, because the destination
    /// resolves its one staged transaction all-or-nothing.
    ///
    /// # Errors
    ///
    /// Storage failure. Each decision record precedes its delete, so a
    /// failure here leaves a committed move whose purge crash recovery
    /// finishes.
    pub fn handoff_commit(
        &self,
        world: &mut World,
        instances: &[String],
        tx: TxId,
        dest: NodeId,
    ) -> Result<(), EngineError> {
        self.inner.borrow_mut().mgr.begin_group();
        let mut result = Ok(());
        for instance in instances {
            result = self.handoff_commit_inner(world, instance, tx, dest);
            if result.is_err() {
                break;
            }
        }
        {
            let mut coordinator = self.inner.borrow_mut();
            if coordinator.mgr.end_group().is_err() && result.is_ok() {
                result = Err(EngineError::Tx("hand-off batch flush failed".to_string()));
            }
        }
        // Freed executor load and freed admission slots: parked
        // dispatches of other instances may now place, and queued
        // starts may now admit.
        self.pump(world);
        result
    }

    fn handoff_commit_inner(
        &self,
        world: &mut World,
        instance: &str,
        tx: TxId,
        dest: NodeId,
    ) -> Result<(), EngineError> {
        let watchdogs = {
            let mut coordinator = self.inner.borrow_mut();
            // The durable decision record: from here the move is
            // committed, crash or no crash.
            coordinator
                .mgr
                .handoff_end(tx, instance, dest.index() as u32, true)?;
            let purged = coordinator.purge_instance(instance)?;
            let was_running = purged.is_some_and(|meta| meta.status == InstanceStatus::Running);
            // Dual delivery: until the rebalance flips this node's map,
            // executor replies for the moved instance still land here —
            // the relay table routes them to the new owner.
            coordinator
                .membership
                .moved
                .insert(instance.to_string(), dest);
            let mut stale = Vec::new();
            if let Some(rt) = coordinator.instances.remove(instance) {
                stale.extend(rt.watchdogs.into_values());
                for dispatched in rt.dispatched_to.values() {
                    coordinator
                        .sched
                        .note_release(dispatched.node, dispatched.cost);
                }
            }
            // The moved instance's parked dispatches must never run
            // here — the new owner re-dispatches from its own committed
            // control blocks. Its admission slot frees up too.
            coordinator.unpark_instance(instance);
            if was_running {
                coordinator.admission.instance_settled();
            }
            coordinator.metrics.handoffs.inc();
            let epoch = coordinator.membership.epoch();
            coordinator.record_event(
                world.now().as_nanos(),
                instance,
                None,
                0,
                ObsEventKind::HandOff {
                    to: dest.index() as u32,
                    epoch,
                },
            );
            stale
        };
        for id in watchdogs {
            world.cancel(id);
        }
        Ok(())
    }

    /// Aborts a move whose destination could not prepare (step 3's
    /// other branch): durably records the abort so the intent is not
    /// replayed as in-doubt. The instance never stopped being served
    /// here.
    ///
    /// # Errors
    ///
    /// Storage failure persisting the abort record.
    pub fn handoff_abort(&self, instance: &str, tx: TxId, dest: NodeId) -> Result<(), EngineError> {
        let mut coordinator = self.inner.borrow_mut();
        coordinator
            .mgr
            .handoff_end(tx, instance, dest.index() as u32, false)?;
        Ok(())
    }

    /// Step 4 (destination): applies the source's decision to the
    /// prepared stage — commit makes the re-keyed keyspace visible and
    /// adopts the instance, abort discards the stage and releases its
    /// locks. Idempotent: resolving an unknown transaction is a no-op.
    ///
    /// # Errors
    ///
    /// Storage failure persisting the resolution.
    pub fn handoff_apply(
        &self,
        world: &mut World,
        tx: TxId,
        committed: bool,
    ) -> Result<(), EngineError> {
        self.inner.borrow_mut().mgr.resolve_remote(tx, committed)?;
        if committed {
            self.adopt_orphans(world, None);
        }
        Ok(())
    }

    /// Destination half of crash-driven adoption: commits a dead
    /// shard's packaged instance locally under a freshly allocated id.
    /// No 2PC — the source is dead and its storage fenced behind the
    /// claimant, so the claim is ONE local atomic commit. Idempotent:
    /// an instance already present (resident or committed) is skipped
    /// with `Ok(false)`, which is what lets a driver that crashed
    /// mid-claim simply run the whole adoption again.
    ///
    /// The caller adopts the landed orphans afterwards via
    /// `adopt_orphans` (one sweep per destination).
    ///
    /// # Errors
    ///
    /// Undecodable claimed metadata, or storage failure on the commit.
    pub fn claim_adopt(
        &self,
        world: &mut World,
        package: &HandoffPackage,
        epoch: u64,
    ) -> Result<bool, EngineError> {
        let mut coordinator = self.inner.borrow_mut();
        if coordinator.instances.contains_key(&package.instance)
            || coordinator.mgr.exists(&meta_uid(&package.instance))
        {
            return Ok(false);
        }
        let new_id: u32 = coordinator
            .mgr
            .read_committed(&instance_seq_uid())?
            .unwrap_or(0);
        let rekeyed = package.rekeyed(new_id)?;
        let action = coordinator.mgr.begin();
        coordinator
            .mgr
            .write(&action, &instance_seq_uid(), &(new_id + 1))?;
        for (key, bytes) in rekeyed {
            coordinator.mgr.write_key_raw(&action, &key, bytes)?;
        }
        coordinator.commit(action)?;
        coordinator.record_event(
            world.now().as_nanos(),
            &package.instance,
            None,
            0,
            ObsEventKind::Claim {
                from: package.src_node,
                epoch,
            },
        );
        Ok(true)
    }

    /// Adopts every instance whose committed state sits in this
    /// shard's store without a resident runtime — the landing half of
    /// a hand-off (and of a replayed verdict after a destination
    /// crash). Unlike crash recovery this bumps no attempts and
    /// re-dispatches nothing: the old owner relays in-flight executor
    /// replies, so the execution history stays byte-identical to an
    /// unmoved run. Watchdogs are re-armed as the safety net for a
    /// relay that never arrives.
    ///
    /// `claim` is `Some((dead shard, membership epoch))` for
    /// crash-driven adoption: the landing trace event is then
    /// [`ObsEventKind::Adopted`] and the `coord.adoptions` counter
    /// ticks once per instance.
    pub(crate) fn adopt_orphans(&self, world: &mut World, claim: Option<(u32, u64)>) {
        let adopted: Vec<(String, bool)> = {
            let mut coordinator = self.inner.borrow_mut();
            let mut adopted = Vec::new();
            // Residents are skipped by name, undecoded: a hand-off sweeps
            // once per chunk, and a sweep must cost only its orphans.
            let orphans: Vec<String> = stored_instance_names(&coordinator.mgr)
                .filter(|name| !coordinator.instances.contains_key(name))
                .collect();
            for name in orphans {
                let Some(meta) = coordinator.read_meta(&name) else {
                    continue;
                };
                let Some(rt) = coordinator.load_instance(&name, &meta) else {
                    continue;
                };
                coordinator.instances.insert(name.clone(), rt);
                if meta.status == InstanceStatus::Running {
                    // An adopted live instance occupies an admission
                    // slot on its new shard.
                    coordinator.admission.instance_live();
                }
                let kind = match claim {
                    Some((from, claim_epoch)) => {
                        coordinator.metrics.adoptions.inc();
                        ObsEventKind::Adopted {
                            from,
                            epoch: claim_epoch,
                        }
                    }
                    None => ObsEventKind::HandOff {
                        to: coordinator.node.index() as u32,
                        epoch: coordinator.membership.epoch(),
                    },
                };
                coordinator.record_event(world.now().as_nanos(), &name, None, 0, kind);
                adopted.push((name, meta.status == InstanceStatus::Running));
            }
            adopted
        };
        for (name, running) in adopted {
            self.arm_adopted_watchdogs(world, &name);
            if running {
                // Full re-evaluation: an adopted instance has no
                // commit to seed from. Executing tasks are not
                // re-dispatched — their transitions gate on the
                // control-block state.
                self.evaluate(world, &name);
            }
        }
    }

    /// Arms fresh watchdogs for every task an adopted instance has in
    /// the `Executing` state, marking them in flight. The normal case
    /// is the watchdog being disarmed by the old owner's relayed
    /// `TaskDone`; it fires only if the reply (or its relay) is truly
    /// lost, turning the move into an ordinary bounded retry.
    fn arm_adopted_watchdogs(&self, world: &mut World, instance: &str) {
        let executing: Vec<(String, u32, u32, SimDuration)> = {
            let coordinator = self.inner.borrow();
            let Some(rt) = coordinator.instances.get(instance) else {
                return;
            };
            let executing = coordinator.executing(instance);
            executing
                .into_iter()
                .map(|(id, cb)| {
                    let task = rt.plan.task(id);
                    let hints = ImplHints::from_map(&rt.plan.implementation_map(task));
                    // Same timeout math as a fresh dispatch — including
                    // the observed-duration extension for the
                    // (bindings-resolved) code, so a relay delayed past
                    // a lying short hint still lands before the adopted
                    // watchdog fires.
                    let script_code = rt.plan.code(task).unwrap_or("").to_string();
                    let code = rt
                        .bindings
                        .get(&script_code)
                        .cloned()
                        .unwrap_or(script_code);
                    let timeout = coordinator.costs.watchdog_timeout(
                        &code,
                        &hints,
                        coordinator.config.dispatch_timeout,
                    );
                    (cb.path, cb.incarnation, cb.attempt, timeout)
                })
                .collect()
        };
        for (path, incarnation, attempt, timeout) in executing {
            self.arm_watchdog(world, instance, &path, incarnation, attempt, timeout);
        }
    }

    /// A restarted destination asking what happened to an in-doubt
    /// move (source side). The decision record is durable before any
    /// destination learns of a commit, so an unknown transaction means
    /// abort — presumed abort.
    pub(super) fn on_handoff_query(&self, world: &mut World, from: NodeId, tx: TxId) {
        let (node, committed) = {
            let coordinator = self.inner.borrow();
            (
                coordinator.node,
                coordinator.mgr.coordinator_decision(tx).unwrap_or(false),
            )
        };
        world.send(
            node,
            from,
            flowscript_codec::to_bytes(&verdict(tx, committed)),
        );
    }

    /// The shard map's current epoch on this coordinator.
    pub fn shard_epoch(&self) -> u64 {
        self.inner.borrow().membership.epoch()
    }

    /// Replaces this coordinator's shard map — the final flip of a
    /// rebalance, after every moved instance committed. Requests for
    /// instances the new map assigns elsewhere forward from now on.
    pub fn set_shard_map(&self, map: ShardMap) {
        let mut coordinator = self.inner.borrow_mut();
        coordinator.membership.shard = map;
        // The new map is authoritative: relay tombstones from the
        // moves that led to this flip are now redundant.
        coordinator.membership.moved.clear();
    }

    /// [`Self::set_shard_map`] for a coordinator that stays behind as a
    /// pure relay (a drained shard retired from the map, or any node
    /// whose relay table may reference departed peers). Instead of
    /// clearing the relay table, every entry pointing at a node the new
    /// map no longer carries is re-pointed at the new map's owner — so
    /// a late executor report forwards straight to the adopter instead
    /// of bouncing off a dead address and burning `forward_loops` hops.
    pub fn set_shard_map_relay(&self, map: ShardMap) {
        let mut coordinator = self.inner.borrow_mut();
        let membership = &mut coordinator.membership;
        let moved = std::mem::take(&mut membership.moved);
        for (instance, dest) in moved {
            let dest = if map.nodes().contains(&dest) {
                dest
            } else {
                map.node_of(&instance)
            };
            membership.moved.insert(instance, dest);
        }
        membership.shard = map;
    }

    /// Records one committed move's instance-unavailability window in
    /// the `coord.handoff_pause_ns` histogram (measured wall-clock by
    /// the rebalance driver, on the source shard).
    pub fn note_handoff_pause(&self, ns: u64) {
        self.inner.borrow().metrics.handoff_pause_ns.record(ns);
    }

    /// Records one drain round's instance-unavailability window in the
    /// `coord.drain_pause_ns` histogram (measured wall-clock by the
    /// drain driver, on the departing shard — the whole batch is
    /// unavailable for the round, so the round IS the per-instance
    /// pause bound).
    pub fn note_drain_pause(&self, ns: u64) {
        self.inner.borrow().metrics.drain_pause_ns.record(ns);
    }

    /// Records a fleet-level trace event (drain begin/end) against
    /// this shard, labeled with the shard's node name rather than an
    /// instance.
    pub(crate) fn record_system_event(&self, now_ns: u64, label: &str, kind: ObsEventKind) {
        self.inner
            .borrow_mut()
            .record_event(now_ns, label, None, 0, kind);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use flowscript_tx::{ObjectUid, SharedStorage};

    use super::*;
    use crate::coordinator::EngineConfig;
    use crate::msg::MarkMsg;

    fn package(entries: Vec<(StoreKey, Vec<u8>)>) -> HandoffPackage {
        HandoffPackage {
            tx: TxId::new(0, 1),
            instance: "i".to_string(),
            src_node: 0,
            src_instance_id: 3,
            entries,
        }
    }

    #[test]
    fn rekeyed_moves_facts_and_meta_onto_the_new_id_and_nothing_else() {
        let meta = InstanceMeta {
            script: "s".into(),
            source: "class C;".into(),
            root: "root".into(),
            set: "main".into(),
            inputs: BTreeMap::new(),
            status: InstanceStatus::Running,
            reconfig_count: 1,
            instance_id: 3,
            version: None,
            plan_fingerprint: 9,
        };
        let meta_key = StoreKey::Uid(meta_uid("i"));
        // A control block that merely ends in `/meta`, and the shared plan.
        let cb = (
            StoreKey::Uid(ObjectUid::new("inst/i/cb/root/meta")),
            vec![1],
        );
        let plan = (StoreKey::Uid(plan_uid(9)), vec![2]);
        let fact = FactKey::output(3, 2, 1);
        let rekeyed = package(vec![
            (meta_key.clone(), flowscript_codec::to_bytes(&meta)),
            cb.clone(),
            plan.clone(),
            (StoreKey::Fact(fact), vec![3]),
        ])
        .rekeyed(7)
        .expect("a decodable meta re-keys");
        let moved_meta = InstanceMeta {
            instance_id: 7,
            ..meta
        };
        let moved_fact = FactKey {
            instance: 7,
            ..fact
        };
        assert_eq!(
            rekeyed,
            [
                (meta_key.clone(), flowscript_codec::to_bytes(&moved_meta)),
                cb,
                plan,
                (StoreKey::Fact(moved_fact), vec![3]),
            ]
        );
        // A corrupt meta is a typed error, never a panic.
        let corrupt = package(vec![(meta_key, vec![0xFF; 3])]);
        assert!(matches!(corrupt.rekeyed(7), Err(EngineError::Tx(_))));
    }

    #[test]
    fn at_the_hop_cap_neither_forwarder_sends_and_each_counts_one_loop() {
        let mut world = World::new(1);
        let [client, here, owner] = ["client", "here", "owner"].map(|name| world.add_node(name));
        let map = ShardMap::new(vec![here, owner]);
        let instance = (0..)
            .map(|i| format!("x{i}"))
            .find(|name| map.node_of(name) == owner)
            .expect("some name the map gives the other shard");
        let storage = SharedStorage::new();
        let config = EngineConfig::default();
        let coord = Coordinator::open_sharded(here, client, Vec::new(), config, storage, map)
            .map(CoordHandle::new)
            .expect("empty storage opens");
        coord.install(&mut world);
        let reached_owner = Rc::new(Cell::new(0));
        let seen = reached_owner.clone();
        world.set_handler(owner, move |_, _| seen.set(seen.get() + 1));
        // Both arrive having burned every hop already.
        let capped = |inner: EngineMsg| {
            flowscript_codec::to_bytes(&EngineMsg::Forwarded {
                epoch: 0,
                hops: MAX_FORWARD_HOPS,
                inner: flowscript_codec::to_bytes(&inner),
            })
        };
        let mark = EngineMsg::Mark(MarkMsg {
            instance: instance.clone(),
            path: "t".into(),
            incarnation: 0,
            attempt: 0,
            mark: "m".into(),
            objects: BTreeMap::new(),
            epoch: 0,
        });
        let start = EngineMsg::StartInstance {
            instance,
            script: "s".into(),
            version: None,
            set: "main".into(),
            inputs: BTreeMap::new(),
            epoch: 0,
        };
        // One-way: dropped.
        world.send(client, here, capped(mark));
        world.run();
        assert_eq!(coord.stats().forward_loops, 1);
        // RPC: the caller hears why instead of hanging.
        let reply = Rc::new(RefCell::new(None));
        let slot = reply.clone();
        let timeout = SimDuration::from_secs(1);
        world.rpc_call(client, here, capped(start), timeout, move |_, result| {
            *slot.borrow_mut() = result.ok();
        });
        world.run();
        let reply = reply.borrow_mut().take().expect("a reply, not a timeout");
        assert!(matches!(
            flowscript_codec::from_bytes::<EngineMsg>(&reply),
            Ok(EngineMsg::Ack { result: Err(_) })
        ));
        let stats = coord.stats();
        assert_eq!((stats.forward_loops, stats.forwarded), (2, 0));
        assert_eq!(reached_owner.get(), 0, "nothing may be relayed at the cap");
    }
}
