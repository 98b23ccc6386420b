//! Shard membership: who owns an instance, relaying what lands on the
//! wrong shard, and the two ways instances change shards. Both are run
//! by the nodes themselves, over [`EngineMsg`]s: the façade
//! ([`crate::WorkflowSystem`]) hands ONE node the trigger
//! ([`CoordHandle::begin_move`], [`CoordHandle::begin_adoption`]),
//! steps the world until that node's report is ready, then pushes the
//! map flip.
//!
//! **Live hand-off** (rebalance, planned drain) is one protocol: the
//! presumed-abort two-phase commit of [`flowscript_tx::dist`], hosted
//! in [`Membership`]. The source shard is the 2PC coordinator, the
//! destination its one participant, and the commit/abort decision is
//! taken nowhere else. A rebalance moves rounds of one instance, a
//! drain rounds of up to [`DRAIN_BATCH`]; per round:
//!
//! 1. *source*: flush the commit window, package the slice, commit its
//!    *move record* — `sys/move/<tx>` → [`MoveRecord`], one ordinary
//!    atomic action under a freshly minted transaction id — **freeze**
//!    the slice, send `Prepare` (the entries as the source keyed them);
//! 2. *destination*: re-key under a fresh contiguous id range,
//!    `prepare_remote` — the durable vote — and send `Vote`;
//! 3. *source*: all yes → `PersistDecision`: one atomic action stages
//!    the substrate's own *decision* record
//!    (`TxManager::stage_decision`) and the keyspace purge, and commits
//!    them as one frame, durable before any `Decision` leaves — a
//!    refused frame takes neither, and the round is abandoned
//!    undecided; a no, or no vote within [`RETRANSMIT_INTERVAL`] →
//!    abort, presumed, not logged, and the slice thaws where it was.
//!    Either way send `Decision`, again every interval until
//!    acknowledged;
//! 4. *destination*: `resolve_remote`, adopt on commit, send `Ack`;
//! 5. *source*: `Done` — record the pause, relay what was held (an
//!    aborted round deletes its move record here), start the next
//!    round.
//!
//! **The freeze rule.** From collect until the destination's ack (or
//! the abort decision) the slice belongs to neither shard's evaluator:
//! its runtimes are dropped at collect (watchdogs disarmed, executor
//! load and admission slots released — none of its timers can commit),
//! and every `Done`/`Mark` that arrives for it is held with the round —
//! relayed to the destination after the ack, re-enqueued here after an
//! abort, never applied to a packaged instance and never dropped. An
//! aborted slice re-materialises through the same
//! [`CoordHandle::adopt_orphans`] a destination lands a commit on.
//!
//! Crash repair ([`Coordinator::repair_handoffs`]) speaks the same
//! messages: a restarted source announces every stored move record as
//! `Decision` — commit where the decision record says so, abort
//! (presumed) for every other, whose record it deletes — and a
//! restarted destination chases each in-doubt stage with
//! `QueryOutcome`.
//!
//! **Crash-driven adoption.** The claimant fences the dead shard's
//! storage, packages every instance in it and sends each new owner its
//! share as [`EngineMsg::Claim`] RPCs, again every
//! [`RETRANSMIT_INTERVAL`] until acknowledged. No 2PC — the source is
//! dead and the fence already decided; a claim is one local atomic
//! commit, and an instance already present is skipped, so a re-run is
//! idempotent.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use flowscript_obs::ObsEventKind;
use flowscript_sim::{EventId, NodeId, ReplyToken, RpcError, SimDuration, World};
use flowscript_tx::dist::{self, AfterImages, CoordAction, DistMsg};
use flowscript_tx::{AtomicAction, FactKey, StableStore, StoreKey, TxId, TxManager};

use super::window::PendingEvent;
use super::{
    stored_instance_names, CoordHandle, Coordinator, InstanceHeader, InstanceStatus, StatusRecord,
};
use crate::error::EngineError;
use crate::keys::{self, instance_seq_uid, meta_uid, move_uid, plan_uid, source_uid, status_uid};
use crate::msg::EngineMsg;
use crate::shard::ShardMap;

/// Maximum relays a misdirected message may take before the relay
/// drops it as a routing loop (see [`super::CoordStats::forward_loops`]).
/// One hop resolves any transient single-rebalance disagreement; four
/// leaves slack for stacked membership changes.
pub const MAX_FORWARD_HOPS: u32 = 4;

/// How many instances one drain round moves under a single 2PC (and
/// one adoption claim carries): the slice is frozen for the whole
/// round, so its size bounds the per-instance pause while still
/// amortizing prepare/decision traffic across many instances.
pub(crate) const DRAIN_BATCH: usize = 64;

/// How long a node lets a fleet message go unanswered before acting on
/// the silence: a vote still missing aborts its round, an unacked
/// decision or claim is sent again. Comfortably above a round trip on
/// any link the simulator models, far below a dispatch watchdog.
const RETRANSMIT_INTERVAL: SimDuration = SimDuration::from_millis(5);

/// How long the façade waits on a node without seeing it complete a
/// round or a claim before it gives the call up (the operator's RPC
/// timeout): many retransmit intervals, so a lossy link is ridden out
/// and only a dead or cut-off peer runs into it.
pub(crate) const FLEET_DEADLINE: SimDuration = SimDuration::from_millis(100);

/// What one live move did — a rebalance
/// ([`crate::WorkflowSystem::rebalance`],
/// [`crate::WorkflowSystem::add_coordinator`]) or a planned drain
/// ([`crate::WorkflowSystem::remove_coordinator`]), which is a
/// rebalance with a bigger round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MoveReport {
    /// Instances handed off.
    pub moved: usize,
    /// 2PC rounds that took: `moved` for a rebalance, far fewer for a
    /// drain, where up to 64 instances share one.
    pub rounds: usize,
    /// Virtual nanoseconds each round's instances were unavailable
    /// (collect → the destination's ack), in round order. Also in the
    /// source shards' `coord.handoff_pause_ns` histogram. Exact per
    /// seed: the simulator's clock is the only one the engine reads.
    pub pause_ns: Vec<u64>,
    /// The membership epoch of the map the move converged on.
    pub epoch: u64,
}

impl MoveReport {
    /// The longest single round — the worst per-instance pause, in
    /// virtual nanoseconds.
    pub fn max_pause_ns(&self) -> u64 {
        self.pause_ns.iter().copied().max().unwrap_or(0)
    }

    /// Folds another source's report into this one.
    pub(crate) fn absorb(&mut self, other: MoveReport) {
        self.moved += other.moved;
        self.rounds += other.rounds;
        self.pause_ns.extend(other.pause_ns);
    }
}

/// What one crash-driven failover
/// ([`crate::WorkflowSystem::adopt_dead_shard`]) did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailoverReport {
    /// Instances found in the dead shard's storage, every one now
    /// committed on a survivor (counted whether this run or an earlier,
    /// interrupted one landed it).
    pub adopted: usize,
    /// The membership epoch stamped into the fence and the new map.
    pub epoch: u64,
    /// Node index of the surviving shard that wrote the fence.
    pub claimant: u32,
}

/// `sys/move/<tx>` — what hand-off round `tx` moves and where to:
/// written before its `Prepare` leaves, kept by a committed round until
/// the map flip, deleted by an aborted one. Whether the round committed
/// is not in here: that is the transaction substrate's decision record.
#[derive(Debug, PartialEq, Eq)]
struct MoveRecord {
    /// Destination shard (coordinator node index).
    dest: u32,
    /// The moving instances' names.
    instances: Vec<String>,
}

impl Encode for MoveRecord {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.dest);
        self.instances.encode(w);
    }
}

impl Decode for MoveRecord {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(MoveRecord {
            dest: r.get_u32()?,
            instances: Vec::decode(r)?,
        })
    }
}

/// One hand-off round this node coordinates: a slice of its residents
/// bound for one destination under one distributed transaction.
struct Round {
    dest: NodeId,
    instances: Vec<String>,
    /// Virtual time of the collect — the pause runs from here.
    started_ns: u64,
    /// Whether the slice is still frozen (see the module docs). Cleared
    /// by an abort decision; a committed round stays frozen until its
    /// ack removes it.
    frozen: bool,
    /// Reports that arrived for the frozen slice, with their hop counts.
    held: Vec<(PendingEvent, u32)>,
    /// The pending [`RETRANSMIT_INTERVAL`] timer.
    timer: EventId,
}

/// The façade's end of a fleet operation it handed a node — the reply
/// channel of the operator's RPC; shared memory here, because the
/// operator trigger is not a wire message.
#[derive(Default)]
pub(crate) struct Ticket<T> {
    /// The node's report, once it has one.
    pub(crate) outcome: Option<Result<T, EngineError>>,
    /// Rounds or claims acknowledged so far: the sign of life the
    /// façade's deadline restarts on.
    pub(crate) progress: u64,
    /// Set by the façade when it gives the call up. The node then stops
    /// re-sending for this operation, so no fleet timer outlives the
    /// call that started it by more than a tick; rounds already decided
    /// but unacknowledged stay on the books for the next job, a recovery
    /// re-announcement or the destination's own query to finish.
    pub(crate) cancelled: bool,
}

pub(crate) type TicketRef<T> = Rc<RefCell<Ticket<T>>>;

/// The move the façade handed this node: the rounds still to run, the
/// one in flight and the tally so far.
struct MoveJob {
    queue: VecDeque<(NodeId, Vec<String>)>,
    current: Option<TxId>,
    report: MoveReport,
    ticket: TicketRef<MoveReport>,
}

/// The adoption a claimant runs: what each claim RPC's continuation —
/// the only thing that advances it — needs to count itself off.
struct Adoption {
    claims: u64,
    report: FailoverReport,
    ticket: TicketRef<FailoverReport>,
}

/// Who owns what, as this coordinator sees it — and the fleet
/// protocols it is currently running.
pub(super) struct Membership {
    /// Instance ownership across all coordinator nodes of the system
    /// (shared verbatim by every shard; requests for instances this
    /// node does not own are forwarded to the owner).
    shard: ShardMap,
    /// Where instances this node handed off went — the dual-delivery
    /// relay table for the window between a move's ack and the
    /// rebalance's final map flip, when this node's `shard` map still
    /// claims ownership. Volatile, but rebuilt on recovery from the
    /// stored move records of committed rounds; cleared, with them, by
    /// the flip ([`CoordHandle::set_shard_map`]), after which the map
    /// itself routes to the new owner.
    moved: BTreeMap<String, NodeId>,
    /// The 2PC coordinator of every round this node sources.
    dist: dist::Coordinator,
    /// Rounds begun and not yet acknowledged, by moving transaction:
    /// the running job's current one, plus any a cancelled job left
    /// undelivered (the next job settles those first).
    rounds: BTreeMap<TxId, Round>,
    job: Option<MoveJob>,
}

impl Membership {
    pub(super) fn new(node: NodeId, shard: ShardMap) -> Self {
        Self {
            shard,
            moved: BTreeMap::new(),
            dist: dist::Coordinator::new(node.index() as u32),
            rounds: BTreeMap::new(),
            job: None,
        }
    }

    /// The shard map's current epoch (stamped on dispatches and on the
    /// membership trace events).
    pub(super) fn epoch(&self) -> u64 {
        self.shard.epoch()
    }

    /// The protocols died with the process: rounds in flight are
    /// repaired from the log ([`Coordinator::repair_handoffs`]), an
    /// interrupted job or adoption is the operator's to run again.
    pub(super) fn reset_protocols(&mut self) {
        self.dist = dist::Coordinator::new(self.dist.node());
        self.rounds.clear();
        self.job = None;
    }

    /// A fenced zombie relays nothing: its relay table dies with its
    /// claim on the storage.
    pub(super) fn forget_moves(&mut self) {
        self.moved.clear();
    }

    /// The job the façade is still waiting on, if there is one: a
    /// cancelled job is dropped on sight.
    fn live_job(&mut self) -> Option<&mut MoveJob> {
        self.job.take_if(|job| job.ticket.borrow().cancelled);
        self.job.as_mut()
    }

    /// The round that holds `instance` frozen, if one does.
    fn freezing(&self, instance: &str) -> Option<TxId> {
        let holds = |round: &Round| round.frozen && round.instances.iter().any(|n| n == instance);
        let (tx, _) = self.rounds.iter().find(|(_, round)| holds(round))?;
        Some(*tx)
    }
}

/// Packages `instance`'s entire committed keyspace out of `mgr` — the
/// collect half shared by planned hand-offs (the source's own store)
/// and crash-driven adoption (a dead shard's reopened storage).
/// Everything derives from the committed header and status record: the
/// instance's uid prefix, the two blobs it pins — the plan under the
/// record's fingerprint, the canonical source under the header's hash —
/// and the dense range of the header's instance id, every task's facts
/// and control block in one contiguous range scan. The header comes FIRST: it is the entry that tells
/// [`rekeyed`] a new instance's run begins, what it is called and which
/// dense id its fact keys carry. Returns `None` for a missing or
/// undecodable header or status record.
pub(super) fn package_instance(
    mgr: &TxManager<StableStore>,
    instance: &str,
) -> Option<AfterImages> {
    let header_key = meta_uid(instance);
    let header: InstanceHeader = mgr.read_committed_key(&header_key).ok()??;
    let record: StatusRecord = mgr.read_committed_key(&status_uid(instance)).ok()??;
    let uids = mgr.uids_with_prefix(&keys::instance_prefix(instance));
    let facts = mgr.fact_keys_in_range(
        FactKey::instance_first(header.instance_id),
        FactKey::instance_last(header.instance_id),
    );
    let keys = std::iter::once(header_key.clone())
        .chain(
            uids.into_iter()
                .map(StoreKey::Uid)
                .filter(|key| *key != header_key),
        )
        .chain([
            plan_uid(record.plan_fingerprint),
            source_uid(header.source_hash),
        ])
        .chain(facts.into_iter().map(StoreKey::Fact));
    let images = keys.filter_map(|key| {
        let bytes = mgr.read_committed_bytes(&key)?.to_vec();
        Some((key, Some(bytes)))
    });
    Some(images.collect())
}

/// Packaged entries ([`package_instance`] runs, back to back) as the
/// receiving shard stores them: each instance, in order of appearance,
/// takes the next dense id from `base` — every dense key, fact or
/// control block, re-keyed onto it (the dense id is shard-local; the
/// instance keeps its name), the
/// header's `instance_id` rewritten to match, everything else verbatim.
/// An instance `skip` names is left out whole. Returns the instances
/// kept, in id order, beside their entries.
///
/// # Errors
///
/// Entries that do not parse as such runs: a fact key outside its
/// run's id, a run that does not open with a decodable header.
fn rekeyed(
    images: AfterImages,
    base: u32,
    skip: impl Fn(&str) -> bool,
) -> Result<(Vec<String>, AfterImages), EngineError> {
    let malformed = |what: &str| EngineError::Tx(format!("hand-off package malformed: {what}"));
    let mut names: Vec<String> = Vec::new();
    let mut out = AfterImages::with_capacity(images.len());
    // The open run: its uid prefix, the dense id its fact keys carry,
    // and the id they move onto (`None`: the instance is skipped).
    let mut run: Option<(String, u32, Option<u32>)> = None;
    for (key, bytes) in images {
        let uid = match &key {
            StoreKey::Fact(fact) => {
                let Some((_, src_id, new_id)) = &run else {
                    return Err(malformed("a fact before any header"));
                };
                if fact.instance != *src_id {
                    return Err(malformed("a fact outside its instance's id"));
                }
                if let Some(instance) = *new_id {
                    out.push((StoreKey::Fact(FactKey { instance, ..*fact }), bytes));
                }
                continue;
            }
            StoreKey::Uid(uid) => uid.as_str(),
        };
        let in_run = run
            .as_ref()
            .is_some_and(|(prefix, ..)| uid.starts_with(prefix));
        if !in_run && uid.starts_with(keys::INSTANCE_ROOT) {
            let name = keys::header_instance(uid)
                .ok_or_else(|| malformed("a run that does not open with its header"))?;
            let mut header: InstanceHeader = bytes
                .as_deref()
                .and_then(|bytes| flowscript_codec::from_bytes(bytes).ok())
                .ok_or_else(|| malformed("a header that does not decode"))?;
            let new_id = (!skip(&name)).then(|| base + names.len() as u32);
            run = Some((keys::instance_prefix(&name), header.instance_id, new_id));
            if let Some(new_id) = new_id {
                names.push(name);
                header.instance_id = new_id;
                out.push((key, Some(flowscript_codec::to_bytes(&header))));
            }
        } else if matches!(run, Some((.., Some(_)))) {
            // One of the run's own objects, or a blob it pins.
            out.push((key, bytes));
        }
    }
    Ok((names, out))
}

/// Stages into `action` the deletion of every committed object of
/// `instance`: its whole uid prefix plus the dense range — facts and
/// control blocks — of the header's instance id. The storage half of
/// the source side of a committed hand-off (the shared plan and source
/// blobs stay; blob GC collects them once no local instance pins them).
fn purge_instance(
    mgr: &mut TxManager<StableStore>,
    action: &AtomicAction,
    instance: &str,
) -> Result<(), EngineError> {
    let header: Option<InstanceHeader> = mgr.read_committed_key(&meta_uid(instance))?;
    for uid in mgr.uids_with_prefix(&keys::instance_prefix(instance)) {
        mgr.delete_key(action, &StoreKey::Uid(uid))?;
    }
    if let Some(header) = &header {
        let lo = FactKey::instance_first(header.instance_id);
        let hi = FactKey::instance_last(header.instance_id);
        for key in mgr.fact_keys_in_range(lo, hi) {
            mgr.delete_key(action, &StoreKey::Fact(key))?;
        }
    }
    Ok(())
}

impl Coordinator {
    /// Drops `instance`'s volatile runtime — the freeze: outstanding
    /// dispatch load and the admission slot are released, parked
    /// dispatches forgotten (whoever owns the instance next re-arms
    /// from its committed control blocks). Returns the watchdogs to
    /// cancel.
    fn drop_runtime(&mut self, instance: &str) -> Vec<EventId> {
        let Some(rt) = self.instances.remove(instance) else {
            return Vec::new();
        };
        if !rt.terminal {
            self.admission.instance_settled();
        }
        self.dispatcher.release_all(instance, rt.flights)
    }

    /// Deletes move records — one aborted round's, or every round's at
    /// the map flip — in one atomic action.
    fn drop_move_records(&mut self, records: &[StoreKey]) -> Result<(), EngineError> {
        if records.is_empty() {
            return Ok(());
        }
        self.atomically(|mgr, action| {
            for key in records {
                mgr.delete_key(action, key)?;
            }
            Ok(())
        })
    }

    /// Hand-off crash repair, run by recovery before any instance
    /// loads: one scan of the stored move records. A round whose commit
    /// decision is on record purged its slice in that decision's frame
    /// — the destination owns the instances, so their relay entries are
    /// rebuilt (executor replies may still arrive here). Any other
    /// round never decided, or aborted: presumed aborted, its record
    /// deleted; its slice is in the store, untouched, and loads with
    /// everything else.
    ///
    /// Returns the 2PC termination traffic to send once the instances
    /// are back: every stored round's verdict is announced — the
    /// destination may have crashed before hearing it the first time;
    /// resolution is idempotent, so duplicates are harmless — and every
    /// stage this node prepared but never heard a decision for is
    /// chased with a query to its coordinator.
    pub(super) fn repair_handoffs(&mut self) -> Vec<(NodeId, DistMsg)> {
        let mut traffic = Vec::new();
        let mut aborted = Vec::new();
        for uid in self.mgr.uids_with_prefix(keys::MOVE_PREFIX) {
            let tx = keys::move_tx(&uid);
            let key = StoreKey::Uid(uid);
            let (Some(tx), Ok(Some(record))) =
                (tx, self.mgr.read_committed_key::<MoveRecord>(&key))
            else {
                continue;
            };
            let dest = NodeId::from_index(record.dest as usize);
            let commit = self.mgr.coordinator_decision(tx) == Some(true);
            if commit {
                for instance in record.instances {
                    self.membership.moved.insert(instance, dest);
                }
            } else {
                aborted.push(key);
            }
            traffic.push((dest, DistMsg::Decision { tx, commit }));
        }
        let _ = self.drop_move_records(&aborted);
        let from = self.node.index() as u32;
        for (tx, coordinator_node) in self.mgr.in_doubt() {
            let query = DistMsg::QueryOutcome { tx, from };
            traffic.push((NodeId::from_index(coordinator_node as usize), query));
        }
        traffic
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

    /// Routes one executor report: held with its round while the
    /// instance is frozen, relayed when another shard owns it, buffered
    /// into the commit window when it is ours.
    pub(super) fn route_report(&self, world: &mut World, report: PendingEvent, hops: u32) {
        {
            let mut coordinator = self.inner.borrow_mut();
            let membership = &mut coordinator.membership;
            let frozen_in = membership.freezing(report.address().0);
            if let Some(round) = frozen_in.and_then(|tx| membership.rounds.get_mut(&tx)) {
                round.held.push((report, hops));
                return;
            }
        }
        match self.misdirected(report.address().0) {
            Some(owner) => {
                let instance = report.address().0.to_string();
                self.forward_oneway(world, owner, &instance, report.into(), hops);
            }
            None => self.enqueue_event(world, report),
        }
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
    fn forward_oneway(
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

    fn send_dist(&self, world: &mut World, to: NodeId, msg: DistMsg) {
        let bytes = flowscript_codec::to_bytes(&EngineMsg::Dist(msg));
        world.send(self.node(), to, bytes);
    }

    /// Fails if this node is down: a trigger handed to a crashed
    /// process reaches nobody.
    fn ensure_up(&self, world: &World) -> Result<NodeId, EngineError> {
        let node = self.node();
        if world.is_up(node) {
            Ok(node)
        } else {
            Err(EngineError::Tx(format!("coordinator {node} is down")))
        }
    }

    // -----------------------------------------------------------------
    // Live hand-off, source side: the 2PC coordinator's host.
    // -----------------------------------------------------------------

    /// The façade's trigger for a rebalance or drain: moves every
    /// instance resident here that `map` assigns elsewhere — decided
    /// against residency, not the old map, since a crash-recovered
    /// shard may hold instances the old map would misattribute — in
    /// rounds of up to `limit` per destination, one round at a time.
    /// The returned ticket's report is ready once the last round is
    /// acknowledged, or as soon as one aborts. Rounds an
    /// earlier, cancelled job left undelivered are settled first: their
    /// decisions go out again now, and the first new round waits for
    /// their acks (the destination's staged locks would veto it).
    ///
    /// # Errors
    ///
    /// This node is down.
    pub(crate) fn begin_move(
        &self,
        world: &mut World,
        map: &ShardMap,
        limit: usize,
    ) -> Result<TicketRef<MoveReport>, EngineError> {
        let node = self.ensure_up(world)?;
        let ticket = TicketRef::default();
        let unsettled: Vec<TxId> = {
            let mut coordinator = self.inner.borrow_mut();
            let mut by_dest: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
            for instance in coordinator.instances.keys() {
                let owner = map.node_of(instance);
                if owner != node {
                    by_dest.entry(owner).or_default().push(instance.clone());
                }
            }
            let queue = by_dest
                .iter()
                .flat_map(|(&dest, names)| names.chunks(limit).map(move |c| (dest, c.to_vec())))
                .collect();
            let report = MoveReport {
                epoch: map.epoch(),
                ..MoveReport::default()
            };
            let membership = &mut coordinator.membership;
            membership.job = Some(MoveJob {
                queue,
                current: None,
                report,
                ticket: ticket.clone(),
            });
            membership.rounds.keys().copied().collect()
        };
        for tx in unsettled {
            self.on_round_timer(world, tx);
        }
        self.advance(world);
        Ok(ticket)
    }

    /// Ends the running job with `outcome` for the façade to collect.
    fn finish_job(&self, outcome: Result<(), EngineError>) {
        if let Some(job) = self.inner.borrow_mut().membership.job.take() {
            job.ticket.borrow_mut().outcome = Some(outcome.map(|()| job.report));
        }
    }

    /// Starts the job's next round once nothing is in flight, or
    /// finishes the job when none is left.
    fn advance(&self, world: &mut World) {
        let next = {
            let mut coordinator = self.inner.borrow_mut();
            let membership = &mut coordinator.membership;
            let idle = membership.rounds.is_empty();
            match membership.live_job() {
                Some(job) if idle => job.queue.pop_front(),
                _ => return,
            }
        };
        let outcome = match next {
            Some((dest, instances)) => match self.start_round(world, dest, instances) {
                Ok(()) => return,
                Err(err) => Err(err),
            },
            None => Ok(()),
        };
        self.finish_job(outcome);
    }

    /// Collect: flushes the commit window (the packages must be the
    /// whole committed truth — no report may be stranded in memory),
    /// packages the slice, commits its move record under a freshly
    /// minted transaction id, freezes it and sends the `Prepare`.
    fn start_round(
        &self,
        world: &mut World,
        dest: NodeId,
        instances: Vec<String>,
    ) -> Result<(), EngineError> {
        self.flush_pending(world);
        let (tx, actions, watchdogs) = {
            let mut coordinator = self.inner.borrow_mut();
            let coordinator = &mut *coordinator;
            let mut images = AfterImages::new();
            for instance in &instances {
                let package = package_instance(&coordinator.mgr, instance)
                    .filter(|_| coordinator.instances.contains_key(instance.as_str()))
                    .ok_or_else(|| EngineError::UnknownInstance(instance.clone()))?;
                images.extend(package);
            }
            let dest = dest.index() as u32;
            let tx = coordinator.mgr.mint_dist_tx();
            let record = MoveRecord {
                dest,
                instances: instances.clone(),
            };
            coordinator.commit_object(&move_uid(tx), &record)?;
            let watchdogs: Vec<EventId> = instances
                .iter()
                .flat_map(|instance| coordinator.drop_runtime(instance))
                .collect();
            let actions = coordinator.membership.dist.begin(tx, vec![(dest, images)]);
            (tx, actions, watchdogs)
        };
        for id in watchdogs {
            world.cancel(id);
        }
        let round = Round {
            dest,
            instances,
            started_ns: world.now().as_nanos(),
            frozen: true,
            held: Vec::new(),
            timer: self.arm_round_timer(world, tx),
        };
        {
            let mut coordinator = self.inner.borrow_mut();
            let membership = &mut coordinator.membership;
            membership.rounds.insert(tx, round);
            if let Some(job) = &mut membership.job {
                job.current = Some(tx);
            }
        }
        self.perform(world, actions);
        // Freed executor load and freed admission slots: parked
        // dispatches of other instances may now place, and queued
        // starts may now admit.
        self.pump(world);
        Ok(())
    }

    fn arm_round_timer(&self, world: &mut World, tx: TxId) -> EventId {
        let handle = self.clone();
        world.schedule_node_after(self.node(), RETRANSMIT_INTERVAL, move |world| {
            handle.on_round_timer(world, tx);
        })
    }

    /// Round `tx` has waited an interval: `dist` aborts it if the vote
    /// is still missing, sends the decision again if the ack is.
    fn on_round_timer(&self, world: &mut World, tx: TxId) {
        let actions = {
            let mut coordinator = self.inner.borrow_mut();
            // Same muzzle as the window timer: a fenced zombie acts on
            // nothing.
            if coordinator.mgr.probe_fence().is_some() {
                return;
            }
            // Nobody waiting: the round rests until the next job.
            if coordinator.membership.live_job().is_none() {
                return;
            }
            let Some(stale) = coordinator.membership.rounds.get(&tx).map(|r| r.timer) else {
                return;
            };
            world.cancel(stale);
            coordinator.membership.dist.on_timeout(tx)
        };
        let timer = self.arm_round_timer(world, tx);
        if let Some(round) = self.inner.borrow_mut().membership.rounds.get_mut(&tx) {
            round.timer = timer;
        }
        self.perform(world, actions);
    }

    /// Carries out what `dist` decided, in order — the ONE place its
    /// actions meet the log and the network.
    fn perform(&self, world: &mut World, actions: Vec<CoordAction>) {
        for action in actions {
            match action {
                CoordAction::Send { to, msg } => {
                    // Aborts are presumed, not persisted, so `dist`
                    // announces one only through its first `Decision`.
                    if let DistMsg::Decision { tx, commit: false } = msg {
                        self.abort_round(world, tx);
                    }
                    self.send_dist(world, NodeId::from_index(to as usize), msg);
                }
                CoordAction::PersistDecision { tx, .. } => {
                    if let Err(err) = self.commit_round(world, tx) {
                        // Not durable, so it was never taken: it must
                        // not be announced, nor answer a query. The
                        // round is abandoned frozen (a restart presumes
                        // it aborted) and the job reports why.
                        let round = {
                            let membership = &mut self.inner.borrow_mut().membership;
                            membership.dist.abandon(tx);
                            membership.rounds.remove(&tx)
                        };
                        if let Some(round) = round {
                            world.cancel(round.timer);
                        }
                        self.finish_job(Err(err));
                        return;
                    }
                }
                CoordAction::Done { tx, committed } => self.finish_round(world, tx, committed),
            }
        }
    }

    /// The commit decision, made durable: one atomic action stages the
    /// substrate's decision record — from here the move is committed,
    /// crash or no crash, and it is what `TxManager::coordinator_decision`
    /// answers a `QueryOutcome` from — and the whole slice's keyspace
    /// purge, and commits them as one frame. A crash can never leave the
    /// round decided and part of its slice still here — which matters,
    /// because the destination resolves its one staged transaction
    /// all-or-nothing — and a log that refuses the frame leaves neither
    /// the decision nor the purge behind, in memory or on disk.
    fn commit_round(&self, world: &World, tx: TxId) -> Result<(), EngineError> {
        let mut coordinator = self.inner.borrow_mut();
        let coordinator = &mut *coordinator;
        let Some(round) = coordinator.membership.rounds.get(&tx) else {
            return Err(EngineError::Tx(format!("no round for {tx}")));
        };
        let (dest, instances) = (round.dest.index() as u32, round.instances.clone());
        let epoch = coordinator.membership.epoch();
        coordinator.atomically(|mgr, action| {
            mgr.stage_decision(action, tx)?;
            let purge = |instance: &String| purge_instance(mgr, action, instance);
            instances.iter().try_for_each(purge)
        })?;
        for instance in &instances {
            coordinator.metrics.handoffs.inc();
            let kind = ObsEventKind::HandOff { to: dest, epoch };
            coordinator.record_event(world.now().as_nanos(), instance, None, 0, kind);
        }
        Ok(())
    }

    /// The abort decision (a no-vote, or none in time): nothing to log —
    /// no decision record is the abort — so the slice just thaws where
    /// it is: runtimes re-materialised from the untouched committed
    /// state, held reports re-enqueued in arrival order. The move
    /// record goes with the destination's ack (or a restart's presumed
    /// abort). Runs once per round; a re-sent abort finds it thawed.
    fn abort_round(&self, world: &mut World, tx: TxId) {
        let held = {
            let mut coordinator = self.inner.borrow_mut();
            let Some(round) = coordinator.membership.rounds.get_mut(&tx) else {
                return;
            };
            if !std::mem::take(&mut round.frozen) {
                return;
            }
            std::mem::take(&mut round.held)
        };
        self.adopt_orphans(world, None);
        for (report, _) in held {
            self.enqueue_event(world, report);
        }
    }

    /// `Done`: the destination acknowledged the decision. A committed
    /// round records its pause, opens the relay for its instances and
    /// forwards what was held; an aborted one deletes its move record —
    /// nobody is left to tell. Either way the job moves on — to the
    /// next round, or to its report if this round aborted.
    fn finish_round(&self, world: &mut World, tx: TxId, committed: bool) {
        let (round, ours) = {
            let mut coordinator = self.inner.borrow_mut();
            let coordinator = &mut *coordinator;
            let membership = &mut coordinator.membership;
            let Some(round) = membership.rounds.remove(&tx) else {
                return;
            };
            let mut job = membership
                .job
                .as_mut()
                .filter(|job| job.current == Some(tx));
            if let Some(job) = &mut job {
                job.current = None;
                job.ticket.borrow_mut().progress += 1;
            }
            if committed {
                let pause_ns = world.now().as_nanos() - round.started_ns;
                coordinator.metrics.handoff_pause_ns.record(pause_ns);
                if let Some(job) = &mut job {
                    job.report.moved += round.instances.len();
                    job.report.rounds += 1;
                    job.report.pause_ns.push(pause_ns);
                }
                for instance in &round.instances {
                    membership.moved.insert(instance.clone(), round.dest);
                }
            }
            let ours = job.is_some();
            if !committed {
                let _ = coordinator.drop_move_records(&[move_uid(tx)]);
            }
            (round, ours)
        };
        world.cancel(round.timer);
        for (report, hops) in round.held {
            let instance = report.address().0.to_string();
            self.forward_oneway(world, round.dest, &instance, report.into(), hops);
        }
        if ours && !committed {
            self.finish_job(Err(EngineError::Tx(format!(
                "hand-off of {} instance(s) to {} aborted: the destination voted no \
                 or did not answer; they stay where they were",
                round.instances.len(),
                round.dest
            ))));
        } else {
            self.advance(world);
        }
    }

    // -----------------------------------------------------------------
    // Live hand-off: every `Dist` message, either role.
    // -----------------------------------------------------------------

    /// Handles one 2PC message. As participant (destination):
    /// `Prepare` → stage and vote, `Decision` → resolve, adopt, ack —
    /// idempotent, so a re-sent or re-announced decision is acked
    /// again. As coordinator (source): votes, acks and queries go
    /// through `dist`, queries answered from the durable decision
    /// record (presumed abort: none means abort).
    pub(super) fn on_dist(&self, world: &mut World, msg: DistMsg) {
        let from = self.node().index() as u32;
        let actions = match msg {
            DistMsg::Prepare {
                tx,
                coordinator,
                writes,
            } => {
                let yes = self.stage_prepare(tx, coordinator, writes).is_ok();
                let vote = DistMsg::Vote { tx, from, yes };
                return self.send_dist(world, NodeId::from_index(coordinator as usize), vote);
            }
            DistMsg::Decision { tx, commit } => {
                if self
                    .inner
                    .borrow_mut()
                    .mgr
                    .resolve_remote(tx, commit)
                    .is_err()
                {
                    return; // unacked: the source sends it again
                }
                if commit {
                    self.adopt_orphans(world, None);
                }
                let source = NodeId::from_index(tx.node() as usize);
                return self.send_dist(world, source, DistMsg::Ack { tx, from });
            }
            DistMsg::Vote { tx, from, yes } => {
                let mut coordinator = self.inner.borrow_mut();
                coordinator.membership.dist.on_vote(tx, from, yes)
            }
            DistMsg::Ack { tx, from } => self.inner.borrow_mut().membership.dist.on_ack(tx, from),
            DistMsg::QueryOutcome { tx, from } => {
                let coordinator = self.inner.borrow();
                let persisted = coordinator.mgr.coordinator_decision(tx);
                coordinator.membership.dist.on_query(tx, from, persisted)
            }
        };
        self.perform(world, actions);
    }

    /// `Prepare` at the destination: re-keys the slice under freshly
    /// allocated local instance ids and stages it as one prepared
    /// remote transaction — the durable yes-vote. The committed id
    /// sequence is read once and a contiguous range `base..base + N`
    /// allocated up front, so the slice costs a single prepare frame
    /// however many instances it carries. Nothing is visible until the
    /// source's decision arrives. The staged write lock on the id
    /// sequence is what keeps a second prepare — which would draw the
    /// same ids — voting no until this one resolves.
    ///
    /// # Errors
    ///
    /// Lock conflict on a staged key, a malformed package, or storage
    /// failure persisting the vote: each is a no-vote.
    fn stage_prepare(
        &self,
        tx: TxId,
        coordinator_node: u32,
        images: AfterImages,
    ) -> Result<(), EngineError> {
        let mut coordinator = self.inner.borrow_mut();
        let base: u32 = coordinator
            .mgr
            .read_committed_key(&instance_seq_uid())?
            .unwrap_or(0);
        let (names, rekeyed) = rekeyed(images, base, |_| false)?;
        let next_id = flowscript_codec::to_bytes(&(base + names.len() as u32));
        let mut writes = vec![(instance_seq_uid(), Some(next_id))];
        writes.extend(rekeyed);
        coordinator
            .mgr
            .prepare_remote(tx, coordinator_node, writes)?;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Crash-driven adoption.
    // -----------------------------------------------------------------

    /// The façade's trigger for a failover, on the claimant: reopens
    /// the dead shard's surviving storage under this node's identity
    /// and stamps the fence — from that append on the dead shard's own
    /// manager can never commit again, the claimed copies are the
    /// truth — then packages every instance in it and sends each owner
    /// under `map` its share, [`DRAIN_BATCH`] instances a claim. The
    /// returned ticket's report is ready once every claim is
    /// acknowledged.
    ///
    /// # Errors
    ///
    /// This node is down, the storage does not replay, or it carries a
    /// foreign fence (another claimant got there first).
    pub(crate) fn begin_adoption(
        &self,
        world: &mut World,
        dead_storage: StableStore,
        dead: NodeId,
        map: &ShardMap,
    ) -> Result<TicketRef<FailoverReport>, EngineError> {
        let node = self.ensure_up(world)?;
        let (dead, epoch) = (dead.index() as u32, map.epoch());
        let mut mgr = TxManager::open(node.index() as u32, dead_storage)?;
        mgr.write_fence(epoch)?;
        let mut shares: BTreeMap<NodeId, Vec<AfterImages>> = BTreeMap::new();
        for instance in stored_instance_names(&mgr) {
            if let Some(package) = package_instance(&mgr, &instance) {
                let owner = map.node_of(&instance);
                shares.entry(owner).or_default().push(package);
            }
        }
        let claims: Vec<(NodeId, Rc<Vec<u8>>)> = shares
            .iter()
            .flat_map(|(&dest, packages)| {
                packages.chunks(DRAIN_BATCH).map(move |chunk| {
                    let writes = chunk.concat();
                    let claim = EngineMsg::Claim {
                        dead,
                        epoch,
                        writes,
                    };
                    (dest, Rc::new(flowscript_codec::to_bytes(&claim)))
                })
            })
            .collect();
        let report = FailoverReport {
            adopted: shares.values().map(Vec::len).sum(),
            epoch,
            claimant: node.index() as u32,
        };
        let ticket = TicketRef::default();
        if claims.is_empty() {
            ticket.borrow_mut().outcome = Some(Ok(report.clone()));
        }
        let adoption = Rc::new(Adoption {
            claims: claims.len() as u64,
            report,
            ticket: ticket.clone(),
        });
        for (dest, claim) in claims {
            self.send_claim(world, &adoption, dest, claim);
        }
        Ok(ticket)
    }

    /// Sends one claim as an RPC and keeps sending it, an interval
    /// apart, until its `Ack` arrives: `Ok` counts it off — the last
    /// one files the report — an error files that instead.
    fn send_claim(
        &self,
        world: &mut World,
        adoption: &Rc<Adoption>,
        dest: NodeId,
        claim: Rc<Vec<u8>>,
    ) {
        let (handle, adoption) = (self.clone(), adoption.clone());
        let payload = claim.to_vec();
        let on_reply = move |world: &mut World, reply: Result<Vec<u8>, RpcError>| {
            let ack = reply
                .ok()
                .and_then(|bytes| flowscript_codec::from_bytes::<EngineMsg>(&bytes).ok());
            let mut filed = adoption.ticket.borrow_mut();
            match ack {
                _ if filed.cancelled || filed.outcome.is_some() => {}
                Some(EngineMsg::Ack { result: Ok(()) }) => {
                    filed.progress += 1;
                    if filed.progress == adoption.claims {
                        filed.outcome = Some(Ok(adoption.report.clone()));
                    }
                }
                Some(EngineMsg::Ack { result: Err(why) }) => {
                    filed.outcome = Some(Err(EngineError::Tx(format!("claim refused: {why}"))));
                }
                // Lost, late or garbled: again.
                _ => {
                    drop(filed);
                    handle.send_claim(world, &adoption, dest, claim);
                }
            }
        };
        world.rpc_call(self.node(), dest, payload, RETRANSMIT_INTERVAL, on_reply);
    }

    /// A claim arriving at its destination: commits the dead shard's
    /// packaged instances locally under freshly allocated ids — ONE
    /// atomic commit, no 2PC, the source is dead and its storage fenced
    /// behind the claimant — and adopts them. Idempotent: an instance
    /// already present (resident or committed) is skipped, which is
    /// what lets a claimant that crashed mid-claim, or whose ack was
    /// lost, simply send everything again.
    ///
    /// # Errors
    ///
    /// A malformed package, or storage failure on the commit.
    pub(super) fn on_claim(
        &self,
        world: &mut World,
        dead: u32,
        epoch: u64,
        images: AfterImages,
    ) -> Result<(), EngineError> {
        {
            let mut coordinator = self.inner.borrow_mut();
            let coordinator = &mut *coordinator;
            let base: u32 = coordinator
                .mgr
                .read_committed_key(&instance_seq_uid())?
                .unwrap_or(0);
            let (names, writes) = rekeyed(images, base, |name| coordinator.holds(name))?;
            if names.is_empty() {
                return Ok(());
            }
            let next_id = base + names.len() as u32;
            coordinator.atomically(|mgr, action| {
                mgr.write_key(action, &instance_seq_uid(), &next_id)?;
                // (A package carries no tombstones; one that does has
                // nothing to delete here.)
                for (key, bytes) in writes {
                    if let Some(bytes) = bytes {
                        mgr.write_key_raw(action, &key, bytes)?;
                    }
                }
                Ok(())
            })?;
            for name in &names {
                let kind = ObsEventKind::Claim { from: dead, epoch };
                coordinator.record_event(world.now().as_nanos(), name, None, 0, kind);
            }
        }
        self.adopt_orphans(world, Some((dead, epoch)));
        Ok(())
    }

    /// Adopts every instance whose committed state sits in this
    /// shard's store without a resident runtime — the landing half of
    /// a hand-off (a committed one on the destination, an aborted one
    /// back on the source) and of a claim. Unlike crash recovery this bumps no attempts and
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
            // So is a slice one of this node's own rounds holds frozen:
            // it is in the store, and not to be woken by a sweep.
            let orphans: Vec<String> = stored_instance_names(&coordinator.mgr)
                .filter(|name| !coordinator.instances.contains_key(name))
                .filter(|name| coordinator.membership.freezing(name).is_none())
                .collect();
            for name in orphans {
                let (Ok(header), Ok(record)) = (
                    coordinator.read_header(&name),
                    coordinator.read_status(&name),
                ) else {
                    continue;
                };
                let Some(rt) = coordinator.load_instance(&name, &header, &record) else {
                    continue;
                };
                coordinator.instances.insert(name.clone(), rt);
                let running = record.status == InstanceStatus::Running;
                if running {
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
                adopted.push((name, running));
            }
            adopted
        };
        for (name, running) in adopted {
            self.rearm_adopted(world, &name);
            if running {
                // Full re-evaluation: an adopted instance has no
                // commit to seed from. Executing tasks are not
                // re-dispatched — their transitions gate on the
                // control-block state.
                self.evaluate(world, &name);
            }
        }
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
        // moves that led to this flip are now redundant, and so are the
        // move records a restart would rebuild them from.
        coordinator.membership.moved.clear();
        let settled = coordinator.mgr.uids_with_prefix(keys::MOVE_PREFIX);
        let settled: Vec<StoreKey> = settled.into_iter().map(StoreKey::Uid).collect();
        let _ = coordinator.drop_move_records(&settled);
    }

    /// [`Self::set_shard_map`] for a coordinator that stays behind as a
    /// pure relay (a drained shard retired from the map, or any node
    /// whose relay table may reference departed peers). Instead of
    /// clearing the relay table (and the move records behind it), every
    /// entry pointing at a node the new map no longer carries is
    /// re-pointed at the new map's owner — so a late executor report
    /// forwards straight to the adopter instead of bouncing off a dead
    /// address and burning `forward_loops` hops.
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

    use flowscript_tx::SharedStorage;

    use super::*;
    use crate::coordinator::EngineConfig;
    use crate::msg::MarkMsg;

    fn header(instance_id: u32) -> InstanceHeader {
        InstanceHeader {
            script: "s".into(),
            source_hash: 5,
            root: "root".into(),
            set: "main".into(),
            inputs: BTreeMap::new(),
            instance_id,
        }
    }

    /// One instance's run as `package_instance` lays it out: the
    /// header, the status record, the shared plan and source, one fact
    /// and one control block.
    fn run(name: &str, id: u32) -> AfterImages {
        vec![
            (
                meta_uid(name),
                Some(flowscript_codec::to_bytes(&header(id))),
            ),
            (status_uid(name), Some(vec![0])),
            (plan_uid(9), Some(vec![2])),
            (source_uid(5), Some(vec![4])),
            (StoreKey::Fact(FactKey::output(id, 2, 1)), Some(vec![3])),
            (StoreKey::Fact(FactKey::control(id, 2)), Some(vec![1])),
        ]
    }

    #[test]
    fn move_record_codec_roundtrip() {
        let record = MoveRecord {
            dest: 2,
            instances: vec!["order-3".into(), "order-p128/kid".into()],
        };
        let bytes = flowscript_codec::to_bytes(&record);
        assert_eq!(
            flowscript_codec::from_bytes::<MoveRecord>(&bytes).unwrap(),
            record
        );
        assert!(flowscript_codec::from_bytes::<MoveRecord>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn rekeyed_moves_facts_and_header_onto_the_new_ids_and_nothing_else() {
        // Two runs back to back, both on the source's ids 3 and 4, land
        // on 7 and 8: facts and headers move, the rest is verbatim. The
        // second's name extends the first's by a `/`: its run is its own.
        let images = [run("i", 3), run("i/j", 4)].concat();
        let (names, entries) = rekeyed(images.clone(), 7, |_| false).expect("well-formed runs");
        assert_eq!(names, ["i", "i/j"]);
        assert_eq!(entries, [run("i", 7), run("i/j", 8)].concat());
        // A skipped instance is left out whole, and takes no id.
        let (names, entries) = rekeyed(images, 7, |name| name == "i").expect("well-formed runs");
        assert_eq!((names, entries), (vec!["i/j".to_string()], run("i/j", 7)));
        // Hostile bytes are a typed error, never a panic: a corrupt
        // header, a fact before any run, a fact on somebody else's id,
        // a run that opens with something other than its header.
        let corrupt = vec![(meta_uid("i"), Some(vec![0xFF; 3]))];
        let stray = vec![run("i", 3).remove(4)];
        let mut foreign = run("i", 3);
        foreign.push((StoreKey::Fact(FactKey::output(4, 0, 0)), Some(vec![])));
        let headless = run("i", 3).split_off(1);
        for bad in [corrupt, stray, foreign, headless] {
            assert!(matches!(
                rekeyed(bad, 7, |_| false),
                Err(EngineError::Tx(why)) if why.contains("malformed")
            ));
        }
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
        let coord = Coordinator::open(here, client, Vec::new(), config, storage, map)
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
