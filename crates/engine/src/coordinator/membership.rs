//! Shard membership: who owns an instance, relaying what lands on the
//! wrong shard, and the two ways instances change shards. Both are run
//! by the nodes themselves, over [`EngineMsg`]s: the façade
//! ([`crate::WorkflowSystem`]) hands ONE node the trigger
//! ([`Coordinator::begin_move`], [`Coordinator::begin_adoption`]),
//! steps the world until that node files its report on its [`Ticket`],
//! then pushes the map flip.
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
//! [`Coordinator::adopt_orphans`] a destination lands a commit on.
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
//! share as [`EngineMsg::Claim`] calls ([`super::Call::Claim`]), again
//! every [`RETRANSMIT_INTERVAL`] until acknowledged. No 2PC — the source is
//! dead and the fence already decided; a claim is one local atomic
//! commit, and an instance already present is skipped, so a re-run is
//! idempotent.

use std::collections::{BTreeMap, VecDeque};

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use flowscript_obs::ObsEventKind;
use flowscript_sim::{NodeId, ReplyToken, RpcError, SimDuration, SimTime};
use flowscript_tx::dist::{self, AfterImages, CoordAction, DistMsg};
use flowscript_tx::{AtomicAction, FactKey, StableStore, StoreKey, TxId, TxManager};

use super::window::PendingEvent;
use super::{stored_instance_names, Call, Coordinator, InstanceHeader, Output, Timer, TimerId};
use crate::error::EngineError;
use crate::keys::{self, instance_seq_uid, meta_uid, move_uid, source_uid};
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

/// How long an admitted start waits on the repository for its script
/// before it answers the client that the repository is unreachable.
pub(super) const REPOSITORY_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// How long a relayed start waits on its owner before it answers the
/// client that the owning shard is unreachable: above the owner's own
/// [`REPOSITORY_TIMEOUT`], so the owner's answer comes first.
const RELAY_TIMEOUT: SimDuration = SimDuration::from_secs(8);

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
    timer: TimerId,
}

/// The façade's end of a fleet operation it handed a node — the reply
/// slot of the operator's call, which the façade reads through the
/// driver. It is the caller's, not the node's volatile state: a restart
/// leaves it as it was.
#[derive(Default)]
pub(crate) struct Ticket<T> {
    /// The node's report, once it has one.
    pub(crate) outcome: Option<Result<T, EngineError>>,
    /// Rounds or claims acknowledged so far: the sign of life the
    /// façade's deadline restarts on.
    pub(crate) progress: u64,
}

/// The move the façade handed this node: the rounds still to run, the
/// one in flight and the tally so far.
struct MoveJob {
    queue: VecDeque<(NodeId, Vec<String>)>,
    current: Option<TxId>,
    report: MoveReport,
}

/// The adoption a claimant runs: what each claim's answer — the only
/// thing that advances it — needs to count itself off.
struct Adoption {
    /// Which of this node's adoptions: a late answer to an earlier one's
    /// claim counts for nothing.
    id: u64,
    claims: u64,
    report: FailoverReport,
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
    /// the flip ([`Coordinator::set_shard_map`]), after which the map
    /// itself routes to the new owner.
    moved: BTreeMap<String, NodeId>,
    /// The 2PC coordinator of every round this node sources.
    dist: dist::Coordinator,
    /// Rounds begun and not yet acknowledged, by moving transaction:
    /// the running job's current one, plus any a cancelled job left
    /// undelivered (the next job settles those first).
    rounds: BTreeMap<TxId, Round>,
    job: Option<MoveJob>,
    adoption: Option<Adoption>,
    /// Adoptions begun so far.
    adoptions: u64,
    /// The façade's ends of the last move and the last adoption it
    /// handed this node.
    move_ticket: Ticket<MoveReport>,
    adoption_ticket: Ticket<FailoverReport>,
}

impl Membership {
    pub(super) fn new(node: NodeId, shard: ShardMap) -> Self {
        Self {
            shard,
            moved: BTreeMap::new(),
            dist: dist::Coordinator::new(node.index() as u32),
            rounds: BTreeMap::new(),
            job: None,
            adoption: None,
            adoptions: 0,
            move_ticket: Ticket::default(),
            adoption_ticket: Ticket::default(),
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
        self.adoption = None;
    }

    /// A fenced zombie relays nothing: its relay table dies with its
    /// claim on the storage.
    pub(super) fn forget_moves(&mut self) {
        self.moved.clear();
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
/// Everything derives from the committed header: the instance's uid
/// prefix, the canonical source it pins (under the header's hash; the
/// destination compiles its own plan from it) and the dense range of
/// the header's instance id, every task's facts and control block in
/// one contiguous range scan. The header comes FIRST: it is the entry that tells
/// [`rekeyed`] a new instance's run begins, what it is called and which
/// dense id its fact keys carry. A stuck record, if the instance has
/// one, rides along under the uid prefix. Returns `None` for a missing
/// or undecodable header.
pub(super) fn package_instance(
    mgr: &TxManager<StableStore>,
    instance: &str,
) -> Option<AfterImages> {
    let header_key = meta_uid(instance);
    let header: InstanceHeader = mgr.read_committed_key(&header_key).ok()??;
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
        .chain([source_uid(header.source_hash)])
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
            // One of the run's own objects, or the source it pins.
            out.push((key, bytes));
        }
    }
    Ok((names, out))
}

/// Stages into `action` the deletion of every committed object of
/// `instance`: its whole uid prefix plus the dense range — facts and
/// control blocks — of the header's instance id. The storage half of
/// the source side of a committed hand-off (the shared source blob
/// stays; blob GC collects it, and its plan, once no local instance
/// pins it).
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
    fn drop_runtime(&mut self, instance: &str) -> Vec<TimerId> {
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

    /// `Some(owner)` when `instance` belongs to a *different*
    /// coordinator per the shared shard map (the request must be
    /// forwarded), `None` when this node owns it.
    pub(super) fn misdirected(&self, instance: &str) -> Option<NodeId> {
        // Residency beats the map: the instant a committed hand-off is
        // adopted, this node *is* the owner — even while its own map is
        // still the pre-flip one (a crashed destination recovers the
        // move before any map update reaches it). Without this, the
        // stale map bounces relayed reports straight back at the
        // relayer until the hop cap eats them.
        if self.instances.contains_key(instance) {
            return None;
        }
        let owner = self.membership.shard.node_of(instance);
        if owner != self.node {
            return Some(owner);
        }
        // The map says "mine" but the instance was handed off and the
        // rebalance's map flip hasn't happened yet (the dual-delivery
        // window): relay to where it went.
        self.membership.moved.get(instance).copied()
    }

    /// Routes one executor report: held with its round while the
    /// instance is frozen, relayed when another shard owns it, buffered
    /// into the commit window when it is ours.
    pub(super) fn route_report(&mut self, report: PendingEvent, hops: u32) {
        let membership = &mut self.membership;
        let frozen_in = membership.freezing(report.address().0);
        if let Some(round) = frozen_in.and_then(|tx| membership.rounds.get_mut(&tx)) {
            round.held.push((report, hops));
            return;
        }
        match self.misdirected(report.address().0) {
            Some(owner) => {
                let instance = report.address().0.to_string();
                self.forward_oneway(owner, &instance, report.into(), hops);
            }
            None => self.enqueue_event(report),
        }
    }

    /// Wraps a misdirected message for its relay to `owner`: an
    /// `EngineMsg::Forwarded` carrying this node's map epoch and the
    /// hop count, returned encoded. A message that already burned
    /// [`MAX_FORWARD_HOPS`] relays is circling between coordinators
    /// whose shard maps disagree — it is counted (`coord.forward_loops`)
    /// and `None` comes back instead of another bounce. The relay
    /// charges only `forwarded`; the owner counts the operation itself
    /// exactly once.
    fn forward_envelope(
        &mut self,
        owner: NodeId,
        instance: &str,
        inner: &EngineMsg,
        hops: u32,
    ) -> Option<Vec<u8>> {
        if hops >= MAX_FORWARD_HOPS {
            self.metrics.stats.forward_loops += 1;
            return None;
        }
        self.metrics.stats.forwarded += 1;
        let epoch = self.membership.epoch();
        let to = owner.index() as u32;
        let kind = ObsEventKind::Forward { to, epoch };
        self.record_event(instance, None, 0, kind);
        let wrapped = EngineMsg::Forwarded {
            epoch,
            hops: hops + 1,
            inner: flowscript_codec::to_bytes(inner),
        };
        Some(flowscript_codec::to_bytes(&wrapped))
    }

    /// Relays a misdirected one-way message (`Done`/`Mark`) to the
    /// owning shard; at the hop cap it is dropped.
    fn forward_oneway(&mut self, owner: NodeId, instance: &str, inner: EngineMsg, hops: u32) {
        if let Some(bytes) = self.forward_envelope(owner, instance, &inner, hops) {
            self.outbox.push(Output::Send { to: owner, bytes });
        }
    }

    /// Relays a misdirected `StartInstance` call to the owning shard
    /// ([`Call::Relay`]), whose answer goes back to the original caller.
    /// At the hop cap the caller gets a diagnosable error instead of a
    /// hang.
    pub(super) fn forward_start(
        &mut self,
        owner: NodeId,
        instance: &str,
        token: ReplyToken,
        inner: EngineMsg,
        hops: u32,
    ) {
        let Some(bytes) = self.forward_envelope(owner, instance, &inner, hops) else {
            let reply = EngineMsg::Ack {
                result: Err(format!(
                    "instance `{instance}` bounced through {hops} shards without \
                     finding an owner (disagreeing shard maps?)"
                )),
            };
            self.reply(token, &reply);
            return;
        };
        self.outbox.push(Output::Call {
            to: owner,
            bytes,
            timeout: RELAY_TIMEOUT,
            call: Call::Relay(token),
        });
    }

    /// The owner answered a relayed start (or did not in time): its
    /// answer, or why there is none, goes back to the caller.
    pub(super) fn on_relayed(&mut self, token: ReplyToken, answer: Result<Vec<u8>, RpcError>) {
        let bytes = match answer {
            Ok(bytes) => bytes,
            Err(err) => flowscript_codec::to_bytes(&EngineMsg::Ack {
                result: Err(format!("owning shard unreachable: {err}")),
            }),
        };
        self.outbox.push(Output::Reply { token, bytes });
    }

    // -----------------------------------------------------------------
    // The façade's end of a fleet operation.
    // -----------------------------------------------------------------

    /// Where this node files the report of the last move the façade
    /// handed it.
    pub(crate) fn move_ticket(&mut self) -> &mut Ticket<MoveReport> {
        &mut self.membership.move_ticket
    }

    /// Where this node files the report of the last adoption the façade
    /// handed it.
    pub(crate) fn adoption_ticket(&mut self) -> &mut Ticket<FailoverReport> {
        &mut self.membership.adoption_ticket
    }

    /// The façade gave the call up: this node re-sends nothing more for
    /// it, so no fleet timer outlives the call that started it by more
    /// than a tick. Rounds already decided but unacknowledged stay on
    /// the books for the next job, a recovery re-announcement or the
    /// destination's own query to finish.
    pub(crate) fn give_up(&mut self) {
        self.membership.job = None;
        self.membership.adoption = None;
    }

    // -----------------------------------------------------------------
    // Live hand-off, source side: the 2PC coordinator's host.
    // -----------------------------------------------------------------

    /// The façade's trigger for a rebalance or drain: moves every
    /// instance resident here that `map` assigns elsewhere — decided
    /// against residency, not the old map, since a crash-recovered
    /// shard may hold instances the old map would misattribute — in
    /// rounds of up to `limit` per destination, one round at a time.
    /// The report is on [`Coordinator::move_ticket`] once the last round
    /// is acknowledged, or as soon as one aborts. Rounds an earlier,
    /// abandoned job left undelivered are settled first: their
    /// decisions go out again now, and the first new round waits for
    /// their acks (the destination's staged locks would veto it).
    pub(crate) fn begin_move(
        &mut self,
        now: SimTime,
        map: &ShardMap,
        limit: usize,
    ) -> ((), Vec<Output>) {
        self.at(now, |this| {
            let mut by_dest: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
            for instance in this.instances.keys() {
                let owner = map.node_of(instance);
                if owner != this.node {
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
            let membership = &mut this.membership;
            membership.move_ticket = Ticket::default();
            membership.job = Some(MoveJob {
                queue,
                current: None,
                report,
            });
            let unsettled: Vec<TxId> = membership.rounds.keys().copied().collect();
            for tx in unsettled {
                this.on_round_timer(tx);
            }
            this.advance();
        })
    }

    /// Ends the running job with `outcome` for the façade to collect.
    fn finish_job(&mut self, outcome: Result<(), EngineError>) {
        if let Some(job) = self.membership.job.take() {
            self.membership.move_ticket.outcome = Some(outcome.map(|()| job.report));
        }
    }

    /// Starts the job's next round once nothing is in flight, or
    /// finishes the job when none is left.
    fn advance(&mut self) {
        let membership = &mut self.membership;
        let idle = membership.rounds.is_empty();
        let next = match membership.job.as_mut() {
            Some(job) if idle => job.queue.pop_front(),
            _ => return,
        };
        let outcome = match next {
            Some((dest, instances)) => match self.start_round(dest, instances) {
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
    fn start_round(&mut self, dest: NodeId, instances: Vec<String>) -> Result<(), EngineError> {
        self.flush_pending();
        let mut images = AfterImages::new();
        for instance in &instances {
            let package = package_instance(&self.mgr, instance)
                .filter(|_| self.instances.contains_key(instance.as_str()))
                .ok_or_else(|| EngineError::UnknownInstance(instance.clone()))?;
            images.extend(package);
        }
        let dest_index = dest.index() as u32;
        let tx = self.mgr.mint_dist_tx();
        let record = MoveRecord {
            dest: dest_index,
            instances: instances.clone(),
        };
        self.atomically(|mgr, action| Ok(mgr.write_key(action, &move_uid(tx), &record)?))?;
        let watchdogs: Vec<TimerId> = instances
            .iter()
            .flat_map(|instance| self.drop_runtime(instance))
            .collect();
        let actions = self.membership.dist.begin(tx, vec![(dest_index, images)]);
        self.cancel(watchdogs);
        let round = Round {
            dest,
            instances,
            started_ns: self.now.as_nanos(),
            frozen: true,
            held: Vec::new(),
            timer: self.arm(RETRANSMIT_INTERVAL, Timer::Round(tx)),
        };
        let membership = &mut self.membership;
        membership.rounds.insert(tx, round);
        if let Some(job) = &mut membership.job {
            job.current = Some(tx);
        }
        self.perform(actions);
        // Freed executor load and freed admission slots: parked
        // dispatches of other instances may now place, and queued
        // starts may now admit.
        self.pump();
        Ok(())
    }

    /// Round `tx` has waited an interval ([`Timer::Round`]): `dist`
    /// aborts it if the vote is still missing, sends the decision again
    /// if the ack is.
    pub(super) fn on_round_timer(&mut self, tx: TxId) {
        // Nobody waiting: the round rests until the next job.
        if self.membership.job.is_none() {
            return;
        }
        let Some(stale) = self.membership.rounds.get(&tx).map(|r| r.timer) else {
            return;
        };
        self.cancel([stale]);
        let actions = self.membership.dist.on_timeout(tx);
        let timer = self.arm(RETRANSMIT_INTERVAL, Timer::Round(tx));
        if let Some(round) = self.membership.rounds.get_mut(&tx) {
            round.timer = timer;
        }
        self.perform(actions);
    }

    /// Carries out what `dist` decided, in order — the ONE place its
    /// actions meet the log and the network.
    fn perform(&mut self, actions: Vec<CoordAction>) {
        for action in actions {
            match action {
                CoordAction::Send { to, msg } => {
                    // Aborts are presumed, not persisted, so `dist`
                    // announces one only through its first `Decision`.
                    if let DistMsg::Decision { tx, commit: false } = msg {
                        self.abort_round(tx);
                    }
                    self.send(NodeId::from_index(to as usize), &EngineMsg::Dist(msg));
                }
                CoordAction::PersistDecision { tx, .. } => {
                    if let Err(err) = self.commit_round(tx) {
                        // Not durable, so it was never taken: it must
                        // not be announced, nor answer a query. The
                        // round is abandoned frozen (a restart presumes
                        // it aborted) and the job reports why.
                        let membership = &mut self.membership;
                        membership.dist.abandon(tx);
                        let round = membership.rounds.remove(&tx);
                        self.cancel(round.map(|round| round.timer));
                        self.finish_job(Err(err));
                        return;
                    }
                }
                CoordAction::Done { tx, committed } => self.finish_round(tx, committed),
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
    fn commit_round(&mut self, tx: TxId) -> Result<(), EngineError> {
        let Some(round) = self.membership.rounds.get(&tx) else {
            return Err(EngineError::Tx(format!("no round for {tx}")));
        };
        let (dest, instances) = (round.dest.index() as u32, round.instances.clone());
        let epoch = self.membership.epoch();
        self.atomically(|mgr, action| {
            mgr.stage_decision(action, tx)?;
            let purge = |instance: &String| purge_instance(mgr, action, instance);
            instances.iter().try_for_each(purge)
        })?;
        for instance in &instances {
            self.metrics.stats.handoffs += 1;
            let kind = ObsEventKind::HandOff { to: dest, epoch };
            self.record_event(instance, None, 0, kind);
        }
        Ok(())
    }

    /// The abort decision (a no-vote, or none in time): nothing to log —
    /// no decision record is the abort — so the slice just thaws where
    /// it is: runtimes re-materialised from the untouched committed
    /// state, held reports re-enqueued in arrival order. The move
    /// record goes with the destination's ack (or a restart's presumed
    /// abort). Runs once per round; a re-sent abort finds it thawed.
    fn abort_round(&mut self, tx: TxId) {
        let Some(round) = self.membership.rounds.get_mut(&tx) else {
            return;
        };
        if !std::mem::take(&mut round.frozen) {
            return;
        }
        let held = std::mem::take(&mut round.held);
        self.adopt_orphans(None);
        for (report, _) in held {
            self.enqueue_event(report);
        }
    }

    /// `Done`: the destination acknowledged the decision. A committed
    /// round records its pause, opens the relay for its instances and
    /// forwards what was held; an aborted one deletes its move record —
    /// nobody is left to tell. Either way the job moves on — to the
    /// next round, or to its report if this round aborted.
    fn finish_round(&mut self, tx: TxId, committed: bool) {
        let membership = &mut self.membership;
        let Some(round) = membership.rounds.remove(&tx) else {
            return;
        };
        let mut job = membership
            .job
            .as_mut()
            .filter(|job| job.current == Some(tx));
        if let Some(job) = &mut job {
            job.current = None;
            membership.move_ticket.progress += 1;
        }
        if committed {
            let pause_ns = self.now.as_nanos() - round.started_ns;
            self.metrics.handoff_pause_ns.record(pause_ns);
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
            let _ = self.drop_move_records(&[move_uid(tx)]);
        }
        self.cancel([round.timer]);
        for (report, hops) in round.held {
            let instance = report.address().0.to_string();
            self.forward_oneway(round.dest, &instance, report.into(), hops);
        }
        if ours && !committed {
            self.finish_job(Err(EngineError::Tx(format!(
                "hand-off of {} instance(s) to {} aborted: the destination voted no \
                 or did not answer; they stay where they were",
                round.instances.len(),
                round.dest
            ))));
        } else {
            self.advance();
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
    pub(super) fn on_dist(&mut self, msg: DistMsg) {
        let from = self.node.index() as u32;
        let actions = match msg {
            DistMsg::Prepare {
                tx,
                coordinator,
                writes,
            } => {
                let yes = self.stage_prepare(tx, coordinator, writes).is_ok();
                let vote = EngineMsg::Dist(DistMsg::Vote { tx, from, yes });
                return self.send(NodeId::from_index(coordinator as usize), &vote);
            }
            DistMsg::Decision { tx, commit } => {
                if self.mgr.resolve_remote(tx, commit).is_err() {
                    return; // unacked: the source sends it again
                }
                if commit {
                    self.adopt_orphans(None);
                }
                let source = NodeId::from_index(tx.node() as usize);
                return self.send(source, &EngineMsg::Dist(DistMsg::Ack { tx, from }));
            }
            DistMsg::Vote { tx, from, yes } => self.membership.dist.on_vote(tx, from, yes),
            DistMsg::Ack { tx, from } => self.membership.dist.on_ack(tx, from),
            DistMsg::QueryOutcome { tx, from } => {
                let persisted = self.mgr.coordinator_decision(tx);
                self.membership.dist.on_query(tx, from, persisted)
            }
        };
        self.perform(actions);
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
        &mut self,
        tx: TxId,
        coordinator_node: u32,
        images: AfterImages,
    ) -> Result<(), EngineError> {
        let base: u32 = self
            .mgr
            .read_committed_key(&instance_seq_uid())?
            .unwrap_or(0);
        let (names, rekeyed) = rekeyed(images, base, |_| false)?;
        let next_id = flowscript_codec::to_bytes(&(base + names.len() as u32));
        let mut writes = vec![(instance_seq_uid(), Some(next_id))];
        writes.extend(rekeyed);
        self.mgr.prepare_remote(tx, coordinator_node, writes)?;
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
    /// report is on [`Coordinator::adoption_ticket`] once every claim is
    /// acknowledged.
    ///
    /// # Errors
    ///
    /// The storage does not replay, or it carries a foreign fence
    /// (another claimant got there first).
    pub(crate) fn begin_adoption(
        &mut self,
        now: SimTime,
        dead_storage: StableStore,
        dead: NodeId,
        map: &ShardMap,
    ) -> (Result<(), EngineError>, Vec<Output>) {
        self.at(now, |this| {
            let (dead, epoch) = (dead.index() as u32, map.epoch());
            let mut mgr = TxManager::open(this.node.index() as u32, dead_storage)?;
            mgr.write_fence(epoch)?;
            let mut shares: BTreeMap<NodeId, Vec<AfterImages>> = BTreeMap::new();
            for instance in stored_instance_names(&mgr) {
                if let Some(package) = package_instance(&mgr, &instance) {
                    let owner = map.node_of(&instance);
                    shares.entry(owner).or_default().push(package);
                }
            }
            let claims: Vec<(NodeId, Vec<u8>)> = shares
                .iter()
                .flat_map(|(&dest, packages)| {
                    packages.chunks(DRAIN_BATCH).map(move |chunk| {
                        let writes = chunk.concat();
                        let claim = EngineMsg::Claim {
                            dead,
                            epoch,
                            writes,
                        };
                        (dest, flowscript_codec::to_bytes(&claim))
                    })
                })
                .collect();
            let report = FailoverReport {
                adopted: shares.values().map(Vec::len).sum(),
                epoch,
                claimant: this.node.index() as u32,
            };
            let membership = &mut this.membership;
            membership.adoption_ticket = Ticket::default();
            if claims.is_empty() {
                membership.adoption_ticket.outcome = Some(Ok(report.clone()));
            }
            membership.adoptions += 1;
            let id = membership.adoptions;
            membership.adoption = Some(Adoption {
                id,
                claims: claims.len() as u64,
                report,
            });
            for (dest, bytes) in claims {
                this.send_claim(id, dest, bytes);
            }
            Ok(())
        })
    }

    /// Sends one claim of adoption `id` as a call ([`Call::Claim`]),
    /// answered within an interval or sent again.
    fn send_claim(&mut self, id: u64, dest: NodeId, bytes: Vec<u8>) {
        self.outbox.push(Output::Call {
            to: dest,
            bytes: bytes.clone(),
            timeout: RETRANSMIT_INTERVAL,
            call: Call::Claim(id, dest, bytes),
        });
    }

    /// A claim was answered, or not in time: an `Ack` counts it off —
    /// the last one files the report — an error files that instead, and
    /// a claim lost, late or garbled goes out again. An answer for an
    /// adoption the façade gave up on, or that already filed, counts
    /// for nothing.
    pub(super) fn on_claim_answered(
        &mut self,
        id: u64,
        dest: NodeId,
        bytes: Vec<u8>,
        answer: Result<Vec<u8>, RpcError>,
    ) {
        let membership = &mut self.membership;
        let Some(adoption) = membership.adoption.as_ref().filter(|a| a.id == id) else {
            return;
        };
        let filed = &mut membership.adoption_ticket;
        let ack = answer
            .ok()
            .and_then(|bytes| flowscript_codec::from_bytes::<EngineMsg>(&bytes).ok());
        match ack {
            _ if filed.outcome.is_some() => {}
            Some(EngineMsg::Ack { result: Ok(()) }) => {
                filed.progress += 1;
                if filed.progress == adoption.claims {
                    filed.outcome = Some(Ok(adoption.report.clone()));
                }
            }
            Some(EngineMsg::Ack { result: Err(why) }) => {
                filed.outcome = Some(Err(EngineError::Tx(format!("claim refused: {why}"))));
            }
            _ => self.send_claim(id, dest, bytes),
        }
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
        &mut self,
        dead: u32,
        epoch: u64,
        images: AfterImages,
    ) -> Result<(), EngineError> {
        let base: u32 = self
            .mgr
            .read_committed_key(&instance_seq_uid())?
            .unwrap_or(0);
        let (names, writes) = rekeyed(images, base, |name| self.holds(name))?;
        if names.is_empty() {
            return Ok(());
        }
        let next_id = base + names.len() as u32;
        self.atomically(|mgr, action| {
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
            self.record_event(name, None, 0, kind);
        }
        self.adopt_orphans(Some((dead, epoch)));
        Ok(())
    }

    /// Adopts every instance whose committed state sits in this
    /// shard's store without a resident runtime — the landing half of
    /// a hand-off (a committed one on the destination, an aborted one
    /// back on the source) and of a claim. Unlike crash recovery this
    /// bumps no attempts and re-dispatches nothing: the old owner relays
    /// in-flight executor replies, so the execution history stays
    /// byte-identical to an unmoved run. Watchdogs are re-armed as the
    /// safety net for a relay that never arrives.
    ///
    /// `claim` is `Some((dead shard, membership epoch))` for
    /// crash-driven adoption: the landing trace event is then
    /// [`ObsEventKind::Adopted`] and the `coord.adoptions` counter
    /// ticks once per instance.
    pub(super) fn adopt_orphans(&mut self, claim: Option<(u32, u64)>) {
        // Residents are skipped by name, undecoded: a hand-off sweeps
        // once per chunk, and a sweep must cost only its orphans. So is
        // a slice one of this node's own rounds holds frozen: it is in
        // the store, and not to be woken by a sweep.
        let orphans: Vec<String> = stored_instance_names(&self.mgr)
            .filter(|name| !self.instances.contains_key(name))
            .filter(|name| self.membership.freezing(name).is_none())
            .collect();
        let mut adopted = Vec::new();
        for name in orphans {
            let Ok(header) = self.read_header(&name) else {
                continue;
            };
            let Some(rt) = self.load_or_park(&name, &header) else {
                continue;
            };
            let running = !rt.terminal;
            self.instances.insert(name.clone(), rt);
            if running {
                // An adopted live instance occupies an admission slot
                // on its new shard.
                self.admission.instance_live();
            }
            let kind = match claim {
                Some((from, claim_epoch)) => {
                    self.metrics.stats.adoptions += 1;
                    ObsEventKind::Adopted {
                        from,
                        epoch: claim_epoch,
                    }
                }
                None => ObsEventKind::HandOff {
                    to: self.node.index() as u32,
                    epoch: self.membership.epoch(),
                },
            };
            self.record_event(&name, None, 0, kind);
            adopted.push((name, running));
        }
        for (name, running) in adopted {
            self.rearm_adopted(&name);
            if running {
                // Full re-evaluation: an adopted instance has no
                // commit to seed from. Executing tasks are not
                // re-dispatched — their transitions gate on the
                // control-block state.
                self.evaluate(&name);
            }
        }
    }

    /// The shard map's current epoch on this coordinator.
    pub fn shard_epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Replaces this coordinator's shard map — the final flip of a
    /// rebalance, after every moved instance committed. Requests for
    /// instances the new map assigns elsewhere forward from now on.
    pub fn set_shard_map(&mut self, map: ShardMap) {
        self.membership.shard = map;
        // The new map is authoritative: relay tombstones from the
        // moves that led to this flip are now redundant, and so are the
        // move records a restart would rebuild them from.
        self.membership.moved.clear();
        let settled = self.mgr.uids_with_prefix(keys::MOVE_PREFIX);
        let settled: Vec<StoreKey> = settled.into_iter().map(StoreKey::Uid).collect();
        let _ = self.drop_move_records(&settled);
    }

    /// [`Self::set_shard_map`] for a coordinator that stays behind as a
    /// pure relay (a drained shard retired from the map, or any node
    /// whose relay table may reference departed peers). Instead of
    /// clearing the relay table (and the move records behind it), every
    /// entry pointing at a node the new map no longer carries is
    /// re-pointed at the new map's owner — so a late executor report
    /// forwards straight to the adopter instead of bouncing off a dead
    /// address and burning `forward_loops` hops.
    pub(crate) fn set_shard_map_relay(&mut self, map: ShardMap) {
        let membership = &mut self.membership;
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
    /// this shard at `now`, labeled with the shard's node name rather
    /// than an instance.
    pub(crate) fn record_system_event(&mut self, now: SimTime, label: &str, kind: ObsEventKind) {
        self.now = now;
        self.record_event(label, None, 0, kind);
    }
}

#[cfg(test)]
mod tests {
    use flowscript_tx::SharedStorage;

    use super::*;
    use crate::coordinator::{EngineConfig, Input};
    use crate::driver::Node;
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

    /// One stuck instance's run as `package_instance` lays it out: the
    /// header, the stuck record, the shared source, one fact and one
    /// control block.
    fn run(name: &str, id: u32) -> AfterImages {
        vec![
            (
                meta_uid(name),
                Some(flowscript_codec::to_bytes(&header(id))),
            ),
            (crate::keys::status_uid(name), Some(vec![0])),
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
        let stray = vec![run("i", 3).remove(3)];
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
        let [client, here, owner] = [0, 1, 2].map(NodeId::from_index);
        let map = ShardMap::new(vec![here, owner]);
        let instance = (0..)
            .map(|i| format!("x{i}"))
            .find(|name| map.node_of(name) == owner)
            .expect("some name the map gives the other shard");
        let storage = SharedStorage::new();
        let config = EngineConfig::default();
        let mut coord = Coordinator::open(here, client, Vec::new(), config, storage, map)
            .expect("empty storage opens");
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
        let mut deliver = |msg: EngineMsg, token| {
            let payload = &capped(msg);
            let from = client;
            coord.handle(
                SimTime::ZERO,
                Input::Message {
                    from,
                    payload,
                    token,
                },
            )
        };
        // One-way: dropped.
        assert!(
            deliver(mark, None).is_empty(),
            "nothing may be relayed at the cap"
        );
        // A call: the caller hears why instead of hanging.
        let outputs = deliver(start, Some(ReplyToken::new(here, client, 0)));
        let [Output::Reply { bytes, .. }] = &outputs[..] else {
            panic!("one reply, nothing relayed: {outputs:?}");
        };
        assert!(matches!(
            flowscript_codec::from_bytes::<EngineMsg>(bytes),
            Ok(EngineMsg::Ack { result: Err(_) })
        ));
        let stats = coord.stats();
        assert_eq!((stats.forward_loops, stats.forwarded), (2, 0));
    }
}
