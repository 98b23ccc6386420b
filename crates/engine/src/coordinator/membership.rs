//! Shard membership: who owns an instance, relaying what lands on the
//! wrong shard, and the one way an instance changes shards — a *claim*.
//! The nodes run it themselves, over [`EngineMsg`]s: the façade
//! ([`crate::WorkflowSystem`]) hands ONE node the operator's request
//! ([`Op::Move`](super::Op::Move), [`Op::Adopt`](super::Op::Adopt)), steps the world until that node
//! answers it with its report ([`Report::Moved`], [`Report::Adopted`]),
//! then flips every node's map ([`Op::Map`](super::Op::Map)).
//!
//! **A claim** ([`EngineMsg::Claim`]) carries some instances' committed
//! entries under an id and the epoch it was routed under, sent as a call
//! ([`Call::Claim`]) until answered. Its receiver lands it in ONE local
//! action ([`Coordinator::on_claim`]) that also writes its *receipt*,
//! `sys/claimed/<id>`. A claim whose receipt exists answers `Ok` and
//! commits nothing; one stamped below the receiver's epoch is refused;
//! a name held live is skipped, one frozen in a round of the receiver's
//! own is superseded. An `Err` answer means nothing was committed.
//!
//! **A live move** (rebalance, planned drain) is a claim whose claimant
//! is the source, in rounds of one instance (a rebalance) or up to
//! [`DRAIN_BATCH`] (a drain). The source decides alone: it commits the
//! round's *move record*, `sys/move/<id>` → [`MoveRecord`], and
//! **freezes** the slice — runtimes dropped (watchdogs disarmed, load
//! and admission slots released), every report for it held with the
//! round. It sends the claim every [`RETRANSMIT_INTERVAL`] while the
//! job runs. `Ok` → one action purges the slice and marks the record
//! landed, and the held reports are relayed; `Err` → the record goes and
//! the slice thaws ([`Coordinator::adopt_orphans`], the held reports
//! applied here); silence → the round waits, frozen, for a re-run, a
//! restart or a flip.
//!
//! The move record is the round's outbox and the one record recovery
//! consults ([`Coordinator::repair_handoffs`]): landed, it rebuilds the
//! relay table; unlanded, it keeps its slice frozen and unloaded and
//! sends its claim once. The flip deletes landed records and the
//! receipts of older epochs, and re-addresses each unlanded round.
//!
//! **Crash-driven adoption** is a claim whose claimant is a survivor: it
//! fences the dead shard's storage and sends each new owner its share of
//! the instances in it, [`DRAIN_BATCH`] a claim. The façade flips only
//! once every claim is answered, so a round re-addressed at the flip
//! never lands before a dead destination's newer copy.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use flowscript_obs::ObsEventKind;
use flowscript_sim::{NodeId, ReplyToken, RpcError, SimDuration};
use flowscript_tx::{AtomicAction, StableStore, StoreKey, TxId, TxManager};

use super::package::{claim_bytes, purge_instance, rekeyed};
use super::recovery::Back;
use super::step::Step;
use super::{stored_instance_names, Call, Coordinator, InstanceHeader, Output, Report, TimerId};
use crate::error::EngineError;
use crate::keys::{self, claimed_uid, move_uid};
use crate::msg::{AfterImages, EngineMsg, TaskReport};
use crate::shard::ShardMap;

/// Maximum relays a misdirected message may take before the relay
/// drops it as a routing loop (see [`super::CoordStats::forward_loops`]).
/// One hop resolves any transient single-rebalance disagreement; four
/// leaves slack for stacked membership changes.
pub const MAX_FORWARD_HOPS: u32 = 4;

/// How many instances one drain round moves (and one adoption claim
/// carries): the slice is frozen for the whole round, so its size
/// bounds the per-instance pause while still amortizing the claim
/// across many instances.
pub(crate) const DRAIN_BATCH: usize = 64;

/// How long a node lets a claim go unanswered before it sends it again.
/// Comfortably above a round trip on any link the simulator models, far
/// below a dispatch watchdog.
const RETRANSMIT_INTERVAL: SimDuration = SimDuration::from_millis(5);

/// How long a relayed start waits on its owner before it answers the
/// client that the owning shard is unreachable: above the owner's own
/// [`super::admission::REPOSITORY_TIMEOUT`], so the owner's answer comes
/// first.
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
    /// Rounds that landed: `moved` for a rebalance, far fewer for a
    /// drain, where up to 64 instances share one.
    pub rounds: usize,
    /// Virtual nanoseconds each round's instances were unavailable
    /// (the decision → the destination's answer), in round order. Also
    /// in the source shards' `coord.handoff_pause_ns` histogram. Exact
    /// per seed: the simulator's clock is the only one the engine reads.
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

    /// Folds another source's report, under the same map, into this one.
    pub(crate) fn absorb(&mut self, other: MoveReport) {
        self.epoch = other.epoch;
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

/// `sys/move/<id>` — a round this shard decided, `id` the deciding
/// action's: the outbox its claim is sent from until answered. A landed
/// record is kept until the map flip (a restart rebuilds the relay
/// table from it); a refused one is deleted.
#[derive(Debug, PartialEq, Eq)]
struct MoveRecord {
    /// Destination shard (coordinator node index).
    dest: u32,
    /// The epoch the claim is routed under.
    epoch: u64,
    /// The moving instances' names.
    instances: Vec<String>,
    /// Whether the destination answered `Ok` and the slice is purged.
    landed: bool,
}

impl Encode for MoveRecord {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.dest);
        w.put_u64(self.epoch);
        self.instances.encode(w);
        w.put_bool(self.landed);
    }
}

impl Decode for MoveRecord {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(MoveRecord {
            dest: r.get_u32()?,
            epoch: r.get_u64()?,
            instances: Vec::decode(r)?,
            landed: r.get_bool()?,
        })
    }
}

impl MoveRecord {
    /// The destination's node.
    fn dest_node(&self) -> NodeId {
        NodeId::from_index(self.dest as usize)
    }
}

/// Every move record `mgr` holds committed, by round, oldest first.
fn move_records(mgr: &TxManager<StableStore>) -> Vec<(TxId, MoveRecord)> {
    let uids = mgr.uids_with_prefix(keys::MOVE_PREFIX);
    let records = uids.into_iter().filter_map(|uid| {
        let id = keys::move_id(&uid)?;
        let record = mgr.read_committed_key(&StoreKey::Uid(uid)).ok()??;
        Some((id, record))
    });
    records.collect()
}

/// One unlanded round this node sources: a frozen slice of its store
/// bound for one destination.
struct Round {
    dest: NodeId,
    /// The epoch its claim is stamped with.
    epoch: u64,
    instances: Vec<String>,
    /// Virtual time of the decision — the pause runs from here.
    started_ns: u64,
    /// Reports that arrived for the frozen slice, with their hop counts.
    held: Vec<(TaskReport, u32)>,
    /// Whether a send of its claim still awaits an answer.
    calling: bool,
}

impl Round {
    /// The round's move record.
    fn record(&self, landed: bool) -> MoveRecord {
        MoveRecord {
            dest: self.dest.index() as u32,
            epoch: self.epoch,
            instances: self.instances.clone(),
            landed,
        }
    }
}

/// Stages `record` under round `id`'s key, or its deletion when it
/// names no instance.
fn stage_record(
    mgr: &mut TxManager<StableStore>,
    action: &AtomicAction,
    id: TxId,
    record: &MoveRecord,
) -> Result<(), EngineError> {
    if record.instances.is_empty() {
        mgr.delete_key(action, &move_uid(id))?;
    } else {
        mgr.write_key(action, &move_uid(id), record)?;
    }
    Ok(())
}

/// The move the façade handed this node: the rounds still to run, the
/// one in flight, the tally so far, and this node's name if the move
/// drains it.
struct MoveJob {
    queue: VecDeque<(NodeId, Vec<String>)>,
    current: Option<TxId>,
    report: MoveReport,
    drain: Option<String>,
}

/// The adoption a claimant runs: each claim not yet answered `Ok`, by
/// id, with its destination and bytes, and the report it answers with
/// once none is left — taken when answered, a refusal included.
struct Adoption {
    claims: BTreeMap<TxId, (NodeId, Vec<u8>)>,
    report: Option<FailoverReport>,
}

/// Who owns what, as this coordinator sees it — and the fleet
/// protocols it is currently running.
pub(super) struct Membership {
    /// Instance ownership across all coordinator nodes of the system
    /// (shared verbatim by every shard; requests for instances this
    /// node does not own are forwarded to the owner).
    shard: ShardMap,
    /// Where instances this node handed off went — the dual-delivery
    /// relay table for the window between a round's landing and the
    /// final map flip, when this node's `shard` map still claims
    /// ownership. Volatile, but rebuilt on recovery from the landed
    /// move records; cleared, with them, by the flip
    /// ([`Coordinator::set_shard_map`]), after which the map itself
    /// routes to the new owner.
    moved: BTreeMap<String, NodeId>,
    /// Rounds decided and not yet answered, by move id: the running
    /// job's current one, plus any a cancelled job, a restart or a flip
    /// left unanswered (the next job settles those first).
    rounds: BTreeMap<TxId, Round>,
    job: Option<MoveJob>,
    adoption: Option<Adoption>,
}

impl Membership {
    pub(super) fn new(shard: ShardMap) -> Self {
        Self {
            shard,
            moved: BTreeMap::new(),
            rounds: BTreeMap::new(),
            job: None,
            adoption: None,
        }
    }

    /// The shard map's current epoch (stamped on the membership trace
    /// events).
    pub(super) fn epoch(&self) -> u64 {
        self.shard.epoch()
    }

    /// The protocols died with the process: unlanded rounds come back
    /// from the log ([`Coordinator::repair_handoffs`]), an interrupted
    /// job or adoption is the operator's to run again.
    pub(super) fn reset_protocols(&mut self) {
        self.rounds.clear();
        self.drop_jobs();
    }

    /// [`Op::GiveUp`](super::Op::GiveUp): unanswered rounds stay frozen on the books for
    /// the next job, a restart or a flip to settle.
    pub(super) fn drop_jobs(&mut self) {
        self.job = None;
        self.adoption = None;
    }

    /// A fenced zombie relays nothing: its relay table dies with its
    /// claim on the storage.
    pub(super) fn forget_moves(&mut self) {
        self.moved.clear();
    }

    /// The round that holds `instance` frozen, if one does.
    pub(super) fn freezing(&self, instance: &str) -> Option<TxId> {
        let holds = |round: &Round| round.instances.iter().any(|n| n == instance);
        let (id, _) = self.rounds.iter().find(|(_, round)| holds(round))?;
        Some(*id)
    }
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
        self.dispatcher.release_all(rt.flights)
    }

    /// Deletes `keys` — a refused round's record, or at the flip the
    /// landed records and stale receipts — in one atomic action.
    fn delete_keys(&mut self, keys: &[StoreKey]) -> Result<(), EngineError> {
        if keys.is_empty() {
            return Ok(());
        }
        self.atomically(|mgr, action| {
            for key in keys {
                mgr.delete_key(action, key)?;
            }
            Ok(())
        })
    }

    /// Hand-off crash repair, run by recovery before any instance
    /// loads: one scan of the stored move records. A landed round's
    /// instances live at its destination — their relay entries are
    /// rebuilt (executor replies may still arrive here). An unlanded
    /// round stays decided: its slice stays frozen in the store, and
    /// recovery loads none of it.
    ///
    /// Returns the unlanded rounds, whose claims go out once each when
    /// the instances are back.
    pub(super) fn repair_handoffs(&mut self) -> Vec<TxId> {
        let mut unlanded = Vec::new();
        for (id, record) in move_records(&self.mgr) {
            let dest = record.dest_node();
            if record.landed {
                for instance in record.instances {
                    self.membership.moved.insert(instance, dest);
                }
                continue;
            }
            let round = Round {
                dest,
                epoch: record.epoch,
                instances: record.instances,
                started_ns: self.now.as_nanos(),
                held: Vec::new(),
                calling: false,
            };
            self.membership.rounds.insert(id, round);
            unlanded.push(id);
        }
        unlanded
    }

    /// `Some(owner)` when `instance` belongs to a *different*
    /// coordinator per the shared shard map (the request must be
    /// forwarded), `None` when this node owns it.
    pub(super) fn misdirected(&self, instance: &str) -> Option<NodeId> {
        // Residency beats the map: the instant a claim lands, this node
        // *is* the owner — even while its own map is still the pre-flip
        // one (a crashed destination recovers the landing before any map
        // update reaches it). Without this, the stale map bounces
        // relayed reports straight back at the relayer until the hop cap
        // eats them.
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
    pub(super) fn route_report(&mut self, report: TaskReport, hops: u32) {
        let membership = &mut self.membership;
        let frozen_in = membership.freezing(&report.at.instance);
        if let Some(round) = frozen_in.and_then(|id| membership.rounds.get_mut(&id)) {
            round.held.push((report, hops));
            return;
        }
        match self.misdirected(&report.at.instance) {
            Some(owner) => self.forward_report(owner, report, hops),
            None => self.enqueue_event(report),
        }
    }

    /// Wraps a misdirected message for its relay to `owner`: an
    /// `EngineMsg::Forwarded` carrying the hop count, returned encoded
    /// (the `Forward` trace event names this node's map epoch). A
    /// message that already burned [`MAX_FORWARD_HOPS`] relays is
    /// circling between coordinators whose shard maps disagree — it is
    /// counted (`coord.forward_loops`) and `None` comes back instead of
    /// another bounce. The relay charges only `forwarded`; the owner
    /// counts the operation itself exactly once.
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
            hops: hops + 1,
            inner: flowscript_codec::to_bytes(inner),
        };
        Some(flowscript_codec::to_bytes(&wrapped))
    }

    /// Relays a misdirected report to the owning shard; at the hop cap
    /// it is dropped.
    fn forward_report(&mut self, owner: NodeId, report: TaskReport, hops: u32) {
        let instance = report.at.instance.clone();
        let inner = EngineMsg::Report(report);
        if let Some(bytes) = self.forward_envelope(owner, &instance, &inner, hops) {
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

    /// Instances this shard holds frozen in an unlanded round: committed
    /// here and resident nowhere until the round is answered (a test
    /// hook for the one-owner invariant).
    #[doc(hidden)]
    pub fn frozen_instance_names(&self) -> Vec<String> {
        let rounds = self.membership.rounds.values();
        rounds.flat_map(|round| round.instances.clone()).collect()
    }

    // -----------------------------------------------------------------
    // A live move, source side.
    // -----------------------------------------------------------------

    /// [`Op::Move`](super::Op::Move): moves every instance resident here that `map`
    /// assigns elsewhere — decided against residency, not the old map,
    /// since a crash-recovered shard may hold instances the old map
    /// would misattribute — one round at a time, of one instance for a
    /// rebalance or up to [`DRAIN_BATCH`] per destination for a `drain`
    /// of this shard, which the recorder shows under its name. Each
    /// round that lands is answered [`Report::Progress`], and the report
    /// once the last lands, or as soon as one is refused. Rounds left
    /// unanswered are settled first: their claims go out again now, and
    /// the first new round waits for their answers.
    pub(super) fn begin_move(&mut self, map: &ShardMap, drain: Option<String>) {
        if let Some(name) = &drain {
            let remaining = self.instances.len() as u64;
            self.record_event(name, None, 0, ObsEventKind::DrainBegin { remaining });
        }
        let limit = if drain.is_some() { DRAIN_BATCH } else { 1 };
        let mut by_dest: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
        for instance in self.instances.keys() {
            let owner = map.node_of(instance);
            if owner != self.node {
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
        let membership = &mut self.membership;
        membership.job = Some(MoveJob {
            queue,
            current: None,
            report,
            drain,
        });
        let unsettled: Vec<TxId> = membership.rounds.keys().copied().collect();
        for id in unsettled {
            self.send_claim(id);
        }
        self.advance();
    }

    /// Ends the running job with `outcome`, answered with its report
    /// (a drain's end recorded beside it).
    fn finish_job(&mut self, outcome: Result<(), EngineError>) {
        let Some(job) = self.membership.job.take() else {
            return;
        };
        if let (Ok(()), Some(name)) = (&outcome, &job.drain) {
            let (moved, rounds) = (job.report.moved as u64, job.report.rounds as u64);
            self.record_event(name, None, 0, ObsEventKind::DrainEnd { moved, rounds });
        }
        self.answer(outcome.map(|()| Report::Moved(job.report)));
    }

    /// Starts the job's next round once nothing is in flight, or
    /// finishes the job when none is left.
    fn advance(&mut self) {
        let membership = &mut self.membership;
        let idle = membership.rounds.is_empty();
        let next = match membership.job.as_mut() {
            Some(job) if idle => job.queue.pop_front().map(|next| (next, job.report.epoch)),
            _ => return,
        };
        let outcome = match next {
            Some(((dest, instances), epoch)) => match self.start_round(dest, epoch, instances) {
                Ok(()) => return,
                Err(err) => Err(err),
            },
            None => Ok(()),
        };
        self.finish_job(outcome);
    }

    /// The decision, taken alone: flushes the commit window (the claim
    /// must carry the whole committed truth — no report may be stranded
    /// in memory), commits the round's move record, freezes the slice
    /// and sends its claim.
    fn start_round(
        &mut self,
        dest: NodeId,
        epoch: u64,
        instances: Vec<String>,
    ) -> Result<(), EngineError> {
        self.flush_pending();
        let round = Round {
            dest,
            epoch,
            instances,
            started_ns: self.now.as_nanos(),
            held: Vec::new(),
            calling: false,
        };
        let id = self.atomically(|mgr, action| {
            mgr.write_key(action, &move_uid(action.id()), &round.record(false))?;
            Ok(action.id())
        })?;
        let watchdogs: Vec<TimerId> = round
            .instances
            .iter()
            .flat_map(|instance| self.drop_runtime(instance))
            .collect();
        self.cancel(watchdogs);
        let membership = &mut self.membership;
        membership.rounds.insert(id, round);
        if let Some(job) = &mut membership.job {
            job.current = Some(id);
        }
        self.send_claim(id);
        // Freed executor load and freed admission slots: parked
        // dispatches of other instances may now place, and queued
        // starts may now admit.
        self.pump();
        Ok(())
    }

    /// Sends claim `id` as a call ([`Call::Claim`]), answered within an
    /// interval or not: a round's packaged from what the store holds,
    /// unless one of its sends still awaits an answer; an adoption's
    /// as it was packaged.
    pub(super) fn send_claim(&mut self, id: TxId) {
        let (to, bytes) = if let Some(round) = self.membership.rounds.get_mut(&id) {
            if std::mem::replace(&mut round.calling, true) {
                return;
            }
            let bytes = claim_bytes(&self.mgr, id, round.epoch, false, &round.instances);
            (round.dest, bytes)
        } else {
            let adoption = self.membership.adoption.as_ref();
            let Some((to, bytes)) = adoption.and_then(|adoption| adoption.claims.get(&id)) else {
                return;
            };
            (*to, bytes.clone())
        };
        self.outbox.push(Output::Call {
            to,
            bytes,
            timeout: RETRANSMIT_INTERVAL,
            call: Call::Claim(id),
        });
    }

    /// Claim `id` was answered, or not in time. A round lands on `Ok`,
    /// thaws on `Err`, and is sent again on silence while a job runs.
    /// An adoption's claim is counted off on `Ok` — answered as
    /// progress, the last followed by the report — answers the refusal
    /// on `Err`, and is sent again on silence. Once the adoption is
    /// answered, an answer counts for nothing.
    pub(super) fn on_claim_answered(&mut self, id: TxId, answer: Result<Vec<u8>, RpcError>) {
        let answer = answer
            .ok()
            .and_then(|bytes| flowscript_codec::from_bytes::<EngineMsg>(&bytes).ok());
        let result = match answer {
            Some(EngineMsg::Ack { result }) => Some(result),
            _ => None,
        };
        if let Some(round) = self.membership.rounds.get_mut(&id) {
            round.calling = false;
            return match result {
                Some(Ok(())) => self.land_round(id),
                Some(Err(why)) => self.refuse_round(id, &why),
                None if self.membership.job.is_some() => self.send_claim(id),
                None => {}
            };
        }
        let adoption = self.membership.adoption.as_mut();
        let Some(adoption) = adoption.filter(|adoption| adoption.claims.contains_key(&id)) else {
            return;
        };
        let answering = adoption.report.is_some();
        let answer = match result {
            None => return self.send_claim(id),
            Some(Ok(())) => {
                adoption.claims.remove(&id);
                Ok(Report::Progress)
            }
            Some(Err(why)) => {
                adoption.report = None;
                Err(EngineError::Tx(format!("claim refused: {why}")))
            }
        };
        let last = adoption.report.take_if(|_| adoption.claims.is_empty());
        if answering {
            self.answer(answer);
        }
        if let Some(report) = last {
            self.answer(Ok(Report::Adopted(report)));
        }
    }

    /// `Ok`: the destination holds the slice. One action purges it here
    /// and marks the record landed; then what was held is relayed, the
    /// pause recorded and the move counted, and the job moves on. A log
    /// that refuses the action leaves the round frozen: the job reports
    /// why, and the claim's next answer — its receipt's — lands it.
    fn land_round(&mut self, id: TxId) {
        let Some(round) = self.membership.rounds.remove(&id) else {
            return;
        };
        let record = round.record(true);
        let landed = self.atomically(|mgr, action| {
            let purge = |instance: &String| purge_instance(mgr, action, instance);
            record.instances.iter().try_for_each(purge)?;
            Ok(mgr.write_key(action, &move_uid(id), &record)?)
        });
        if let Err(err) = landed {
            self.membership.rounds.insert(id, round);
            return self.finish_job(Err(err));
        }
        let pause_ns = self.now.as_nanos() - round.started_ns;
        self.metrics.handoff_pause_ns.record(pause_ns);
        let epoch = self.membership.epoch();
        for instance in &round.instances {
            self.metrics.stats.handoffs += 1;
            let kind = ObsEventKind::HandOff {
                to: record.dest,
                epoch,
            };
            self.record_event(instance, None, 0, kind);
            self.membership.moved.insert(instance.clone(), round.dest);
        }
        for (report, hops) in round.held {
            self.forward_report(round.dest, report, hops);
        }
        let job = self.membership.job.as_mut();
        if let Some(job) = job.filter(|job| job.current == Some(id)) {
            job.current = None;
            job.report.moved += round.instances.len();
            job.report.rounds += 1;
            job.report.pause_ns.push(pause_ns);
            self.answer(Ok(Report::Progress));
        }
        self.advance();
    }

    /// `Err`: the destination committed nothing. The record goes and
    /// the slice thaws where it is; the job reports the refusal, as it
    /// does any refused round of its own. A log that refuses the
    /// record's deletion leaves the round frozen, to be claimed again.
    fn refuse_round(&mut self, id: TxId, why: &str) {
        if let Err(err) = self.delete_keys(&[move_uid(id)]) {
            return self.finish_job(Err(err));
        }
        let Some(round) = self.membership.rounds.remove(&id) else {
            return;
        };
        self.adopt_orphans(None);
        self.reroute(round.held);
        let ours = self.membership.job.as_ref().map(|job| job.current) == Some(Some(id));
        if !ours {
            return self.advance();
        }
        self.finish_job(Err(EngineError::Tx(format!(
            "hand-off of {} instance(s) to {} refused: {why}; they stay where they were",
            round.instances.len(),
            round.dest
        ))));
    }

    /// Routes again, in arrival order, reports a round held for names
    /// that have since left it: held by the round that now holds the
    /// name, applied where it thawed or landed.
    fn reroute(&mut self, held: Vec<(TaskReport, u32)>) {
        for (report, hops) in held {
            self.route_report(report, hops);
        }
    }

    // -----------------------------------------------------------------
    // A claim, at its destination.
    // -----------------------------------------------------------------

    /// A claim arriving at its destination: commits the packaged
    /// instances under freshly allocated ids — a contiguous range from
    /// the shard's next free id — beside the claim's receipt, in ONE
    /// atomic action, and adopts them. `fenced`: a claimant sent it out
    /// of a dead shard's storage. A claim whose receipt exists commits
    /// nothing; one stamped below this shard's epoch is refused. An
    /// instance held live is skipped; one a round of this shard holds
    /// frozen is superseded — the same action purges the frozen copy and
    /// rewrites the round's record without it.
    ///
    /// # Errors
    ///
    /// A stale epoch, a malformed package, or storage failure on the
    /// commit: nothing is committed.
    pub(super) fn on_claim(
        &mut self,
        id: TxId,
        epoch: u64,
        fenced: bool,
        images: AfterImages,
    ) -> Result<(), EngineError> {
        if self.mgr.exists_key(&claimed_uid(id)) {
            return Ok(());
        }
        let installed = self.membership.epoch();
        if epoch < installed {
            return Err(EngineError::Tx(format!(
                "claim routed under epoch {epoch}, below this shard's {installed}: stale"
            )));
        }
        let base = self.next_id;
        let live = |name: &str| self.holds(name) && self.membership.freezing(name).is_none();
        let (names, writes) = rekeyed(images, base, live)?;
        // A landing name held here at all is frozen in a round: that
        // round keeps the rest of its names, or goes when none is left.
        let superseded: Vec<(TxId, &String)> = names
            .iter()
            .filter_map(|name| Some((self.membership.freezing(name)?, name)))
            .collect();
        let shrunk: BTreeMap<TxId, MoveRecord> = superseded
            .iter()
            .map(|&(round_id, _)| {
                let mut record = self.membership.rounds[&round_id].record(false);
                record.instances.retain(|name| !names.contains(name));
                (round_id, record)
            })
            .collect();
        self.atomically(|mgr, action| {
            for (_, name) in &superseded {
                purge_instance(mgr, action, name)?;
            }
            for (round_id, record) in &shrunk {
                stage_record(mgr, action, *round_id, record)?;
            }
            mgr.write_key(action, &claimed_uid(id), &epoch)?;
            // (A package carries no tombstones; one that does has
            // nothing to delete here.)
            for (key, bytes) in writes {
                if let Some(bytes) = bytes {
                    mgr.write_key_raw(action, &key, bytes)?;
                }
            }
            Ok(())
        })?;
        self.next_id = base + names.len() as u32;
        let mut held = Vec::new();
        for (round_id, record) in shrunk {
            let rounds = &mut self.membership.rounds;
            let round = rounds.get_mut(&round_id).expect("it froze a name");
            held.append(&mut round.held);
            round.instances = record.instances;
            if round.instances.is_empty() {
                rounds.remove(&round_id);
            }
        }
        if fenced {
            for name in &names {
                let kind = ObsEventKind::Claim {
                    from: id.node(),
                    epoch,
                };
                self.record_event(name, None, 0, kind);
            }
        }
        self.adopt_orphans(fenced.then_some((id.node(), epoch)));
        self.reroute(held);
        // A job whose round emptied moves on.
        self.advance();
        Ok(())
    }

    /// Adopts every instance whose committed state sits in this
    /// shard's store without a resident runtime — the landing half of
    /// a claim, and the thaw of a slice no round holds any more — loaded
    /// and resumed as a restart's are ([`Coordinator::resume`]). A live
    /// landing or a thaw bumps no attempts and re-dispatches nothing:
    /// the old owner relays in-flight executor replies, so the execution
    /// history stays byte-identical to an unmoved run. Watchdogs are
    /// re-armed as the safety net for a relay that never arrives.
    ///
    /// `claim` is `Some((dead shard, membership epoch))` for
    /// crash-driven adoption: a dead or fenced owner relays nothing, so
    /// every executing task is re-sent at once under the attempt its
    /// block holds — its running copy reports to the dead node, so a
    /// census could not claim it — and whichever report of it lands
    /// first is applied; the landing trace event is
    /// [`ObsEventKind::Adopted`] and the `coord.adoptions` counter
    /// ticks once per instance.
    pub(super) fn adopt_orphans(&mut self, claim: Option<(u32, u64)>) {
        // Residents are skipped by name, undecoded: a landing sweeps once
        // per claim, and a sweep must cost only its orphans. So is a
        // slice one of this node's own rounds holds frozen: it is in the
        // store, and not to be woken by a sweep.
        let orphans: Vec<(String, InstanceHeader)> = stored_instance_names(&self.mgr)
            .filter(|name| !self.instances.contains_key(name))
            .filter(|name| self.membership.freezing(name).is_none())
            .filter_map(|name| {
                let header = self.read_header(&name).ok()?;
                Some((name, header))
            })
            .collect();
        let loaded = self.load_stored(orphans, Back::Landed(claim));
        self.resume(loaded, Back::Landed(claim));
    }

    // -----------------------------------------------------------------
    // Crash-driven adoption.
    // -----------------------------------------------------------------

    /// [`Op::Adopt`](super::Op::Adopt), on the claimant: reopens
    /// the dead shard's surviving storage under this node's identity
    /// and stamps the fence — from that append on the dead shard's own
    /// manager can never commit again, the claimed copies are the
    /// truth — then packages every instance in it and sends each owner
    /// under `map` its share, [`DRAIN_BATCH`] instances a claim. A round
    /// the dead shard left unlanded goes whole, under its own id, to its
    /// destination when `map` keeps it: if the destination landed it,
    /// the receipt answers. Each claim answered `Ok` is answered
    /// [`Report::Progress`], and the report once none is left; the
    /// refusal at once if the storage does not replay, or carries a
    /// foreign fence (another claimant got there first).
    pub(super) fn begin_adoption(
        &mut self,
        dead_storage: StableStore,
        dead: NodeId,
        map: &ShardMap,
    ) {
        let (dead, epoch) = (dead.index() as u32, map.epoch());
        let fenced = TxManager::open(self.node.index() as u32, dead_storage)
            .and_then(|mut mgr| mgr.write_fence(epoch).map(|()| mgr));
        let mut mgr = match fenced {
            Ok(mgr) => mgr,
            Err(err) => return self.answer(Err(err.into())),
        };
        let mut rounds = move_records(&mgr);
        rounds.retain(|(_, r)| !r.landed && map.nodes().contains(&r.dest_node()));
        let in_rounds: BTreeSet<&String> = rounds.iter().flat_map(|(_, r)| &r.instances).collect();
        let mut shares: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
        for instance in stored_instance_names(&mgr).filter(|n| !in_rounds.contains(&n)) {
            shares
                .entry(map.node_of(&instance))
                .or_default()
                .push(instance);
        }
        // Ids the dead shard never minted: its log's next sequence
        // number on (the fence carries none, so a re-run mints the
        // same ones).
        let first = Step::default().action(&mut mgr).id().seq();
        let chunks = shares
            .iter()
            .flat_map(|(&dest, names)| names.chunks(DRAIN_BATCH).map(move |c| (dest, c)));
        let ids = (first..).map(|seq| TxId::new(dead, seq));
        let left = rounds
            .iter()
            .map(|(id, r)| ((r.dest_node(), &r.instances[..]), *id));
        let (mut claims, mut order, mut adopted) = (BTreeMap::new(), Vec::new(), 0);
        for ((dest, names), id) in chunks.zip(ids).chain(left) {
            adopted += names.len();
            order.push(id);
            claims.insert(id, (dest, claim_bytes(&mgr, id, epoch, true, names)));
        }
        let report = FailoverReport {
            adopted,
            epoch,
            claimant: self.node.index() as u32,
        };
        if order.is_empty() {
            self.answer(Ok(Report::Adopted(report.clone())));
        }
        let report = (!order.is_empty()).then_some(report);
        self.membership.adoption = Some(Adoption { claims, report });
        for id in order {
            self.send_claim(id);
        }
    }

    // -----------------------------------------------------------------
    // The map.
    // -----------------------------------------------------------------

    /// The shard map's current epoch on this coordinator.
    pub fn shard_epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// [`Op::Map`](super::Op::Map), the flip: installs `map` — the last step of a
    /// rebalance, a drain or an adoption, once each of its rounds and
    /// claims is answered. Requests for instances the new map assigns
    /// elsewhere forward from now on. The relay table goes, and so do
    /// the landed move records a restart would rebuild it from and the
    /// receipts of claims routed under an older epoch (a claim that old
    /// is refused as stale). Each round still unlanded is re-addressed
    /// ([`Self::readdress`]).
    ///
    /// A map that omits this shard retires it (a drain, a failover): it
    /// stays behind as a pure relay, its relay table kept, and every
    /// entry pointing at a node the map no longer carries re-pointed at
    /// the map's owner — so a late executor report forwards straight to
    /// the adopter instead of bouncing off a dead address and burning
    /// `forward_loops` hops. Answered the log's refusal to delete what
    /// the flip settled, which the next flip deletes.
    pub(super) fn set_shard_map(&mut self, map: ShardMap) -> Result<(), EngineError> {
        if !map.nodes().contains(&self.node) {
            for (instance, dest) in &mut self.membership.moved {
                if !map.nodes().contains(dest) {
                    *dest = map.node_of(instance);
                }
            }
            self.membership.shard = map;
            return Ok(());
        }
        let epoch = map.epoch();
        self.membership.shard = map;
        self.membership.moved.clear();
        let records = move_records(&self.mgr).into_iter();
        let landed = records.filter(|(_, record)| record.landed);
        let receipts = self.mgr.uids_with_prefix(keys::CLAIMED_PREFIX);
        let stale = receipts.into_iter().map(StoreKey::Uid).filter(|key| {
            let stamped = self.mgr.read_committed_key::<u64>(key);
            matches!(stamped, Ok(Some(stamped)) if stamped < epoch)
        });
        let settled: Vec<StoreKey> = landed.map(|(id, _)| move_uid(id)).chain(stale).collect();
        let deleted = self.delete_keys(&settled);
        let unlanded: Vec<TxId> = self.membership.rounds.keys().copied().collect();
        for id in unlanded {
            self.readdress(id);
        }
        deleted
    }

    /// Re-addresses unlanded round `id` under the installed map, each
    /// claim stamped with its epoch and sent once: the names stay with
    /// the round's destination if the map keeps it, else go to their new
    /// owners — each owner's share a round of its own, its record written
    /// in the action that takes those names off this one — and the names
    /// the map now gives this shard thaw. A log that refuses an action
    /// leaves what is left of the round frozen.
    fn readdress(&mut self, id: TxId) {
        let Some(mut round) = self.membership.rounds.remove(&id) else {
            return;
        };
        let map = &self.membership.shard;
        let (epoch, kept) = (map.epoch(), map.nodes().contains(&round.dest));
        let mut shares: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
        for name in &round.instances {
            let owner = if kept { round.dest } else { map.node_of(name) };
            shares.entry(owner).or_default().push(name.clone());
        }
        shares.remove(&self.node);
        let mut refused = false;
        for (dest, instances) in shares {
            let share = Round {
                dest,
                epoch,
                instances,
                started_ns: round.started_ns,
                held: Vec::new(),
                calling: false,
            };
            let mut rest = round.record(false);
            rest.instances
                .retain(|name| !share.instances.contains(name));
            let split = self.atomically(|mgr, action| {
                mgr.write_key(action, &move_uid(action.id()), &share.record(false))?;
                stage_record(mgr, action, id, &rest)?;
                Ok(action.id())
            });
            let Ok(share_id) = split else {
                refused = true;
                break;
            };
            round.instances = rest.instances;
            self.membership.rounds.insert(share_id, share);
            self.send_claim(share_id);
        }
        let held = std::mem::take(&mut round.held);
        if !round.instances.is_empty() {
            // What is left, the map gives this shard.
            if refused || self.delete_keys(&[move_uid(id)]).is_err() {
                self.membership.rounds.insert(id, round);
            } else {
                self.adopt_orphans(None);
            }
        }
        self.reroute(held);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use flowscript_sim::SimTime;
    use flowscript_tx::{FactKey, SharedStorage};

    use super::*;
    use crate::api::WorkflowSystem;
    use crate::coordinator::meta::source_hash;
    use crate::coordinator::package::package_instance;
    use crate::coordinator::{EngineConfig, Input, InstanceHeader};
    use crate::driver::{Driver, Node};
    use crate::keys::meta_uid;
    use crate::msg::{Attempt, TaskResult};
    use crate::{ObjectVal, TaskBehavior};

    /// `shards` shards serving the quickstart pipeline, whose `produce`
    /// works 50 ms.
    fn quickstart(shards: usize) -> WorkflowSystem {
        let mut sys = WorkflowSystem::builder()
            .executors(1)
            .coordinators(shards)
            .seed(7)
            .build();
        let source = flowscript_core::samples::QUICKSTART;
        sys.register_script("quickstart", source, "pipeline")
            .unwrap();
        sys.bind_fn("refProduce", |_| {
            TaskBehavior::outcome("produced")
                .with_work(SimDuration::from_millis(50))
                .with_object("message", ObjectVal::text("Message", "m"))
        });
        sys.bind_fn("refConsume", |_| {
            TaskBehavior::outcome("consumed").with_object("result", ObjectVal::text("Message", "r"))
        });
        sys
    }

    /// The first `n` names `q0`, `q1`, … the map gives `shard`.
    fn names_on(sys: &WorkflowSystem, shard: usize, n: usize) -> Vec<String> {
        let names = (0..).map(|i| format!("q{i}"));
        names
            .filter(|name| sys.shard_of(name) == shard)
            .take(n)
            .collect()
    }

    /// The pipeline's input objects.
    fn seed() -> BTreeMap<String, ObjectVal> {
        BTreeMap::from([("seed".to_string(), ObjectVal::text("Message", "s"))])
    }

    /// Two shards and `q`, a quickstart pipeline shard 0 owns, run 10 ms
    /// into its 50 ms `produce`: the shards, and the instance's name.
    fn one_running_instance() -> (WorkflowSystem, [Driver<Coordinator>; 2], String) {
        let mut sys = quickstart(2);
        let name = names_on(&sys, 0, 1).remove(0);
        sys.start(&name, "quickstart", "main", seed()).unwrap();
        sys.run_for(SimDuration::from_millis(10));
        let shards = [sys.coord_handle(0), sys.coord_handle(1)];
        (sys, shards, name)
    }

    /// The id of every instance `coord` stores, by name — asserting that
    /// no two share one, that a resident runtime keys its facts by its
    /// header's, and that every fact key in the store lies in the range
    /// of one of them: an instance can neither share nor inherit facts.
    fn ids_by_instance(coord: &Coordinator) -> BTreeMap<String, u32> {
        let stored = crate::coordinator::stored_instances(&coord.mgr);
        let ids: BTreeMap<String, u32> = stored
            .into_iter()
            .map(|(name, header)| (name, header.instance_id))
            .collect();
        let distinct: BTreeSet<u32> = ids.values().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "an id is shared: {ids:?}");
        for (name, rt) in &coord.instances {
            assert_eq!(Some(&rt.id), ids.get(name), "`{name}`");
        }
        let (lo, hi) = (FactKey::instance_first(0), FactKey::instance_last(u32::MAX));
        for key in coord.mgr.fact_keys_in_range(lo, hi) {
            assert!(distinct.contains(&key.instance), "`{key}` is nobody's");
        }
        ids
    }

    #[test]
    fn a_restart_after_the_highest_id_left_gives_it_to_one_instance() {
        let mut sys = quickstart(2);
        let names = names_on(&sys, 0, 4);
        for name in &names[..3] {
            sys.start(name, "quickstart", "main", seed()).unwrap();
        }
        sys.run_for(SimDuration::from_millis(10));
        let shard = sys.coord_handle(0);
        let gone = &names[2];
        {
            let mut source = shard.get_mut();
            assert_eq!(ids_by_instance(&source)[gone], 2, "the highest id");
            // What a source does once its round landed: the runtime
            // goes, and one action purges the slice.
            let _ = source.drop_runtime(gone);
            source
                .atomically(|mgr, action| purge_instance(mgr, action, gone))
                .unwrap();
        }
        let node = shard.get().node;
        sys.crash_now(node);
        sys.restart_now(node);
        sys.start(&names[3], "quickstart", "main", seed()).unwrap();
        let ids = ids_by_instance(&shard.get());
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[&names[3]], 2, "the purged id is free again");
        sys.run();
        for name in [&names[0], &names[1], &names[3]] {
            assert!(sys.outcome(name).is_some(), "{name} completes");
        }
    }

    #[test]
    fn starts_around_a_claim_landing_take_ids_of_their_own() {
        let (_sys, [source, dest], name) = one_running_instance();
        let writes = package_instance(&source.get().mgr, &name).expect("stored");
        let id = TxId::new(source.get().node.index() as u32, 1_000);
        let mut dest = dest.get_mut();
        let epoch = dest.membership.epoch();
        let text = flowscript_core::samples::QUICKSTART;
        let start = |dest: &mut Coordinator, instance: &str| {
            dest.start_instance(
                instance,
                (source_hash(text), text),
                "pipeline",
                "main",
                seed(),
            )
            .expect("starts");
        };
        start(&mut dest, "before");
        dest.on_claim(id, epoch, false, writes).expect("lands");
        start(&mut dest, "after");
        let ids = ids_by_instance(&dest);
        let order: Vec<u32> = ["before", name.as_str(), "after"]
            .iter()
            .map(|name| ids[*name])
            .collect();
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn an_adoption_onto_a_shard_with_live_instances_takes_fresh_ids() {
        let mut sys = quickstart(2);
        let names = [names_on(&sys, 0, 3), names_on(&sys, 1, 3)].concat();
        for name in &names {
            sys.start(name, "quickstart", "main", seed()).unwrap();
        }
        sys.run_for(SimDuration::from_millis(10));
        let dead = sys.coord_handle(1).get().node;
        sys.crash_now(dead);
        let report = sys.adopt_dead_shard("coordinator1").expect("failover");
        assert_eq!(report.adopted, 3);
        let ids = ids_by_instance(&sys.coord_handle(0).get());
        assert_eq!(ids.len(), names.len(), "every instance on the survivor");
        sys.run();
        for name in &names {
            assert!(sys.outcome(name).is_some(), "{name} completes");
        }
    }

    /// A claim delivered again after its instance moved on from the
    /// receiver is answered `Ok` by its receipt and lands nothing — even
    /// stamped below the receiver's epoch, since the receipt comes first.
    #[test]
    fn a_claim_delivered_again_after_its_instance_moved_on_lands_nothing() {
        let (_sys, [source, dest], name) = one_running_instance();
        let writes = package_instance(&source.get().mgr, &name).expect("stored");
        let id = TxId::new(source.get().node.index() as u32, 1_000);
        let mut dest = dest.get_mut();
        let epoch = dest.membership.epoch();
        dest.on_claim(id, epoch, false, writes.clone())
            .expect("the first delivery lands");
        assert!(dest.instances.contains_key(&name));
        // It moves on: this shard purges it, as a landed round does.
        let _ = dest.drop_runtime(&name);
        dest.atomically(|mgr, action| purge_instance(mgr, action, &name))
            .unwrap();
        let log = dest.log_size();
        for stamped in [epoch, epoch - 1] {
            dest.on_claim(id, stamped, false, writes.clone())
                .expect("answered by the receipt");
        }
        assert_eq!(dest.log_size(), log, "nothing committed");
        assert!(!dest.holds(&name), "nothing landed");
    }

    /// A claim stamped below the receiver's epoch is refused, having
    /// committed nothing.
    #[test]
    fn a_claim_below_the_installed_epoch_commits_nothing() {
        let (_sys, [source, dest], name) = one_running_instance();
        let writes = package_instance(&source.get().mgr, &name).expect("stored");
        let id = TxId::new(source.get().node.index() as u32, 1_000);
        let mut dest = dest.get_mut();
        let stale = dest.membership.epoch() - 1;
        let log = dest.log_size();
        let refused = dest.on_claim(id, stale, false, writes);
        assert!(
            matches!(&refused, Err(EngineError::Tx(why)) if why.contains("stale")),
            "{refused:?}"
        );
        assert_eq!(dest.log_size(), log, "nothing committed");
        assert!(!dest.holds(&name) && !dest.mgr.exists_key(&claimed_uid(id)));
    }

    /// An adoption claim naming an instance a round of the receiver's
    /// own holds frozen supersedes the frozen copy: one action purges it
    /// and deletes the emptied round's record, and the claimed copy
    /// lands, loads and counts as adopted.
    #[test]
    fn an_adoption_claim_naming_a_frozen_copy_supersedes_it() {
        let (_sys, [source, dest], name) = one_running_instance();
        let mut source = source.get_mut();
        let epoch = source.membership.epoch();
        source
            .start_round(dest.get().node, epoch, vec![name.clone()])
            .expect("decided");
        assert_eq!(source.frozen_instance_names(), std::slice::from_ref(&name));
        let frozen: InstanceHeader = source
            .mgr
            .read_committed_key(&meta_uid(&name))
            .unwrap()
            .unwrap();
        // The copy a dead destination's claimant sends back.
        let writes = package_instance(&source.mgr, &name).expect("stored");
        source
            .on_claim(TxId::new(9, 1), epoch, true, writes)
            .expect("lands");
        assert!(
            source.frozen_instance_names().is_empty(),
            "the round let go"
        );
        assert!(move_records(&source.mgr).is_empty(), "its record went too");
        assert!(
            source.instances.contains_key(&name),
            "the claimed copy loaded"
        );
        let landed: InstanceHeader = source
            .mgr
            .read_committed_key(&meta_uid(&name))
            .unwrap()
            .unwrap();
        assert_ne!(landed.instance_id, frozen.instance_id);
        let old = source.mgr.fact_keys_in_range(
            FactKey::instance_first(frozen.instance_id),
            FactKey::instance_last(frozen.instance_id),
        );
        assert!(old.is_empty(), "the frozen copy is purged: {old:?}");
        assert_eq!(source.stats().adoptions, 1);
    }

    #[test]
    fn move_record_codec_roundtrip() {
        let record = MoveRecord {
            dest: 2,
            epoch: 7,
            instances: vec!["order-3".into(), "order-p128/kid".into()],
            landed: true,
        };
        let bytes = flowscript_codec::to_bytes(&record);
        assert_eq!(
            flowscript_codec::from_bytes::<MoveRecord>(&bytes).unwrap(),
            record
        );
        assert!(flowscript_codec::from_bytes::<MoveRecord>(&bytes[..bytes.len() - 1]).is_err());
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
                hops: MAX_FORWARD_HOPS,
                inner: flowscript_codec::to_bytes(&inner),
            })
        };
        let mark = EngineMsg::Report(TaskReport {
            at: Attempt {
                instance: instance.clone(),
                path: "t".into(),
                incarnation: 0,
                attempt: 0,
            },
            ticket: 0,
            result: TaskResult::Mark {
                name: "m".into(),
                objects: BTreeMap::new(),
            },
        });
        let start = EngineMsg::StartInstance {
            instance,
            script: "s".into(),
            version: None,
            set: "main".into(),
            inputs: BTreeMap::new(),
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
