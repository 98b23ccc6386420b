//! Admission control: the per-shard instance cap on the start RPC.
//! Owned starts run at once under the cap, queue FIFO at it, and are
//! turned away with a typed `Busy` once the queue is full too.
//!
//! An admitted start needs its script version's text. A version's text
//! never changes, so a shard fetches each `(script, version)` from the
//! repository once: the plan cache notes what the answer was, and a
//! later start naming that version launches at once, with no round trip
//! and no slot held across one. A start naming no version (a script the
//! client never registered) or one the shard does not know fetches; a
//! restart forgets every version, and refetches each once.

use std::collections::{BTreeMap, VecDeque};

use flowscript_obs::ObsEventKind;
use flowscript_sim::{ReplyToken, RpcError, SimDuration};

use super::{Call, Coordinator, Output};
use crate::msg::EngineMsg;
use crate::value::ObjectVal;

/// How long an admitted start waits on the repository for its script
/// before it answers the client that the repository is unreachable.
pub(super) const REPOSITORY_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// One owned `StartInstance` RPC. The client's reply token is held
/// open — across the admission queue, if the shard is at its cap — and
/// the reply (Ack or error) goes out when the start finally runs.
#[derive(Debug)]
pub(crate) struct AdmissionTicket {
    pub(super) instance: String,
    pub(super) script: String,
    pub(super) version: Option<u32>,
    pub(super) set: String,
    pub(super) inputs: BTreeMap<String, ObjectVal>,
    pub(super) token: ReplyToken,
    /// Virtual enqueue time (`sched.admission_wait_ns` sample base).
    pub(super) enqueued_ns: u64,
}

/// The admission cap's state: who waits, and how full the shard is.
#[derive(Default)]
pub(super) struct Admission {
    /// `StartInstance` RPCs waiting out the cap, in arrival order.
    /// Bounded by `EngineConfig::admission_queue_limit`.
    queue: VecDeque<AdmissionTicket>,
    /// Live (non-terminal) instances resident on this shard.
    /// Maintained at instance start, terminal transition, stuck/revive,
    /// adoption and hand-off; recounted on recovery.
    live: usize,
    /// Starts past admission but still in their repository round-trip
    /// (counted so a burst cannot overshoot the cap mid-RPC).
    starting: usize,
}

impl Admission {
    /// An instance became live on this shard (started, adopted, or
    /// revived from `Stuck`): it occupies a slot under the cap.
    pub(super) fn instance_live(&mut self) {
        self.live += 1;
    }

    /// A live instance left the shard's live set (completed, went
    /// `Stuck`, or was handed off): its slot frees for a queued start.
    pub(super) fn instance_settled(&mut self) {
        self.live = self.live.saturating_sub(1);
    }

    pub(super) fn occupancy(&self) -> usize {
        self.live + self.starting
    }
}

impl Coordinator {
    /// Gates one owned `StartInstance` RPC on the admission cap: under
    /// the cap (with nothing already queued ahead) the start runs
    /// immediately; at the cap it parks in the bounded admission
    /// queue, its reply token held open; with the queue also full the
    /// client gets a typed `Busy` to retry with backoff.
    pub(super) fn admit_or_queue(&mut self, ticket: AdmissionTicket) {
        let queued = self.admission.queue.len();
        match self.config.max_inflight_instances {
            None => self.on_start_instance(ticket),
            // FIFO fairness: a free slot goes to the queue head, never
            // to a start that arrived after queued ones.
            Some(cap) if self.admission.occupancy() < cap && queued == 0 => {
                self.on_start_instance(ticket);
            }
            Some(_) if queued < self.config.admission_queue_limit => {
                let queue_depth = queued as u64 + 1;
                let kind = ObsEventKind::Parked { queue_depth };
                self.record_event(&ticket.instance, None, 0, kind);
                self.admission.queue.push_back(ticket);
                if self.config.observe.metrics() {
                    self.metrics.admission_queue_depth = queued as i64 + 1;
                }
            }
            Some(_) => {
                self.metrics.stats.busy_rejections += 1;
                let queue_depth = queued as u32;
                self.reply(ticket.token, &EngineMsg::Busy { queue_depth });
            }
        }
    }

    /// Admits queued starts while the shard sits under its cap (called
    /// whenever an instance leaves the live set). Each admitted start
    /// counts toward occupancy from its repository round-trip on, so a
    /// burst of admissions cannot overshoot the cap.
    pub(super) fn admit_from_queue(&mut self) {
        let Some(cap) = self.config.max_inflight_instances else {
            return;
        };
        while self.admission.occupancy() < cap {
            let Some(ticket) = self.admission.queue.pop_front() else {
                return;
            };
            let waited = self.now.as_nanos().saturating_sub(ticket.enqueued_ns);
            if self.config.observe.metrics() {
                self.metrics.admission_wait_ns.record(waited);
                let depth = self.admission.queue.len() as i64;
                self.metrics.admission_queue_depth = depth;
            }
            let kind = ObsEventKind::Admitted { wait_ns: waited };
            self.record_event(&ticket.instance, None, 0, kind);
            self.on_start_instance(ticket);
        }
    }

    /// Runs one admitted start. A version this shard fetched before is
    /// what it was then: the start launches at once off the plan cache's
    /// text, holding no slot across a round trip it does not make (and
    /// reserving none, it pumps nothing: `admit_from_queue`'s loop is
    /// its caller). Any other start fetches its script from the
    /// repository ([`Call::Fetch`]), and the answer launches it.
    fn on_start_instance(&mut self, ticket: AdmissionTicket) {
        if self.holds(&ticket.instance) {
            let reply = EngineMsg::Ack {
                result: Err(format!("instance `{}` already exists", ticket.instance)),
            };
            self.reply(ticket.token, &reply);
            return;
        }
        let known = ticket
            .version
            .and_then(|v| self.plan_cache.version(&ticket.script, v));
        if let Some((hash, source, root)) = known {
            self.launch(ticket, (hash, &source), &root);
            return;
        }
        let get = EngineMsg::RepoGet {
            name: ticket.script.clone(),
            version: ticket.version,
        };
        // The start occupies an admission slot for the whole repository
        // round-trip — otherwise a burst of starts all admitted before
        // any instance materializes would blow straight past the cap.
        self.admission.starting += 1;
        self.outbox.push(Output::Call {
            to: self.repo,
            bytes: flowscript_codec::to_bytes(&get),
            timeout: REPOSITORY_TIMEOUT,
            call: Call::Fetch(Box::new(ticket)),
        });
    }

    /// The repository answered an admitted start's fetch with the
    /// version's source (or did not in time): notes what the version is,
    /// launches the instance, and answers the client either way.
    pub(super) fn on_fetched(
        &mut self,
        ticket: AdmissionTicket,
        answer: Result<Vec<u8>, RpcError>,
    ) {
        self.admission.starting = self.admission.starting.saturating_sub(1);
        let fetched = match answer {
            Err(err) => Err(format!("repository unreachable: {err}")),
            Ok(bytes) => match flowscript_codec::from_bytes::<EngineMsg>(&bytes) {
                Ok(EngineMsg::RepoReply {
                    result: Ok(version),
                    source,
                    root,
                }) => Ok((version, source, root)),
                Ok(EngineMsg::RepoReply {
                    result: Err(err), ..
                }) => Err(err),
                _ => Err("malformed repository reply".to_string()),
            },
        };
        match fetched {
            Ok((version, source, root)) => {
                let hash = self
                    .plan_cache
                    .remember(&ticket.script, version, &source, &root);
                self.launch(ticket, (hash, &source), &root);
            }
            Err(why) => self.reply(ticket.token, &EngineMsg::Ack { result: Err(why) }),
        }
        // A failed start frees its reserved slot; a successful one may
        // still have room under the cap. Either way the queue head gets
        // another look.
        self.pump();
    }

    /// Launches an admitted start off `source`, the text of its script
    /// version with its hash, and answers the client.
    fn launch(&mut self, ticket: AdmissionTicket, source: (u64, &str), root: &str) {
        let (instance, set) = (&ticket.instance, &ticket.set);
        let started = self.start_instance(instance, source, root, set, ticket.inputs);
        let result = started.map_err(|e| e.to_string());
        self.reply(ticket.token, &EngineMsg::Ack { result });
    }
}
