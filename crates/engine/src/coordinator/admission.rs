//! Admission control: the per-shard instance cap on the start RPC.
//! Owned starts run at once under the cap, queue FIFO at it, and are
//! turned away with a typed `Busy` once the queue is full too.

use std::collections::{BTreeMap, VecDeque};

use flowscript_obs::ObsEventKind;
use flowscript_sim::{ReplyToken, SimDuration, World};

use super::CoordHandle;
use crate::msg::EngineMsg;
use crate::value::ObjectVal;

/// One owned `StartInstance` RPC. The client's reply token is held
/// open — across the admission queue, if the shard is at its cap — and
/// the reply (Ack or error) goes out when the start finally runs.
pub(super) struct AdmissionTicket {
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

impl CoordHandle {
    /// Gates one owned `StartInstance` RPC on the admission cap: under
    /// the cap (with nothing already queued ahead) the start runs
    /// immediately; at the cap it parks in the bounded admission
    /// queue, its reply token held open; with the queue also full the
    /// client gets a typed `Busy` to retry with backoff.
    pub(super) fn admit_or_queue(&self, world: &mut World, ticket: AdmissionTicket) {
        let busy = {
            let mut coordinator = self.inner.borrow_mut();
            let queued = coordinator.admission.queue.len();
            match coordinator.config.max_inflight_instances {
                None => None,
                // FIFO fairness: a free slot goes to the queue head,
                // never to a start that arrived after queued ones.
                Some(cap) if coordinator.admission.occupancy() < cap && queued == 0 => None,
                Some(_) if queued < coordinator.config.admission_queue_limit => {
                    coordinator.record_event(
                        ticket.enqueued_ns,
                        &ticket.instance,
                        None,
                        0,
                        ObsEventKind::Parked {
                            queue_depth: queued as u64 + 1,
                        },
                    );
                    coordinator.admission.queue.push_back(ticket);
                    if coordinator.config.observe.metrics() {
                        coordinator
                            .metrics
                            .admission_queue_depth
                            .set(queued as i64 + 1);
                    }
                    return;
                }
                Some(_) => {
                    coordinator.metrics.busy_rejections.inc();
                    Some(queued as u32)
                }
            }
        };
        match busy {
            None => self.on_start_instance(world, ticket),
            Some(queue_depth) => {
                let reply = EngineMsg::Busy { queue_depth };
                world.rpc_reply_to(ticket.token, flowscript_codec::to_bytes(&reply));
            }
        }
    }

    /// Admits queued starts while the shard sits under its cap (called
    /// whenever an instance leaves the live set). Each admitted start
    /// counts toward occupancy from its repository round-trip on, so a
    /// burst of admissions cannot overshoot the cap.
    pub(super) fn admit_from_queue(&self, world: &mut World) {
        loop {
            let ticket = {
                let mut coordinator = self.inner.borrow_mut();
                let Some(cap) = coordinator.config.max_inflight_instances else {
                    return;
                };
                if coordinator.admission.occupancy() >= cap {
                    return;
                }
                let Some(ticket) = coordinator.admission.queue.pop_front() else {
                    return;
                };
                let now_ns = world.now().as_nanos();
                let waited = now_ns.saturating_sub(ticket.enqueued_ns);
                if coordinator.config.observe.metrics() {
                    coordinator.metrics.admission_wait_ns.record(waited);
                    coordinator
                        .metrics
                        .admission_queue_depth
                        .set(coordinator.admission.queue.len() as i64);
                }
                coordinator.record_event(
                    now_ns,
                    &ticket.instance,
                    None,
                    0,
                    ObsEventKind::Admitted { wait_ns: waited },
                );
                ticket
            };
            self.on_start_instance(world, ticket);
        }
    }

    /// Runs one admitted start: fetches the script from the repository,
    /// then compiles and launches, and answers the client either way.
    fn on_start_instance(&self, world: &mut World, ticket: AdmissionTicket) {
        let (node, repo) = {
            let coordinator = self.inner.borrow();
            (coordinator.node, coordinator.repo)
        };
        if self.inner.borrow().holds(&ticket.instance) {
            let reply = EngineMsg::Ack {
                result: Err(format!("instance `{}` already exists", ticket.instance)),
            };
            world.rpc_reply_to(ticket.token, flowscript_codec::to_bytes(&reply));
            return;
        }
        let get = EngineMsg::RepoGet {
            name: ticket.script.clone(),
            version: ticket.version,
        };
        // The start occupies an admission slot for the whole repository
        // round-trip — otherwise a burst of starts all admitted before
        // any instance materializes would blow straight past the cap.
        self.inner.borrow_mut().admission.starting += 1;
        let handle = self.clone();
        world.rpc_call(
            node,
            repo,
            flowscript_codec::to_bytes(&get),
            SimDuration::from_secs(5),
            move |world, reply| {
                {
                    let mut coordinator = handle.inner.borrow_mut();
                    let admission = &mut coordinator.admission;
                    admission.starting = admission.starting.saturating_sub(1);
                }
                let result = match reply {
                    Err(err) => Err(format!("repository unreachable: {err}")),
                    Ok(bytes) => match flowscript_codec::from_bytes::<EngineMsg>(&bytes) {
                        Ok(EngineMsg::RepoReply {
                            result: Ok(_),
                            source,
                            root,
                            plan,
                        }) => {
                            // Use the repository's cached plan when it
                            // decodes AND survives structural +
                            // fingerprint validation (a corrupted plan
                            // must fall back to local lowering, not
                            // panic mid-evaluate).
                            let served = (!plan.is_empty())
                                .then(|| handle.inner.borrow_mut().plan_cache.validated(&plan))
                                .flatten();
                            handle
                                .start_instance(
                                    world,
                                    &ticket.instance,
                                    &ticket.script,
                                    &source,
                                    &root,
                                    &ticket.set,
                                    ticket.inputs,
                                    served,
                                )
                                .map_err(|e| e.to_string())
                        }
                        Ok(EngineMsg::RepoReply {
                            result: Err(err), ..
                        }) => Err(err),
                        _ => Err("malformed repository reply".to_string()),
                    },
                };
                let reply = EngineMsg::Ack { result };
                world.rpc_reply_to(ticket.token, flowscript_codec::to_bytes(&reply));
                // A failed start frees its reserved slot; a successful
                // one may still have room under the cap. Either way the
                // queue head gets another look.
                handle.pump(world);
            },
        );
    }
}
