//! Wire messages between the engine's services (codec-framed over the
//! simulated network — the IIOP of our Fig. 4).
//!
//! A shard and an executor speak of one [`Attempt`] of a task, named
//! and encoded one way (paper §3, fig. 3): the shard ships it in a
//! [`StartTask`] under a ticket, cancels it by that ticket, and after a
//! restart asks what still runs ([`EngineMsg::Census`]); the executor
//! sends each mark and then the completion as one [`TaskReport`], under
//! the ticket of the copy that sent it.

use std::collections::BTreeMap;
use std::sync::Arc;

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use flowscript_sim::SimDuration;
use flowscript_tx::{StoreKey, TxId};

use crate::value::{ObjectRef, ObjectVal};

/// A run of after-images: `(key, new bytes or tombstone)` pairs — what
/// a claim carries, as its sender keyed them.
pub type AfterImages = Vec<(StoreKey, Option<Vec<u8>>)>;

/// One attempt of a task, as a shard ships it and every report of it
/// comes back: the address the shard–executor protocol names it by. Its
/// names are shared: a shard addresses an attempt with its resident
/// instance's name and its plan's path, copying neither.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attempt {
    /// Instance name.
    pub instance: Arc<str>,
    /// Task path within the instance.
    pub path: Arc<str>,
    /// Scope incarnation (stale replies are discarded by this).
    pub incarnation: u32,
    /// Dispatch attempt number.
    pub attempt: u32,
}

/// Coordinator → executor: run a task implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct StartTask {
    /// The attempt shipped.
    pub at: Attempt,
    /// The dispatching shard's ticket for this copy of the attempt: what
    /// an [`EngineMsg::Cancel`] names it by, and what its reports carry.
    /// Never stored.
    pub ticket: u64,
    /// The task's implementation clause: the name to bind under
    /// `"code"`, and its hints (deadline, priority, …).
    pub implementation: BTreeMap<String, String>,
    /// The bound input set's name.
    pub set: String,
    /// The bound input objects.
    pub inputs: BTreeMap<String, ObjectVal>,
    /// Objects carried over from a repeat outcome, if re-executing.
    pub repeat_objects: BTreeMap<String, ObjectVal>,
}

/// Executor → coordinator: what one attempt came to — a mark mid-run,
/// its completion, or why it could not run — sent by the copy shipped
/// under `ticket`.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReport {
    /// The attempt reported on.
    pub at: Attempt,
    /// The [`StartTask::ticket`] of the copy that sent it.
    pub ticket: u64,
    /// What it came to.
    pub result: TaskResult,
}

/// A report names the instance it moves: a commit window is a step over
/// its reports.
impl AsRef<str> for TaskReport {
    fn as_ref(&self) -> &str {
        &self.at.instance
    }
}

/// What one task execution attempt reports.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskResult {
    /// The implementation terminated in a declared output.
    Output {
        /// Output (outcome/abort/repeat) name.
        name: String,
        /// Objects produced with it.
        objects: Objects,
        /// Requested re-execution delay for repeat outcomes (a varint of
        /// nanoseconds on the wire: one byte when zero).
        redo_after: SimDuration,
    },
    /// The executor could not run the task (unbound implementation,
    /// invariant violation). Treated as a system-level failure.
    ExecError {
        /// Why.
        reason: String,
    },
    /// An early-release mark, produced mid-execution: the attempt runs
    /// on.
    Mark {
        /// Mark output name.
        name: String,
        /// Objects released with it.
        objects: Objects,
    },
}

impl TaskResult {
    /// Whether this is a mark, which the attempt runs on after.
    pub fn is_mark(&self) -> bool {
        matches!(self, TaskResult::Mark { .. })
    }
}

/// All engine messages, tagged for dispatch.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineMsg {
    /// Run a task.
    Start(StartTask),
    /// A task attempt's mark or completion.
    Report(TaskReport),
    /// Coordinator → executor: drop the attempt this shard dispatched
    /// under `ticket` (a no-op once it finished, or if it never arrived).
    Cancel {
        /// The [`StartTask::ticket`] of the attempt.
        ticket: u64,
    },
    /// Coordinator → executor, a call answered with
    /// [`EngineMsg::Running`]: a restarted shard asks what still runs
    /// for it.
    Census,
    /// Executor → coordinator: the answer to a [`EngineMsg::Census`],
    /// every attempt the executor still runs for the shard that asked.
    Running {
        /// Those attempts, each with its [`StartTask::ticket`].
        attempts: Vec<(u64, Attempt)>,
    },
    /// Client → repository: store a script (already validated client-side,
    /// revalidated server-side).
    RepoRegister {
        /// Script name.
        name: String,
        /// Canonical source text.
        source: String,
        /// Root compound task.
        root: String,
    },
    /// Repository reply to a register/get.
    RepoReply {
        /// Ok(version) or an error description.
        result: Result<u32, String>,
        /// Source text for get replies.
        source: String,
        /// Root compound for get replies.
        root: String,
    },
    /// Coordinator → repository: fetch a script.
    RepoGet {
        /// Script name.
        name: String,
        /// Specific version, or latest when `None`.
        version: Option<u32>,
    },
    /// Client → coordinator: start an instance of a repository script.
    StartInstance {
        /// Unique instance name chosen by the client.
        instance: String,
        /// Repository script name.
        script: String,
        /// Script version (latest when `None`).
        version: Option<u32>,
        /// Root input set to bind.
        set: String,
        /// Root input objects.
        inputs: BTreeMap<String, ObjectVal>,
    },
    /// Generic acknowledgement reply.
    Ack {
        /// Success or an error description.
        result: Result<(), String>,
    },
    /// A misdirected message relayed toward the owning shard. The
    /// wrapper counts hops so two coordinators with disagreeing maps
    /// (the mid-rebalance state) cannot ping-pong a report forever.
    Forwarded {
        /// Relays so far (the first forward sends 1).
        hops: u32,
        /// The encoded original [`EngineMsg`].
        inner: Vec<u8>,
    },
    /// Coordinator → client: the shard is at its admission cap *and*
    /// its admission queue is full — the [`EngineMsg::StartInstance`]
    /// was not accepted and may be retried with backoff. Typed (rather
    /// than an `Ack` error string) so clients can distinguish
    /// transient overload from permanent rejection.
    Busy {
        /// Admission-queue depth at rejection time (a backoff hint).
        queue_depth: u32,
    },
    /// Coordinator → coordinator (an RPC, answered with
    /// [`EngineMsg::Ack`]): commit these instances as your own, in one
    /// local action that also writes the claim's receipt. The one way an
    /// instance changes shards: a live source sends it from its move
    /// record (rebalance, drain), a claimant out of a dead shard's fenced
    /// storage (adoption). An `Err` answer means nothing was committed.
    Claim {
        /// The claim's id: a live move's round, or one a claimant minted
        /// past the dead shard's own. Its node is the shard the entries
        /// came from.
        id: TxId,
        /// The membership epoch the claim was routed under; one below
        /// the receiver's is refused as stale.
        epoch: u64,
        /// Whether a claimant sent it out of a dead shard's fenced
        /// storage, not a live source.
        fenced: bool,
        /// The instances' committed entries, as the sender keyed them.
        writes: AfterImages,
    },
}

impl Encode for Attempt {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.instance);
        w.put_str(&self.path);
        w.put_u32(self.incarnation);
        w.put_u32(self.attempt);
    }
}

impl Decode for Attempt {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Attempt {
            instance: r.get_str()?.into(),
            path: r.get_str()?.into(),
            incarnation: r.get_u32()?,
            attempt: r.get_u32()?,
        })
    }
}

impl Encode for StartTask {
    fn encode(&self, w: &mut ByteWriter) {
        let (at, clause) = (&self.at, &self.implementation);
        put_start(w, at, self.ticket, clause, &self.set, &self.inputs);
        self.repeat_objects.encode(w);
    }
}

/// Named objects in their wire form — the bytes a
/// `BTreeMap<String, ObjectVal>` encodes as, names strictly ascending —
/// kept encoded: one allocation however many objects, read in place
/// ([`Objects::entries`]). An attempt's bound inputs wait for shipping
/// this way, and a report's objects arrive this way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Objects(Vec<u8>);

impl Objects {
    /// `objects`, encoded.
    pub(crate) fn of(objects: &BTreeMap<String, ObjectVal>) -> Self {
        Objects(flowscript_codec::to_bytes(objects))
    }

    /// The map `write` writes (it writes a count and then each entry,
    /// names ascending).
    pub(crate) fn written(write: impl FnOnce(&mut ByteWriter)) -> Self {
        Objects(flowscript_codec::encode_exact(write))
    }

    /// Each name and object, names ascending, borrowed from the bytes.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&str, ObjectRef<'_>)> + Clone {
        let mut r = ByteReader::new(&self.0);
        let count = r.get_len().unwrap_or(0);
        // The bytes were read once whole (`decode`) or written whole
        // (`of`, `written`): every entry is there.
        (0..count).map_while(move |_| read_entry(&mut r).ok())
    }
}

/// One entry of an encoded object map.
fn read_entry<'a>(r: &mut ByteReader<'a>) -> Result<(&'a str, ObjectRef<'a>), CodecError> {
    let name = r.get_str()?;
    let object = ObjectRef {
        class: r.get_str()?,
        data: r.get_len_prefixed()?,
        produced_by: r.get_str()?,
    };
    Ok((name, object))
}

impl Encode for Objects {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(&self.0);
    }
}

/// Reads a map whole, copying its bytes once; names out of order or
/// repeated are refused, not reordered.
impl Decode for Objects {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let start = r.remaining();
        let mut rest = r.clone();
        let count = rest.get_len()?;
        let mut last: Option<&str> = None;
        for _ in 0..count {
            let (name, _) = read_entry(&mut rest)?;
            if last.is_some_and(|last| last >= name) {
                return Err(CodecError::InvalidDiscriminant {
                    ty: "object map order",
                    value: count as u64,
                });
            }
            last = Some(name);
        }
        let bytes = r.get_bytes(start - rest.remaining())?;
        Ok(Objects(bytes.to_vec()))
    }
}

/// Writes a [`StartTask`]'s fields up to its repeat objects.
fn put_start<I: Encode + ?Sized>(
    w: &mut ByteWriter,
    at: &Attempt,
    ticket: u64,
    implementation: &BTreeMap<String, String>,
    set: &str,
    inputs: &I,
) {
    at.encode(w);
    w.put_var_u64(ticket);
    implementation.encode(w);
    w.put_str(set);
    inputs.encode(w);
}

/// The encoded [`EngineMsg::Start`] of the attempt `at` under `ticket`,
/// from its parts where they lie: how a shard ships one, its plan's
/// clause borrowed, not copied into a [`StartTask`].
pub(crate) fn start_bytes(
    at: &Attempt,
    ticket: u64,
    implementation: &BTreeMap<String, String>,
    set: &str,
    inputs: &Objects,
    repeat_objects: &BTreeMap<String, ObjectVal>,
) -> Vec<u8> {
    flowscript_codec::encode_exact(|w| {
        w.put_u8(0);
        put_start(w, at, ticket, implementation, set, inputs);
        repeat_objects.encode(w);
    })
}

impl Decode for StartTask {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(StartTask {
            at: Attempt::decode(r)?,
            ticket: r.get_var_u64()?,
            implementation: BTreeMap::decode(r)?,
            set: r.get_str()?.to_owned(),
            inputs: BTreeMap::decode(r)?,
            repeat_objects: BTreeMap::decode(r)?,
        })
    }
}

impl Encode for TaskResult {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            TaskResult::Output {
                name,
                objects,
                redo_after,
            } => {
                w.put_u8(0);
                w.put_str(name);
                objects.encode(w);
                w.put_var_u64(redo_after.as_nanos());
            }
            TaskResult::ExecError { reason } => {
                w.put_u8(1);
                w.put_str(reason);
            }
            TaskResult::Mark { name, objects } => {
                w.put_u8(2);
                w.put_str(name);
                objects.encode(w);
            }
        }
    }
}

impl Decode for TaskResult {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => TaskResult::Output {
                name: r.get_str()?.to_owned(),
                objects: Objects::decode(r)?,
                redo_after: SimDuration::from_nanos(r.get_var_u64()?),
            },
            1 => TaskResult::ExecError {
                reason: r.get_str()?.to_owned(),
            },
            2 => TaskResult::Mark {
                name: r.get_str()?.to_owned(),
                objects: Objects::decode(r)?,
            },
            other => {
                return Err(CodecError::InvalidDiscriminant {
                    ty: "TaskResult",
                    value: u64::from(other),
                })
            }
        })
    }
}

impl Decode for TaskReport {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(TaskReport {
            at: Attempt::decode(r)?,
            ticket: r.get_var_u64()?,
            result: TaskResult::decode(r)?,
        })
    }
}

/// Writes the [`EngineMsg::Report`] of `result`, from the copy of `at`
/// shipped under `ticket`.
fn put_report(w: &mut ByteWriter, at: &Attempt, ticket: u64, result: &TaskResult) {
    w.put_u8(1);
    at.encode(w);
    w.put_var_u64(ticket);
    result.encode(w);
}

/// The encoded [`EngineMsg::Report`] of `result`, from the copy of `at`
/// shipped under `ticket`: how an executor sends one off an address it
/// keeps.
pub(crate) fn report_bytes(at: &Attempt, ticket: u64, result: &TaskResult) -> Vec<u8> {
    flowscript_codec::encode_exact(|w| put_report(w, at, ticket, result))
}

impl Encode for EngineMsg {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            EngineMsg::Start(msg) => {
                w.put_u8(0);
                msg.encode(w);
            }
            EngineMsg::Report(report) => put_report(w, &report.at, report.ticket, &report.result),
            EngineMsg::RepoRegister { name, source, root } => {
                w.put_u8(3);
                w.put_str(name);
                w.put_str(source);
                w.put_str(root);
            }
            EngineMsg::RepoReply {
                result,
                source,
                root,
            } => {
                w.put_u8(4);
                result.encode(w);
                w.put_str(source);
                w.put_str(root);
            }
            EngineMsg::RepoGet { name, version } => {
                w.put_u8(5);
                w.put_str(name);
                version.encode(w);
            }
            EngineMsg::StartInstance {
                instance,
                script,
                version,
                set,
                inputs,
            } => {
                w.put_u8(6);
                w.put_str(instance);
                w.put_str(script);
                version.encode(w);
                w.put_str(set);
                inputs.encode(w);
            }
            EngineMsg::Ack { result } => {
                w.put_u8(7);
                result.encode(w);
            }
            EngineMsg::Forwarded { hops, inner } => {
                w.put_u8(8);
                w.put_u32(*hops);
                w.put_len_prefixed(inner);
            }
            EngineMsg::Claim {
                id,
                epoch,
                fenced,
                writes,
            } => {
                w.put_u8(10);
                id.encode(w);
                w.put_u64(*epoch);
                w.put_bool(*fenced);
                writes.encode(w);
            }
            EngineMsg::Busy { queue_depth } => {
                w.put_u8(11);
                w.put_u32(*queue_depth);
            }
            EngineMsg::Cancel { ticket } => {
                w.put_u8(12);
                w.put_var_u64(*ticket);
            }
            EngineMsg::Census => w.put_u8(13),
            EngineMsg::Running { attempts } => {
                w.put_u8(14);
                w.put_len(attempts.len());
                for (ticket, at) in attempts {
                    w.put_var_u64(*ticket);
                    at.encode(w);
                }
            }
        }
    }
}

impl Decode for EngineMsg {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => EngineMsg::Start(StartTask::decode(r)?),
            1 => EngineMsg::Report(TaskReport::decode(r)?),
            3 => EngineMsg::RepoRegister {
                name: r.get_str()?.to_owned(),
                source: r.get_str()?.to_owned(),
                root: r.get_str()?.to_owned(),
            },
            4 => EngineMsg::RepoReply {
                result: Result::decode(r)?,
                source: r.get_str()?.to_owned(),
                root: r.get_str()?.to_owned(),
            },
            5 => EngineMsg::RepoGet {
                name: r.get_str()?.to_owned(),
                version: Option::decode(r)?,
            },
            6 => EngineMsg::StartInstance {
                instance: r.get_str()?.to_owned(),
                script: r.get_str()?.to_owned(),
                version: Option::decode(r)?,
                set: r.get_str()?.to_owned(),
                inputs: BTreeMap::decode(r)?,
            },
            7 => EngineMsg::Ack {
                result: Result::decode(r)?,
            },
            8 => EngineMsg::Forwarded {
                hops: r.get_u32()?,
                inner: r.get_len_prefixed()?.to_vec(),
            },
            10 => EngineMsg::Claim {
                id: TxId::decode(r)?,
                epoch: r.get_u64()?,
                fenced: r.get_bool()?,
                writes: Vec::decode(r)?,
            },
            11 => EngineMsg::Busy {
                queue_depth: r.get_u32()?,
            },
            12 => EngineMsg::Cancel {
                ticket: r.get_var_u64()?,
            },
            13 => EngineMsg::Census,
            14 => {
                let listed = r.get_len()?;
                let attempts = (0..listed).map(|_| Ok((r.get_var_u64()?, Attempt::decode(r)?)));
                EngineMsg::Running {
                    attempts: attempts.collect::<Result<_, CodecError>>()?,
                }
            }
            other => {
                return Err(CodecError::InvalidDiscriminant {
                    ty: "EngineMsg",
                    value: u64::from(other),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowscript_tx::ObjectUid;

    fn at(incarnation: u32, attempt: u32) -> Attempt {
        Attempt {
            instance: "i1".into(),
            path: "root/t1".into(),
            incarnation,
            attempt,
        }
    }

    /// Every message round-trips, and none decodes from a proper prefix
    /// of its bytes: a message cut short is a typed error, never a
    /// shorter message.
    #[test]
    fn all_messages_roundtrip() {
        let mut inputs = BTreeMap::new();
        inputs.insert("order".to_string(), ObjectVal::text("Order", "o1"));
        let report = |at, result| {
            EngineMsg::Report(TaskReport {
                at,
                ticket: 1 << 40 | 7,
                result,
            })
        };
        let msgs = vec![
            EngineMsg::Start(StartTask {
                at: at(1, 2),
                ticket: 1 << 40 | 7,
                implementation: BTreeMap::from([
                    ("code".to_string(), "refT1".to_string()),
                    ("priority".to_string(), "3".to_string()),
                ]),
                set: "main".into(),
                inputs: inputs.clone(),
                repeat_objects: BTreeMap::new(),
            }),
            report(
                at(1, 2),
                TaskResult::Output {
                    name: "done".into(),
                    objects: Objects::of(&inputs),
                    redo_after: SimDuration::from_millis(5),
                },
            ),
            report(
                at(0, 0),
                TaskResult::ExecError {
                    reason: "no binding".into(),
                },
            ),
            report(
                at(0, 1),
                TaskResult::Mark {
                    name: "toPay".into(),
                    objects: Objects::of(&inputs),
                },
            ),
            EngineMsg::RepoRegister {
                name: "s".into(),
                source: "class C;".into(),
                root: "r".into(),
            },
            EngineMsg::RepoReply {
                result: Ok(3),
                source: String::new(),
                root: String::new(),
            },
            EngineMsg::RepoGet {
                name: "s".into(),
                version: Some(2),
            },
            EngineMsg::StartInstance {
                instance: "i1".into(),
                script: "s".into(),
                version: None,
                set: "main".into(),
                inputs: BTreeMap::new(),
            },
            EngineMsg::Ack {
                result: Err("boom".into()),
            },
            EngineMsg::Forwarded {
                hops: 2,
                inner: vec![7, 0, 1],
            },
            EngineMsg::Claim {
                id: TxId::new(3, 42),
                epoch: 2,
                fenced: true,
                writes: vec![(StoreKey::Uid(ObjectUid::new("inst/i1/meta")), Some(vec![9]))],
            },
            EngineMsg::Busy { queue_depth: 17 },
            EngineMsg::Cancel {
                ticket: 1 << 40 | 7,
            },
            EngineMsg::Census,
            EngineMsg::Running {
                attempts: Vec::new(),
            },
            EngineMsg::Running {
                attempts: vec![(1 << 40 | 7, at(1, 2)), (3, at(0, 0))],
            },
        ];
        for msg in msgs {
            let bytes = flowscript_codec::to_bytes(&msg);
            assert_eq!(
                flowscript_codec::from_bytes::<EngineMsg>(&bytes).unwrap(),
                msg
            );
            for cut in 1..bytes.len() {
                let truncated = flowscript_codec::from_bytes::<EngineMsg>(&bytes[..cut]);
                assert!(
                    truncated.is_err(),
                    "{msg:?} cut to {cut} of {} bytes: {truncated:?}",
                    bytes.len()
                );
            }
        }
        // Tag 9, the retired hand-off 2PC message, and tag 2, the
        // retired mark message, are refused typed.
        for tag in [2, 9] {
            assert!(matches!(
                flowscript_codec::from_bytes::<EngineMsg>(&[tag, 0]),
                Err(CodecError::InvalidDiscriminant { value, .. }) if value == u64::from(tag)
            ));
        }
    }

    /// A start's and a completion's bytes are pinned: each is its tag,
    /// the address, the sending copy's ticket as a varint, and then the
    /// rest of a start or the result, whose delay is a varint too.
    #[test]
    fn a_start_and_a_completion_keep_their_bytes() {
        let objects = BTreeMap::from([("o".to_string(), ObjectVal::text("O", "v"))]);
        let start = EngineMsg::Start(StartTask {
            at: at(1, 2),
            ticket: 300,
            implementation: BTreeMap::from([("code".to_string(), "c".to_string())]),
            set: "main".into(),
            inputs: objects.clone(),
            repeat_objects: BTreeMap::new(),
        });
        let address = [
            2, 105, 49, 7, 114, 111, 111, 116, 47, 116, 49, 1, 0, 0, 0, 2, 0, 0, 0,
        ];
        let ticket = [172, 2];
        let start_rest = [
            1, 4, 99, 111, 100, 101, 1, 99, 4, 109, 97, 105, 110, 1, 1, 111, 1, 79, 1, 118, 0, 0,
        ];
        let expected = [&[0][..], &address, &ticket, &start_rest].concat();
        assert_eq!(flowscript_codec::to_bytes(&start), expected);
        let done = EngineMsg::Report(TaskReport {
            at: at(1, 2),
            ticket: 300,
            result: TaskResult::Output {
                name: "done".into(),
                objects: Objects::of(&objects),
                redo_after: SimDuration::from_millis(5),
            },
        });
        let result = [
            0, 4, 100, 111, 110, 101, 1, 1, 111, 1, 79, 1, 118, 0, 192, 150, 177, 2,
        ];
        let expected = [&[1][..], &address, &ticket, &result].concat();
        assert_eq!(flowscript_codec::to_bytes(&done), expected);
    }

    /// A report's objects are read in place, as the map that wrote them
    /// lists them: names ascending, each once. Bytes naming one out of
    /// order or twice are refused, not reordered or deduplicated.
    #[test]
    fn objects_naming_one_out_of_order_or_twice_are_refused() {
        let entry = |name: &str| {
            let object = flowscript_codec::to_bytes(&ObjectVal::text("C", "v"));
            [flowscript_codec::to_bytes(name), object].concat()
        };
        let map = |names: [&str; 2]| [vec![2], entry(names[0]), entry(names[1])].concat();
        let read = flowscript_codec::from_bytes::<Objects>(&map(["a", "b"])).unwrap();
        let names: Vec<&str> = read.entries().map(|(name, _)| name).collect();
        assert_eq!(names, ["a", "b"]);
        for names in [["b", "a"], ["a", "a"]] {
            let read = flowscript_codec::from_bytes::<Objects>(&map(names));
            assert!(read.is_err(), "{names:?}: {read:?}");
        }
    }
}
