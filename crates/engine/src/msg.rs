//! Wire messages between the engine's services (codec-framed over the
//! simulated network — the IIOP of our Fig. 4).
//!
//! A shard and an executor speak of one [`Attempt`] of a task, named
//! and encoded one way (paper §3, fig. 3): the shard ships it in a
//! `StartTask` under a ticket, cancels it by that ticket, and after a
//! restart asks what still runs ([`EngineMsg::Census`]); the executor
//! sends each mark and then the completion as one [`TaskReport`], under
//! the ticket of the copy that sent it.
//!
//! A start and a report are read where they lie. An executor checks a
//! delivered start whole once and binds it as a [`StartView`] over the
//! delivered bytes; a shard keeps a report as [`Delivered`], the bytes it
//! arrived in, moved from the envelope and checked whole once. Names,
//! clauses and objects are read in place from then on, so nothing is
//! copied into maps and strings that are read once. Nothing decodes a
//! start or a report owned: `StartTask` is what a test writes, and
//! [`TaskReport`] what a test or the façade's forged-mark hook sends.

use std::collections::BTreeMap;
use std::ops::Range;
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

/// Executor → coordinator: what one attempt came to — a mark mid-run,
/// its completion, or why it could not run — sent by the copy shipped
/// under `ticket`.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReport {
    /// The attempt reported on.
    pub at: Attempt,
    /// The ticket of the copy that sent it, as its start carried it.
    pub ticket: u64,
    /// What it came to.
    pub result: TaskResult,
}

/// What one task execution attempt reports, its objects as `O` holds
/// them: encoded ([`Objects`]), or the map an executor's behaviour
/// produced, borrowed.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskResult<O = Objects> {
    /// The implementation terminated in a declared output.
    Output {
        /// Output (outcome/abort/repeat) name.
        name: String,
        /// Objects produced with it.
        objects: O,
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
        objects: O,
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
        AttemptRef::read(r).map(AttemptRef::to_attempt)
    }
}

/// Named objects in their wire form — the bytes a
/// `BTreeMap<String, ObjectVal>` encodes as, names strictly ascending —
/// kept encoded: one allocation however many objects. An attempt's bound
/// inputs wait for shipping this way; a delivered report's objects are
/// read in place as an [`ObjectMap`].
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
}

impl Encode for Objects {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(&self.0);
    }
}

/// Writes a `StartTask`'s fields up to its repeat objects.
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

/// The encoded `EngineMsg::Start` of the attempt `at` under `ticket`,
/// from its parts where they lie: how a shard ships one, its plan's
/// clause borrowed, not copied into a `StartTask`.
pub(crate) fn start_bytes(
    at: &Attempt,
    ticket: u64,
    implementation: &BTreeMap<String, String>,
    set: &str,
    inputs: &Objects,
    repeat_objects: &BTreeMap<String, ObjectVal>,
) -> Vec<u8> {
    flowscript_codec::encode_exact(|w| {
        w.put_u8(TAG_START);
        put_start(w, at, ticket, implementation, set, inputs);
        repeat_objects.encode(w);
    })
}

impl<O: Encode> Encode for TaskResult<O> {
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

/// Writes the [`EngineMsg::Report`] of `result`, from the copy of the
/// attempt `at` addresses shipped under `ticket`.
fn put_report(w: &mut ByteWriter, at: &impl Encode, ticket: u64, result: &impl Encode) {
    w.put_u8(TAG_REPORT);
    at.encode(w);
    w.put_var_u64(ticket);
    result.encode(w);
}

/// An [`Attempt`]'s address in its wire form, as a start carried it
/// ([`StartView::address`]): written back byte for byte.
struct Address<'a>(&'a [u8]);

impl Encode for Address<'_> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(self.0);
    }
}

/// The encoded [`EngineMsg::Report`] of `result`, from the copy shipped
/// under `ticket` of the attempt whose encoded address is `address`: how
/// an executor sends one off the address its start carried.
pub(crate) fn report_bytes<O: Encode>(
    address: &[u8],
    ticket: u64,
    result: &TaskResult<O>,
) -> Vec<u8> {
    flowscript_codec::encode_exact(|w| put_report(w, &Address(address), ticket, result))
}

/// The encoded [`EngineMsg::Running`] listing `attempts`, each by its
/// ticket and its encoded address: how an executor answers a census off
/// the addresses its starts carried.
pub(crate) fn running_bytes<'a>(
    attempts: impl ExactSizeIterator<Item = (u64, &'a [u8])>,
) -> Vec<u8> {
    flowscript_codec::encode_exact(|w| {
        w.put_u8(TAG_RUNNING);
        w.put_len(attempts.len());
        for (ticket, address) in attempts {
            w.put_var_u64(ticket);
            w.put_bytes(address);
        }
    })
}

// Message tags the views and the relay unwrapping read.
const TAG_START: u8 = 0;
const TAG_REPORT: u8 = 1;
const TAG_FORWARDED: u8 = 8;
const TAG_RUNNING: u8 = 14;

// ---------------------------------------------------------------------
// Views: a start and a report, read where they lie. Each is checked
// whole when it arrives — every field, every map entry, the maps'
// order, no trailing byte — so what reads it again in place reads
// bytes known good, and a hostile message is refused at arrival with a
// typed error. No view indexes or slices a buffer.
// ---------------------------------------------------------------------

/// An attempt's address, borrowed from the bytes it arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AttemptRef<'a> {
    /// Instance name.
    pub(crate) instance: &'a str,
    /// Task path within the instance.
    pub(crate) path: &'a str,
    /// Scope incarnation.
    pub(crate) incarnation: u32,
    /// Dispatch attempt number.
    pub(crate) attempt: u32,
}

#[deny(clippy::indexing_slicing)]
impl<'a> AttemptRef<'a> {
    fn read(r: &mut ByteReader<'a>) -> Result<Self, CodecError> {
        Ok(AttemptRef {
            instance: r.get_str()?,
            path: r.get_str()?,
            incarnation: r.get_u32()?,
            attempt: r.get_u32()?,
        })
    }

    /// Whether this addresses the attempt `at`.
    pub(crate) fn is(&self, at: &Attempt) -> bool {
        (self.instance, self.path) == (&*at.instance, &*at.path)
            && (self.incarnation, self.attempt) == (at.incarnation, at.attempt)
    }

    /// The address, owned.
    pub(crate) fn to_attempt(self) -> Attempt {
        Attempt {
            instance: self.instance.into(),
            path: self.path.into(),
            incarnation: self.incarnation,
            attempt: self.attempt,
        }
    }
}

/// Reads a string-keyed map in its wire form — a count, then each key
/// and the value `value` reads, keys strictly ascending — and returns
/// its bytes. Keys out of order or repeated are refused, not reordered
/// or deduplicated: a lookup in place finds the one entry a key names.
#[deny(clippy::indexing_slicing)]
fn checked_map<'a>(
    r: &mut ByteReader<'a>,
    order: &'static str,
    value: impl Fn(&mut ByteReader<'a>) -> Result<(), CodecError>,
) -> Result<&'a [u8], CodecError> {
    let mut rest = r.clone();
    let count = rest.get_len()?;
    let mut last: Option<&str> = None;
    for _ in 0..count {
        let key = rest.get_str()?;
        if last.is_some_and(|last| last >= key) {
            return Err(CodecError::InvalidDiscriminant {
                ty: order,
                value: count as u64,
            });
        }
        value(&mut rest)?;
        last = Some(key);
    }
    r.get_bytes(rest.position() - r.position())
}

/// Each key and value of a map [`checked_map`] read, in order.
#[deny(clippy::indexing_slicing)]
fn map_entries<'a, V>(
    bytes: &'a [u8],
    value: fn(&mut ByteReader<'a>) -> Result<V, CodecError>,
) -> impl Iterator<Item = (&'a str, V)> + Clone {
    let mut r = ByteReader::new(bytes);
    let count = r.get_len().unwrap_or(0);
    let entry = move |_| -> Option<(&'a str, V)> { Some((r.get_str().ok()?, value(&mut r).ok()?)) };
    (0..count).map_while(entry)
}

/// One object in its wire form.
#[deny(clippy::indexing_slicing)]
fn read_object<'a>(r: &mut ByteReader<'a>) -> Result<ObjectRef<'a>, CodecError> {
    Ok(ObjectRef {
        class: r.get_str()?,
        data: r.get_len_prefixed()?,
        produced_by: r.get_str()?,
    })
}

/// Named objects in their wire form — the bytes a
/// `BTreeMap<String, ObjectVal>` encodes as — read where they lie. One
/// made from arrived bytes was checked whole ([`ObjectMap::read`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ObjectMap<'a>(&'a [u8]);

#[deny(clippy::indexing_slicing)]
impl<'a> ObjectMap<'a> {
    /// Reads a map whole, its names strictly ascending.
    pub(crate) fn read(r: &mut ByteReader<'a>) -> Result<Self, CodecError> {
        checked_map(r, "object map order", |r| read_object(r).map(drop)).map(ObjectMap)
    }

    /// Each name and object, names ascending.
    pub(crate) fn entries(self) -> impl Iterator<Item = (&'a str, ObjectRef<'a>)> + Clone {
        map_entries(self.0, read_object)
    }

    /// The object called `name`.
    pub(crate) fn get(self, name: &str) -> Option<ObjectRef<'a>> {
        let mut entries = self.entries();
        entries
            .find(|(at, _)| *at == name)
            .map(|(_, object)| object)
    }
}

/// An implementation clause in its wire form — the bytes a
/// `BTreeMap<String, String>` encodes as — read where it lies, checked
/// whole at arrival like an [`ObjectMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Clause<'a>(&'a [u8]);

#[deny(clippy::indexing_slicing)]
impl<'a> Clause<'a> {
    fn read(r: &mut ByteReader<'a>) -> Result<Self, CodecError> {
        checked_map(r, "clause order", |r| r.get_str().map(drop)).map(Clause)
    }

    /// Each key and value, keys ascending.
    pub(crate) fn pairs(self) -> impl Iterator<Item = (&'a str, &'a str)> + Clone {
        map_entries(self.0, ByteReader::get_str)
    }

    /// The value of `key`.
    pub(crate) fn get(self, key: &str) -> Option<&'a str> {
        let mut pairs = self.pairs();
        pairs.find(|(at, _)| *at == key).map(|(_, value)| value)
    }
}

/// A message's tag, read off a reader at its start.
#[deny(clippy::indexing_slicing)]
fn expect_tag(r: &mut ByteReader<'_>, tag: u8, ty: &'static str) -> Result<(), CodecError> {
    match r.get_u8()? {
        got if got == tag => Ok(()),
        got => Err(CodecError::InvalidDiscriminant {
            ty,
            value: got.into(),
        }),
    }
}

/// The end of a message: no byte past it.
fn expect_end(r: &ByteReader<'_>) -> Result<(), CodecError> {
    match r.remaining() {
        0 => Ok(()),
        remaining => Err(CodecError::TrailingBytes { remaining }),
    }
}

/// A start as it arrived at an executor: checked whole once, then read
/// where it lies for as long as the executor binds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StartView<'a> {
    /// The attempt's address as it lies in the start: what every report
    /// of the attempt, and a census listing it, repeats byte for byte.
    pub(crate) address: &'a [u8],
    /// That address, read.
    pub(crate) at: AttemptRef<'a>,
    /// The dispatching shard's ticket for this copy.
    pub(crate) ticket: u64,
    /// The task's implementation clause.
    pub(crate) implementation: Clause<'a>,
    /// The bound input set's name.
    pub(crate) set: &'a str,
    /// The bound input objects.
    pub(crate) inputs: ObjectMap<'a>,
    /// Objects carried over from a repeat outcome.
    pub(crate) repeat_objects: ObjectMap<'a>,
}

#[deny(clippy::indexing_slicing)]
impl<'a> StartView<'a> {
    /// The `EngineMsg::Start` `payload` holds whole, tag included, or
    /// why it holds none.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for bytes no start encodes as.
    pub(crate) fn read(payload: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(payload);
        expect_tag(&mut r, TAG_START, "EngineMsg (not a start)")?;
        let mut rest = r.clone();
        let at = AttemptRef::read(&mut rest)?;
        let address = r.get_bytes(rest.position() - r.position())?;
        let start = StartView {
            address,
            at,
            ticket: r.get_var_u64()?,
            implementation: Clause::read(&mut r)?,
            set: r.get_str()?,
            inputs: ObjectMap::read(&mut r)?,
            repeat_objects: ObjectMap::read(&mut r)?,
        };
        expect_end(&r)?;
        Ok(start)
    }
}

/// A report, read where it lies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReportView<'a> {
    /// The attempt reported on.
    pub(crate) at: AttemptRef<'a>,
    /// The ticket of the copy that sent it, as its start carried it.
    pub(crate) ticket: u64,
    /// What it came to.
    pub(crate) result: ResultView<'a>,
}

/// A [`TaskResult`], read where it lies.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ResultView<'a> {
    /// The implementation terminated in a declared output.
    Output {
        /// Output name.
        name: &'a str,
        /// Objects produced with it.
        objects: ObjectMap<'a>,
        /// Requested re-execution delay.
        redo_after: SimDuration,
    },
    /// The executor could not run the task.
    ExecError {
        /// Why.
        reason: &'a str,
    },
    /// An early-release mark.
    Mark {
        /// Mark output name.
        name: &'a str,
        /// Objects released with it.
        objects: ObjectMap<'a>,
    },
}

#[deny(clippy::indexing_slicing)]
impl<'a> ReportView<'a> {
    /// The [`EngineMsg::Report`] `payload` holds whole, tag included, or
    /// why it holds none.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for bytes no report encodes as.
    pub(crate) fn read(payload: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(payload);
        expect_tag(&mut r, TAG_REPORT, "EngineMsg (not a report)")?;
        let at = AttemptRef::read(&mut r)?;
        let ticket = r.get_var_u64()?;
        let result = match r.get_u8()? {
            0 => ResultView::Output {
                name: r.get_str()?,
                objects: ObjectMap::read(&mut r)?,
                redo_after: SimDuration::from_nanos(r.get_var_u64()?),
            },
            1 => ResultView::ExecError {
                reason: r.get_str()?,
            },
            2 => ResultView::Mark {
                name: r.get_str()?,
                objects: ObjectMap::read(&mut r)?,
            },
            other => {
                return Err(CodecError::InvalidDiscriminant {
                    ty: "TaskResult",
                    value: u64::from(other),
                })
            }
        };
        expect_end(&r)?;
        Ok(ReportView { at, ticket, result })
    }

    /// Whether this is a mark, which the attempt runs on after.
    pub(crate) fn is_mark(&self) -> bool {
        matches!(self.result, ResultView::Mark { .. })
    }
}

/// Where a delivered message lies in its payload, and the relays it
/// took: inside a relay's [`EngineMsg::Forwarded`] wrapper, unwrapped
/// once, or the whole payload with no relay.
///
/// # Errors
///
/// A [`CodecError`] for a wrapper that does not read.
#[deny(clippy::indexing_slicing)]
pub(crate) fn unwrap_relay(payload: &[u8]) -> Result<(Range<usize>, u32), CodecError> {
    let mut r = ByteReader::new(payload);
    if r.get_u8()? != TAG_FORWARDED {
        return Ok((0..payload.len(), 0));
    }
    let hops = r.get_u32()?;
    let len = r.get_len()?;
    let start = r.position();
    r.get_bytes(len)?;
    expect_end(&r)?;
    Ok((start..start + len, hops))
}

/// Writes the [`EngineMsg::Forwarded`] wrapping the encoded message
/// `inner` after `hops` relays.
pub(crate) fn put_relay(w: &mut ByteWriter, hops: u32, inner: &[u8]) {
    w.put_u8(TAG_FORWARDED);
    w.put_u32(hops);
    w.put_len_prefixed(inner);
}

/// Whether the message `bytes` hold is of `tag`.
fn tagged(bytes: &[u8], tag: u8) -> bool {
    bytes.first() == Some(&tag)
}

/// Whether `message` is a start ([`StartView::read`] reads it).
pub(crate) fn is_start(message: &[u8]) -> bool {
    tagged(message, TAG_START)
}

/// Whether `message` is a report ([`Delivered::read`] keeps it).
pub(crate) fn is_report(message: &[u8]) -> bool {
    tagged(message, TAG_REPORT)
}

/// Whether `message` is a relay's wrapper.
pub(crate) fn is_relay(message: &[u8]) -> bool {
    tagged(message, TAG_FORWARDED)
}

/// An executor's report as a shard keeps it: the payload it was
/// delivered in, moved from the envelope, not copied — a relay's wrapper
/// included — and where the report's fields lie in it, checked whole
/// when it arrived ([`Delivered::read`]). It allocates nothing of its
/// own; [`Delivered::view`] reads it in place.
#[derive(Debug)]
pub(crate) struct Delivered {
    bytes: Vec<u8>,
    /// The report message's span in `bytes`.
    message: Range<usize>,
    instance: Range<usize>,
    path: Range<usize>,
    incarnation: u32,
    attempt: u32,
    ticket: u64,
    result: Spans,
}

/// A [`ResultView`] as spans of a [`Delivered`]'s bytes.
#[derive(Debug)]
enum Spans {
    Output {
        name: Range<usize>,
        objects: Range<usize>,
        redo_after: SimDuration,
    },
    ExecError {
        reason: Range<usize>,
    },
    Mark {
        name: Range<usize>,
        objects: Range<usize>,
    },
}

#[deny(clippy::indexing_slicing)]
impl Delivered {
    /// Keeps the report that lies at `message` in `bytes`, checked whole,
    /// or says why none does.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for bytes no report encodes as.
    pub(crate) fn read(bytes: Vec<u8>, message: Range<usize>) -> Result<Self, CodecError> {
        let eof = CodecError::UnexpectedEof {
            needed: message.end,
            available: bytes.len(),
        };
        let view = ReportView::read(bytes.get(message.clone()).ok_or(eof)?)?;
        let base = bytes.as_ptr() as usize;
        let span = |part: &[u8]| {
            let start = part.as_ptr() as usize - base;
            start..start + part.len()
        };
        let result = match view.result {
            ResultView::Output {
                name,
                objects,
                redo_after,
            } => Spans::Output {
                name: span(name.as_bytes()),
                objects: span(objects.0),
                redo_after,
            },
            ResultView::ExecError { reason } => Spans::ExecError {
                reason: span(reason.as_bytes()),
            },
            ResultView::Mark { name, objects } => Spans::Mark {
                name: span(name.as_bytes()),
                objects: span(objects.0),
            },
        };
        let (instance, path) = (
            span(view.at.instance.as_bytes()),
            span(view.at.path.as_bytes()),
        );
        let (incarnation, attempt, ticket) = (view.at.incarnation, view.at.attempt, view.ticket);
        Ok(Delivered {
            bytes,
            message,
            instance,
            path,
            incarnation,
            attempt,
            ticket,
            result,
        })
    }

    /// A span of the bytes, as the text it was checked to be.
    fn str(&self, span: &Range<usize>) -> &str {
        let bytes = self.bytes.get(span.clone()).unwrap_or_default();
        std::str::from_utf8(bytes).unwrap_or_default()
    }

    /// A span of the bytes, as the object map it was checked to be.
    fn objects(&self, span: &Range<usize>) -> ObjectMap<'_> {
        ObjectMap(self.bytes.get(span.clone()).unwrap_or(&[0]))
    }

    /// The attempt reported on.
    pub(crate) fn at(&self) -> AttemptRef<'_> {
        AttemptRef {
            instance: self.str(&self.instance),
            path: self.str(&self.path),
            incarnation: self.incarnation,
            attempt: self.attempt,
        }
    }

    /// The instance reported on.
    pub(crate) fn instance(&self) -> &str {
        self.str(&self.instance)
    }

    /// The report, read in place.
    pub(crate) fn view(&self) -> ReportView<'_> {
        let result = match &self.result {
            Spans::Output {
                name,
                objects,
                redo_after,
            } => ResultView::Output {
                name: self.str(name),
                objects: self.objects(objects),
                redo_after: *redo_after,
            },
            Spans::ExecError { reason } => ResultView::ExecError {
                reason: self.str(reason),
            },
            Spans::Mark { name, objects } => ResultView::Mark {
                name: self.str(name),
                objects: self.objects(objects),
            },
        };
        let (at, ticket) = (self.at(), self.ticket);
        ReportView { at, ticket, result }
    }

    /// Whether this is a mark, which the attempt runs on after.
    pub(crate) fn is_mark(&self) -> bool {
        matches!(self.result, Spans::Mark { .. })
    }

    /// The report's encoded message, as it arrived: what a relay wraps.
    pub(crate) fn message(&self) -> &[u8] {
        self.bytes.get(self.message.clone()).unwrap_or_default()
    }
}

impl Decode for EngineMsg {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            // A start and a report are read in place, as a `StartView`
            // and a `Delivered`: never decoded owned.
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

/// All engine messages, tagged for dispatch.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineMsg {
    /// A task attempt's mark or completion.
    Report(TaskReport),
    /// Coordinator → executor: drop the attempt this shard dispatched
    /// under `ticket` (a no-op once it finished, or if it never arrived).
    Cancel {
        /// The ticket its start carried.
        ticket: u64,
    },
    /// Coordinator → executor, a call answered with
    /// [`EngineMsg::Running`]: a restarted shard asks what still runs
    /// for it.
    Census,
    /// Executor → coordinator: the answer to a [`EngineMsg::Census`],
    /// every attempt the executor still runs for the shard that asked.
    Running {
        /// Those attempts, each with the ticket its start carried.
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
    /// Coordinator → executor: run a task. A test's; see [`StartTask`].
    #[cfg(test)]
    Start(StartTask),
}

impl Encode for EngineMsg {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
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
            EngineMsg::Forwarded { hops, inner } => put_relay(w, *hops, inner),
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
                w.put_u8(TAG_RUNNING);
                w.put_len(attempts.len());
                for (ticket, at) in attempts {
                    w.put_var_u64(*ticket);
                    at.encode(w);
                }
            }
            #[cfg(test)]
            EngineMsg::Start(msg) => {
                w.put_u8(TAG_START);
                msg.encode(w);
            }
        }
    }
}

/// Coordinator → executor: run a task implementation. What a test
/// writes; a shard ships one from its parts ([`start_bytes`]), and an
/// executor reads one in place ([`StartView`]).
#[cfg(test)]
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

#[cfg(test)]
impl Encode for StartTask {
    fn encode(&self, w: &mut ByteWriter) {
        let (at, clause) = (&self.at, &self.implementation);
        put_start(w, at, self.ticket, clause, &self.set, &self.inputs);
        self.repeat_objects.encode(w);
    }
}

/// What a test compares and edits: a start, owned.
#[cfg(test)]
impl StartView<'_> {
    pub(crate) fn to_task(self) -> StartTask {
        let objects = |map: ObjectMap<'_>| {
            let owned = map
                .entries()
                .map(|(name, object)| (name.to_owned(), object.to_val()));
            owned.collect()
        };
        let clause = self.implementation.pairs();
        StartTask {
            at: self.at.to_attempt(),
            ticket: self.ticket,
            implementation: clause.map(|(k, v)| (k.to_owned(), v.to_owned())).collect(),
            set: self.set.to_owned(),
            inputs: objects(self.inputs),
            repeat_objects: objects(self.repeat_objects),
        }
    }
}

/// The start `bytes` hold, owned, if they hold one: what a test reads
/// off a shard's sends.
#[cfg(test)]
pub(crate) fn start_in(bytes: &[u8]) -> Option<StartTask> {
    StartView::read(bytes).ok().map(StartView::to_task)
}

/// What a test compares: a report, owned.
#[cfg(test)]
impl ReportView<'_> {
    pub(crate) fn to_report(self) -> TaskReport {
        let result = match self.result {
            ResultView::Output {
                name,
                objects,
                redo_after,
            } => TaskResult::Output {
                name: name.to_owned(),
                objects: Objects(objects.0.to_vec()),
                redo_after,
            },
            ResultView::ExecError { reason } => TaskResult::ExecError {
                reason: reason.to_owned(),
            },
            ResultView::Mark { name, objects } => TaskResult::Mark {
                name: name.to_owned(),
                objects: Objects(objects.0.to_vec()),
            },
        };
        let (at, ticket) = (self.at.to_attempt(), self.ticket);
        TaskReport { at, ticket, result }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowscript_tx::ObjectUid;

    /// The message `bytes` hold, read the way its receiver reads it: a
    /// start and a report in place — then owned, to compare — anything
    /// else decoded.
    fn read(bytes: &[u8]) -> Result<EngineMsg, CodecError> {
        if is_start(bytes) {
            return StartView::read(bytes).map(|start| EngineMsg::Start(start.to_task()));
        }
        if is_report(bytes) {
            let report = Delivered::read(bytes.to_vec(), 0..bytes.len())?;
            return Ok(EngineMsg::Report(report.view().to_report()));
        }
        flowscript_codec::from_bytes(bytes)
    }

    /// A start's tag, alone.
    fn msgs_start_tag() -> Vec<u8> {
        vec![TAG_START]
    }

    /// Reads a start or a report out of `bytes` through every accessor
    /// its receiver has — none may panic — or takes its refusal.
    fn read_every_accessor(bytes: &[u8]) {
        if let Ok(start) = StartView::read(bytes) {
            let ctx = crate::InvokeCtx::of(&start);
            let _ = (
                ctx.path,
                ctx.set,
                ctx.incarnation,
                ctx.attempt,
                start.address,
            );
            for (name, object) in ctx.inputs().chain(ctx.repeat_objects()) {
                let _ = (
                    ctx.input_text(name),
                    ctx.repeat_object(name),
                    object.to_val(),
                );
            }
            for (key, value) in ctx.implementation() {
                assert_eq!(ctx.impl_value(key), Some(value), "keys are unique");
            }
            let _ = (ctx.hints(), start.to_task());
        }
        if let Ok(report) = Delivered::read(bytes.to_vec(), 0..bytes.len()) {
            let view = report.view();
            let _ = (
                report.at(),
                report.instance(),
                report.is_mark(),
                report.message(),
            );
            if let ResultView::Output { objects, .. } | ResultView::Mark { objects, .. } =
                view.result
            {
                for (name, object) in objects.entries() {
                    assert_eq!(objects.get(name), Some(object), "names are unique");
                }
            }
            let _ = view.to_report();
        }
    }

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
            assert_eq!(read(&bytes).unwrap(), msg);
            for cut in 1..bytes.len() {
                let truncated = read(&bytes[..cut]);
                assert!(
                    truncated.is_err(),
                    "{msg:?} cut to {cut} of {} bytes: {truncated:?}",
                    bytes.len()
                );
            }
            // A start and a report are read in place: every single-byte
            // flip of one is refused at arrival, typed, or reads as a
            // view every accessor of which answers.
            if is_start(&bytes) || is_report(&bytes) {
                for at in 0..bytes.len() {
                    for flip in 1..=u8::MAX {
                        let mut flipped = bytes.clone();
                        flipped[at] ^= flip;
                        read_every_accessor(&flipped);
                    }
                }
            }
        }
        // A start or a report is never decoded owned: its tag reads only
        // as a view.
        for msg in [&msgs_start_tag(), &[TAG_REPORT][..]] {
            assert!(matches!(
                flowscript_codec::from_bytes::<EngineMsg>(msg),
                Err(CodecError::UnexpectedEof { .. } | CodecError::InvalidDiscriminant { .. })
            ));
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
    /// order or twice are refused at arrival — in a start's inputs, its
    /// repeat objects or its clause, and in a report — not reordered or
    /// deduplicated, and not at first read.
    #[test]
    fn objects_naming_one_out_of_order_or_twice_are_refused() {
        let entry = |name: &str| {
            let object = flowscript_codec::to_bytes(&ObjectVal::text("C", "v"));
            [flowscript_codec::to_bytes(name), object].concat()
        };
        let map = |names: [&str; 2]| [vec![2], entry(names[0]), entry(names[1])].concat();
        let (good, empty) = (map(["a", "b"]), [0]);
        let read = ObjectMap::read(&mut ByteReader::new(&good)).unwrap();
        let names: Vec<&str> = read.entries().map(|(name, _)| name).collect();
        assert_eq!(names, ["a", "b"]);
        let clause = |keys: [&str; 2]| {
            let pair = |key: &str| [flowscript_codec::to_bytes(key), vec![1, b'v']].concat();
            [vec![2], pair(keys[0]), pair(keys[1])].concat()
        };
        let address = flowscript_codec::to_bytes(&at(0, 0));
        let start = |clause: &[u8], inputs: &[u8], repeat: &[u8]| {
            let set = flowscript_codec::to_bytes("main");
            [
                &[TAG_START][..],
                &address,
                &[7],
                clause,
                &set,
                inputs,
                repeat,
            ]
            .concat()
        };
        let report = |objects: &[u8]| {
            let name = flowscript_codec::to_bytes("done");
            [&[TAG_REPORT][..], &address, &[7, 2], &name, objects].concat()
        };
        assert!(StartView::read(&start(&clause(["a", "b"]), &good, &good)).is_ok());
        assert!(Delivered::read(report(&good), 0..report(&good).len()).is_ok());
        for names in [["b", "a"], ["a", "a"]] {
            let bad = map(names);
            let read = ObjectMap::read(&mut ByteReader::new(&bad));
            assert!(read.is_err(), "{names:?}: {read:?}");
            for refused in [
                start(&clause(names), &empty, &empty),
                start(&empty, &bad, &empty),
                start(&empty, &empty, &bad),
            ] {
                let read = StartView::read(&refused);
                assert!(read.is_err(), "{names:?}: {read:?}");
            }
            let read = Delivered::read(report(&bad), 0..report(&bad).len());
            assert!(read.is_err(), "{names:?}: {read:?}");
        }
    }

    /// What a shard and an executor write from their parts is what the
    /// owned messages pinned above encode as: a start from its plan's
    /// clause and its bound inputs, a report from the address its start
    /// carried and the map its behaviour produced, a census from those
    /// addresses.
    #[test]
    fn what_nodes_write_from_parts_is_what_the_messages_encode() {
        let objects = BTreeMap::from([("o".to_string(), ObjectVal::text("O", "v"))]);
        let clause = BTreeMap::from([("code".to_string(), "c".to_string())]);
        let start = StartTask {
            at: at(1, 2),
            ticket: 300,
            implementation: clause.clone(),
            set: "main".into(),
            inputs: objects.clone(),
            repeat_objects: objects.clone(),
        };
        let parts = start_bytes(
            &at(1, 2),
            300,
            &clause,
            "main",
            &Objects::of(&objects),
            &objects,
        );
        assert_eq!(parts, flowscript_codec::to_bytes(&EngineMsg::Start(start)));
        let view = StartView::read(&parts).unwrap();
        assert_eq!(view.address, flowscript_codec::to_bytes(&at(1, 2)));
        let result = TaskResult::Output {
            name: "done".to_string(),
            objects: &objects,
            redo_after: SimDuration::from_millis(5),
        };
        let done = TaskReport {
            at: at(1, 2),
            ticket: 300,
            result: TaskResult::Output {
                name: "done".into(),
                objects: Objects::of(&objects),
                redo_after: SimDuration::from_millis(5),
            },
        };
        let sent = report_bytes(view.address, view.ticket, &result);
        assert_eq!(sent, flowscript_codec::to_bytes(&EngineMsg::Report(done)));
        let census = running_bytes([(300, view.address)].into_iter());
        let running = EngineMsg::Running {
            attempts: vec![(300, at(1, 2))],
        };
        assert_eq!(census, flowscript_codec::to_bytes(&running));
    }

    /// A relay's wrapper is unwrapped once, where the message lies: a
    /// report relayed is kept in the wrapper's bytes, and its message is
    /// what a further relay wraps again.
    #[test]
    fn a_relayed_report_is_kept_in_its_wrapper() {
        let report = EngineMsg::Report(TaskReport {
            at: at(0, 1),
            ticket: 9,
            result: TaskResult::ExecError {
                reason: "no binding".into(),
            },
        });
        let inner = flowscript_codec::to_bytes(&report);
        let wrapped = flowscript_codec::to_bytes(&EngineMsg::Forwarded {
            hops: 2,
            inner: inner.clone(),
        });
        let (span, hops) = unwrap_relay(&wrapped).unwrap();
        assert_eq!((&wrapped[span.clone()], hops), (&inner[..], 2));
        let kept = Delivered::read(wrapped.clone(), span).unwrap();
        assert_eq!((kept.message(), kept.instance()), (&inner[..], "i1"));
        assert_eq!(unwrap_relay(&inner).unwrap(), (0..inner.len(), 0));
        assert!(unwrap_relay(&wrapped[..wrapped.len() - 1]).is_err());
    }
}
