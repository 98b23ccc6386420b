//! Structured storage keys.
//!
//! The engine's dependency *facts* (published outputs and bound input
//! sets) and its task *control blocks* are by far the hottest objects
//! in the store: every readiness probe reads a fact, every transition
//! reads and writes a block. Naming them with path strings forces a
//! `format!` per probe and a string hash and compare per lookup.
//! [`FactKey`] replaces that with a dense, `Copy`, fixed-size key —
//! instance id × task id × kind × item ordinal — so an access is integer
//! comparison, and everything a task, a subtree or an instance owns is
//! one contiguous key range.
//!
//! [`StoreKey`] unifies the two key families the store accepts: the
//! self-describing string [`ObjectUid`]s (instance headers and status
//! records, reconfiguration records, shared blobs — anything enumerated
//! by prefix on cold paths) and the dense [`FactKey`]s of the commit hot
//! path. Storage and the write-ahead log are both keyed by `StoreKey`.

use std::fmt;

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};

use crate::id::ObjectUid;

/// Which of a task's dense-keyed objects a [`FactKey`] addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FactKind {
    /// A bound input set (the consumer-side binding record).
    Input,
    /// A published output (outcome, abort outcome, repeat or mark).
    Output,
    /// The task's control block — not a fact: one per task (`item` and
    /// `obj` are 0), ordered after the task's facts, so every range that
    /// spans a task spans its block while
    /// [`FactKey::fact_last`]-bounded ranges never reach it.
    Control,
}

impl FactKind {
    /// The kind's wire code: `0` input, `1` output, `2` control block.
    pub(crate) fn code(self) -> u8 {
        match self {
            FactKind::Input => 0,
            FactKind::Output => 1,
            FactKind::Control => 2,
        }
    }

    /// The kind a wire code names.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidDiscriminant`] for any code but `0`–`2`.
    pub(crate) fn from_code(code: u8) -> Result<Self, CodecError> {
        match code {
            0 => Ok(FactKind::Input),
            1 => Ok(FactKind::Output),
            2 => Ok(FactKind::Control),
            other => Err(CodecError::InvalidDiscriminant {
                ty: "FactKind",
                value: u64::from(other),
            }),
        }
    }
}

/// Dense key of one dependency-fact **sub-object**, or of one task's
/// control block ([`FactKey::control`]).
///
/// `task` is the producing task's plan id and `item` the ordinal of the
/// set or output within the task's class declaration — both assigned by
/// the compiled plan, so a live instance never builds a string to name
/// a fact. `obj` addresses *within* one fact: sub-key `0` is the fact's
/// presence record (its payload carries only objects with no declared
/// ordinal; the engine stores it only where no declared object can say
/// the fact fired), and sub-key `i + 1` holds the value of the
/// declaration's `i`-th object alone — so a readiness probe reads
/// exactly the bytes of the one object it needs.
///
/// Ordering is `(instance, task, kind, item, obj)`: all sub-objects of
/// a fact are contiguous, as are all facts of a task — followed by its
/// control block — of an instance, and (because plans number tasks in
/// DFS pre-order) of a subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FactKey {
    /// The owning instance's numeric id.
    pub instance: u32,
    /// The producing task's plan id.
    pub task: u32,
    /// Input-binding fact, published-output fact, or control block.
    pub kind: FactKind,
    /// Ordinal of the input set / output within the task's class.
    pub item: u32,
    /// Sub-object ordinal: `0` = presence record, `i + 1` = the value
    /// of the declaration's `i`-th object.
    pub obj: u32,
}

impl FactKey {
    /// The presence sub-key of `task`'s `item`-th declared input set.
    pub fn input(instance: u32, task: u32, item: u32) -> Self {
        Self {
            instance,
            task,
            kind: FactKind::Input,
            item,
            obj: 0,
        }
    }

    /// The presence sub-key of `task`'s `item`-th declared output.
    pub fn output(instance: u32, task: u32, item: u32) -> Self {
        Self {
            instance,
            task,
            kind: FactKind::Output,
            item,
            obj: 0,
        }
    }

    /// The key of `task`'s control block.
    pub fn control(instance: u32, task: u32) -> Self {
        Self {
            instance,
            task,
            kind: FactKind::Control,
            item: 0,
            obj: 0,
        }
    }

    /// This fact's sub-key for sub-object ordinal `obj`.
    pub fn with_obj(mut self, obj: u32) -> Self {
        self.obj = obj;
        self
    }

    /// The sub-key holding the declaration's `ordinal`-th object value.
    pub fn object(self, ordinal: u32) -> Self {
        self.with_obj(ordinal + 1)
    }

    /// The largest sub-key this fact can have (the presence key is the
    /// smallest): `self..=self.fact_last()` spans one whole fact.
    pub fn fact_last(self) -> Self {
        self.with_obj(u32::MAX)
    }

    /// The smallest key an object of `task` can have (range scans).
    pub fn task_first(instance: u32, task: u32) -> Self {
        Self::input(instance, task, 0)
    }

    /// The largest key an object of `task` can have (range scans): past
    /// its facts *and* its control block.
    pub fn task_last(instance: u32, task: u32) -> Self {
        Self {
            item: u32::MAX,
            ..Self::control(instance, task)
        }
        .fact_last()
    }

    /// The smallest key any object of `instance` can have.
    pub fn instance_first(instance: u32) -> Self {
        Self::task_first(instance, 0)
    }

    /// The largest key any object of `instance` can have.
    pub fn instance_last(instance: u32) -> Self {
        Self::task_last(instance, u32::MAX)
    }
}

impl fmt::Display for FactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FactKind::Input => "in",
            FactKind::Output => "out",
            FactKind::Control => "ctl",
        };
        write!(
            f,
            "fact/{}/{}/{kind}/{}/{}",
            self.instance, self.task, self.item, self.obj
        )
    }
}

impl Encode for FactKey {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_var_u64(u64::from(self.instance));
        w.put_var_u64(u64::from(self.task));
        w.put_u8(self.kind.code());
        w.put_var_u64(u64::from(self.item));
        w.put_var_u64(u64::from(self.obj));
    }
}

impl Decode for FactKey {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let instance = r.get_var_u64()? as u32;
        let task = r.get_var_u64()? as u32;
        let kind = FactKind::from_code(r.get_u8()?)?;
        let item = r.get_var_u64()? as u32;
        let obj = r.get_var_u64()? as u32;
        Ok(FactKey {
            instance,
            task,
            kind,
            item,
            obj,
        })
    }
}

/// A key into the persistent object store: either a self-describing
/// string uid or a dense fact key.
///
/// String uids order before dense keys: a checkpoint lists the uids
/// first and then each instance's facts and control blocks, the order
/// the store walks its keys in. The store keeps the two families apart,
/// uids in one ordered map and fact keys in a run per instance.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StoreKey {
    /// A path-like string key (instance records, admin records, blobs).
    Uid(ObjectUid),
    /// A dense key: a fact sub-object or a control block (the commit
    /// hot path).
    Fact(FactKey),
}

impl StoreKey {
    /// The uid, when this is a string key.
    pub fn as_uid(&self) -> Option<&ObjectUid> {
        match self {
            StoreKey::Uid(uid) => Some(uid),
            StoreKey::Fact(_) => None,
        }
    }

    /// The fact key, when this is one.
    pub fn as_fact(&self) -> Option<FactKey> {
        match self {
            StoreKey::Uid(_) => None,
            StoreKey::Fact(key) => Some(*key),
        }
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreKey::Uid(uid) => fmt::Display::fmt(uid, f),
            StoreKey::Fact(key) => fmt::Display::fmt(key, f),
        }
    }
}

impl From<ObjectUid> for StoreKey {
    fn from(uid: ObjectUid) -> Self {
        StoreKey::Uid(uid)
    }
}

impl From<FactKey> for StoreKey {
    fn from(key: FactKey) -> Self {
        StoreKey::Fact(key)
    }
}

impl Encode for StoreKey {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            StoreKey::Uid(uid) => {
                w.put_u8(0);
                uid.encode(w);
            }
            StoreKey::Fact(key) => {
                w.put_u8(1);
                key.encode(w);
            }
        }
    }
}

impl Decode for StoreKey {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => StoreKey::Uid(ObjectUid::decode(r)?),
            1 => StoreKey::Fact(FactKey::decode(r)?),
            other => {
                return Err(CodecError::InvalidDiscriminant {
                    ty: "StoreKey",
                    value: u64::from(other),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fact_key_ordering_groups_instance_then_task() {
        let a = FactKey::input(1, 2, 0);
        let b = FactKey::output(1, 2, 0);
        let c = FactKey::input(1, 3, 0);
        let d = FactKey::input(2, 0, 0);
        assert!(a < b, "inputs order before outputs of the same task");
        assert!(b < c, "all facts of a task are contiguous");
        assert!(c < d, "all facts of an instance are contiguous");
        assert!(FactKey::task_first(1, 2) <= a && b <= FactKey::task_last(1, 2));
        assert!(FactKey::instance_first(1) <= a && c <= FactKey::instance_last(1));
    }

    #[test]
    fn control_key_lies_in_every_range_that_spans_its_task_and_in_no_fact_range() {
        let block = FactKey::control(1, 2);
        let inside = |lo: FactKey, hi: FactKey| lo <= block && block <= hi;
        assert!(inside(FactKey::task_first(1, 2), FactKey::task_last(1, 2)));
        assert!(inside(FactKey::task_first(1, 1), FactKey::task_last(1, 3)));
        assert!(inside(
            FactKey::instance_first(1),
            FactKey::instance_last(1)
        ));
        // After the task's last possible fact, before the next task's
        // first; neighbouring tasks' and instances' ranges exclude it.
        assert!(FactKey::output(1, 2, u32::MAX).fact_last() < block);
        assert!(block < FactKey::task_first(1, 3));
        assert!(!inside(FactKey::task_first(1, 1), FactKey::task_last(1, 1)));
        assert!(!inside(
            FactKey::instance_first(2),
            FactKey::instance_last(2)
        ));
        // What a compound repeat clears of its own — its input bindings,
        // first item to last — stops short of it, as does any one fact.
        assert!(!inside(
            FactKey::input(1, 2, 0),
            FactKey::input(1, 2, u32::MAX).fact_last()
        ));
        assert!(!inside(
            FactKey::output(1, 2, 0),
            FactKey::output(1, 2, 0).fact_last()
        ));
        assert_eq!(FactKey::task_last(1, 2).kind, FactKind::Control);
        assert_eq!(block.to_string(), "fact/1/2/ctl/0/0");
    }

    #[test]
    fn object_sub_keys_stay_inside_their_fact() {
        let base = FactKey::output(1, 2, 3);
        let first = base.object(0);
        let second = base.object(1);
        assert!(base < first, "the presence key is the fact's smallest");
        assert!(first < second, "object ordinals order the sub-keys");
        assert!(second <= base.fact_last());
        // The next fact of the same task starts past the sub-range.
        assert!(base.fact_last() < FactKey::output(1, 2, 4));
        // And the whole sub-range stays inside the task range.
        assert!(base.fact_last() <= FactKey::task_last(1, 2));
    }

    #[test]
    fn uids_order_before_facts() {
        let uid = StoreKey::from(ObjectUid::new("zzz"));
        let fact = StoreKey::from(FactKey::input(0, 0, 0));
        assert!(uid < fact);
    }

    #[test]
    fn keys_roundtrip_codec() {
        let keys = [
            StoreKey::from(ObjectUid::new("inst/a/meta")),
            StoreKey::from(FactKey::input(7, 3, 1)),
            StoreKey::from(FactKey::input(7, 3, 1).object(4)),
            StoreKey::from(FactKey::output(u32::MAX, u32::MAX, u32::MAX).fact_last()),
            StoreKey::from(FactKey::control(7, 3)),
            StoreKey::from(FactKey::task_last(u32::MAX, u32::MAX)),
        ];
        // A block's key is short: tag, instance, task, kind, item, obj.
        assert_eq!(
            flowscript_codec::to_bytes(&StoreKey::from(FactKey::control(7, 3))).len(),
            6
        );
        for key in keys {
            let bytes = flowscript_codec::to_bytes(&key);
            assert_eq!(
                flowscript_codec::from_bytes::<StoreKey>(&bytes).unwrap(),
                key
            );
        }
    }

    #[test]
    fn display_is_path_like() {
        assert_eq!(FactKey::output(1, 4, 2).to_string(), "fact/1/4/out/2/0");
        assert_eq!(
            FactKey::output(1, 4, 2).object(3).to_string(),
            "fact/1/4/out/2/4"
        );
        assert_eq!(
            StoreKey::from(ObjectUid::new("inst/i/meta")).to_string(),
            "inst/i/meta"
        );
    }
}
