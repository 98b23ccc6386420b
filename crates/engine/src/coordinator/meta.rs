//! What an instance persists besides control blocks and facts: its
//! status and outcome, the `InstanceMeta` record, and the string-keyed
//! object uid layout around them.

use std::collections::BTreeMap;

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use flowscript_core::ast::OutputKind;
use flowscript_tx::ObjectUid;

use crate::value::ObjectVal;

/// A terminated instance's (or compound's) outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Outcome name.
    pub name: String,
    /// Its declared kind (outcome or abort outcome).
    pub kind: OutputKind,
    /// Objects produced with it.
    pub objects: BTreeMap<String, ObjectVal>,
}

/// Where an instance stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceStatus {
    /// Work remains (or is in flight).
    Running,
    /// The root compound terminated.
    Completed(Outcome),
    /// No task can run and the root cannot terminate — the paper's
    /// "failure exceptions from the underlying system".
    Stuck {
        /// Human-readable explanation (failed/waiting tasks).
        reason: String,
    },
}

impl InstanceStatus {
    /// Whether the instance reached a terminal status.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, InstanceStatus::Running)
    }
}

fn kind_discriminant(kind: OutputKind) -> u8 {
    match kind {
        OutputKind::Outcome => 0,
        OutputKind::AbortOutcome => 1,
        OutputKind::RepeatOutcome => 2,
        OutputKind::Mark => 3,
    }
}

fn kind_from(discriminant: u8) -> Result<OutputKind, CodecError> {
    Ok(match discriminant {
        0 => OutputKind::Outcome,
        1 => OutputKind::AbortOutcome,
        2 => OutputKind::RepeatOutcome,
        3 => OutputKind::Mark,
        other => {
            return Err(CodecError::InvalidDiscriminant {
                ty: "OutputKind",
                value: u64::from(other),
            })
        }
    })
}

impl Encode for Outcome {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.name);
        w.put_u8(kind_discriminant(self.kind));
        self.objects.encode(w);
    }
}

impl Decode for Outcome {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Outcome {
            name: r.get_str()?.to_owned(),
            kind: kind_from(r.get_u8()?)?,
            objects: BTreeMap::decode(r)?,
        })
    }
}

impl Encode for InstanceStatus {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            InstanceStatus::Running => w.put_u8(0),
            InstanceStatus::Completed(outcome) => {
                w.put_u8(1);
                outcome.encode(w);
            }
            InstanceStatus::Stuck { reason } => {
                w.put_u8(2);
                w.put_str(reason);
            }
        }
    }
}

impl Decode for InstanceStatus {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => InstanceStatus::Running,
            1 => InstanceStatus::Completed(Outcome::decode(r)?),
            2 => InstanceStatus::Stuck {
                reason: r.get_str()?.to_owned(),
            },
            other => {
                return Err(CodecError::InvalidDiscriminant {
                    ty: "InstanceStatus",
                    value: u64::from(other),
                })
            }
        })
    }
}

/// Persistent per-instance metadata.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InstanceMeta {
    pub(super) script: String,
    pub(super) source: String,
    pub(super) root: String,
    pub(super) set: String,
    pub(super) inputs: BTreeMap<String, ObjectVal>,
    pub(super) status: InstanceStatus,
    pub(super) reconfig_count: u32,
    /// The dense numeric id all of this instance's fact keys carry.
    pub(super) instance_id: u32,
    /// The repository version the instance was started from (its "repo
    /// pointer", together with `script`), when started via RPC.
    pub(super) version: Option<u32>,
    /// Fingerprint of the instance's current compiled plan. Crash
    /// recovery fetches the plan persisted under this fingerprint and
    /// skips the front end entirely.
    pub(super) plan_fingerprint: u64,
}

impl Encode for InstanceMeta {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.script);
        w.put_str(&self.source);
        w.put_str(&self.root);
        w.put_str(&self.set);
        self.inputs.encode(w);
        self.status.encode(w);
        w.put_u32(self.reconfig_count);
        w.put_u32(self.instance_id);
        self.version.encode(w);
        w.put_u64(self.plan_fingerprint);
    }
}

impl Decode for InstanceMeta {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(InstanceMeta {
            script: r.get_str()?.to_owned(),
            source: r.get_str()?.to_owned(),
            root: r.get_str()?.to_owned(),
            set: r.get_str()?.to_owned(),
            inputs: BTreeMap::decode(r)?,
            status: InstanceStatus::decode(r)?,
            reconfig_count: r.get_u32()?,
            instance_id: r.get_u32()?,
            version: Option::decode(r)?,
            plan_fingerprint: r.get_u64()?,
        })
    }
}

// ---------------------------------------------------------------------
// Object uid layout (cold paths; facts use dense `FactKey`s).
// ---------------------------------------------------------------------

pub(super) fn reconfig_uid(instance: &str, n: u32) -> ObjectUid {
    ObjectUid::new(format!("inst/{instance}/reconfig/{n:08}"))
}

pub(super) fn bind_uid(instance: &str, code: &str) -> ObjectUid {
    ObjectUid::new(format!("inst/{instance}/bind/{code}"))
}

/// Compiled plans persist once per fingerprint, shared by every
/// instance running that plan; recovery decodes instead of recompiling.
pub(super) fn plan_uid(fingerprint: u64) -> ObjectUid {
    ObjectUid::new(format!("sys/plan/{fingerprint:016x}"))
}

/// Inverse of [`plan_uid`]: the fingerprint a persisted-plan uid names.
pub(super) fn plan_uid_fingerprint(uid: &ObjectUid) -> Option<u64> {
    uid.as_str()
        .strip_prefix("sys/plan/")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
}

/// The persistent instance-id allocator.
pub(super) fn instance_seq_uid() -> ObjectUid {
    ObjectUid::new("sys/instance_seq")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codec_roundtrip() {
        let statuses = vec![
            InstanceStatus::Running,
            InstanceStatus::Completed(Outcome {
                name: "done".into(),
                kind: OutputKind::Outcome,
                objects: BTreeMap::from([("x".to_string(), ObjectVal::text("C", "v"))]),
            }),
            InstanceStatus::Stuck {
                reason: "nothing to run".into(),
            },
        ];
        for status in statuses {
            let bytes = flowscript_codec::to_bytes(&status);
            assert_eq!(
                flowscript_codec::from_bytes::<InstanceStatus>(&bytes).unwrap(),
                status
            );
            let _ = status.is_terminal();
        }
    }

    #[test]
    fn meta_codec_roundtrip() {
        let meta = InstanceMeta {
            script: "order".into(),
            source: "class C;".into(),
            root: "root".into(),
            set: "main".into(),
            inputs: BTreeMap::from([("seed".to_string(), ObjectVal::text("C", "s"))]),
            status: InstanceStatus::Running,
            reconfig_count: 2,
            instance_id: 7,
            version: Some(3),
            plan_fingerprint: 0xDEAD_BEEF,
        };
        let bytes = flowscript_codec::to_bytes(&meta);
        assert_eq!(
            flowscript_codec::from_bytes::<InstanceMeta>(&bytes).unwrap(),
            meta
        );
    }
}
