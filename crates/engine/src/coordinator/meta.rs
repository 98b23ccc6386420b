//! What an instance persists besides control blocks and facts: the
//! [`InstanceHeader`] (the script version it runs and its dense id), a
//! [`StuckRecord`] while it is parked `Stuck`, and — once per shard,
//! shared by content — the canonical source of its script's current
//! version under its [`source_hash`], which the plan it runs is compiled
//! from. Their field order lives here; their uids in [`crate::keys`].
//! None repeats what the log says elsewhere: where an instance stands is
//! not a stored type (`Running` and `Completed` are read off its root
//! block), and what it was started on is its root's input fact.

use std::collections::BTreeMap;

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use flowscript_core::ast::OutputKind;

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

/// The first byte of every stored [`InstanceHeader`] and
/// [`StuckRecord`]: bytes written under any other layout — the
/// pre-split record opened with its script name's length, the status
/// record that stored every status under `0xA2`, the header that copied
/// its start's input set and objects under `0xA1`, the one that named
/// its script under `0xA4` — fail to decode instead of reading as a
/// record with garbage fields.
const HEADER_TAG: u8 = 0xA5;
const STUCK_TAG: u8 = 0xA3;

fn expect_tag(r: &mut ByteReader<'_>, tag: u8, ty: &'static str) -> Result<(), CodecError> {
    match r.get_u8()? {
        found if found == tag => Ok(()),
        other => Err(CodecError::InvalidDiscriminant {
            ty,
            value: u64::from(other),
        }),
    }
}

/// `inst/<name>/meta` — the version of its script an instance runs
/// (named by `source_hash` and `root`) and the dense id its facts carry.
/// It holds nothing the log says elsewhere, and nothing unread: the
/// input set and objects it was started with are the root's input fact,
/// and the script's name only fetched the source the header pins by
/// hash.
/// Written by instance start, rewritten by a reconfiguration (a new
/// version of the script) and by hand-off re-keying (a new owner allots
/// a new `instance_id`). Nothing on the run path writes it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InstanceHeader {
    /// [`source_hash`] of the canonical source of the script's current
    /// version, pinned once per shard under `sys/src/<hash>`: with
    /// `root`, it names the version, and the plan is that text compiled.
    pub(super) source_hash: u64,
    pub(super) root: String,
    /// The dense numeric id all of this instance's fact keys carry.
    pub(super) instance_id: u32,
}

impl Encode for InstanceHeader {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(HEADER_TAG);
        w.put_u64(self.source_hash);
        w.put_str(&self.root);
        w.put_u32(self.instance_id);
    }
}

impl Decode for InstanceHeader {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        expect_tag(r, HEADER_TAG, "InstanceHeader")?;
        Ok(InstanceHeader {
            source_hash: r.get_u64()?,
            root: r.get_str()?.to_owned(),
            instance_id: r.get_u32()?,
        })
    }
}

/// `inst/<name>/status` — why an instance is parked `Stuck`: written by
/// the step that parks it, deleted by the one that revives it. An
/// instance that never got stuck has none.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StuckRecord {
    pub(super) reason: String,
}

impl Encode for StuckRecord {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(STUCK_TAG);
        w.put_str(&self.reason);
    }
}

impl Decode for StuckRecord {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        expect_tag(r, STUCK_TAG, "StuckRecord")?;
        Ok(StuckRecord {
            reason: r.get_str()?.to_owned(),
        })
    }
}

/// The content hash a canonical source is pinned under: its length over
/// its CRC-32 (slice-by-8 — a start hashes kilobytes of script text).
/// Nothing rests on it being collision-free: a start that finds
/// different text under its hash is refused, and every read re-checks.
pub(super) fn source_hash(source: &str) -> u64 {
    (source.len() as u64) << 32 | u64::from(flowscript_codec::crc32(source.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> InstanceHeader {
        InstanceHeader {
            source_hash: source_hash("class C;"),
            root: "root".into(),
            instance_id: 7,
        }
    }

    #[test]
    fn header_and_stuck_record_codec_roundtrip() {
        let header = header();
        let bytes = flowscript_codec::to_bytes(&header);
        assert_eq!(
            flowscript_codec::from_bytes::<InstanceHeader>(&bytes).unwrap(),
            header
        );
        let stuck = StuckRecord {
            reason: "nothing to run".into(),
        };
        let stuck_bytes = flowscript_codec::to_bytes(&stuck);
        assert_eq!(
            flowscript_codec::from_bytes::<StuckRecord>(&stuck_bytes).unwrap(),
            stuck
        );
        // Neither record reads as the other.
        assert!(flowscript_codec::from_bytes::<InstanceHeader>(&stuck_bytes).is_err());
        assert!(flowscript_codec::from_bytes::<StuckRecord>(&bytes).is_err());
        // Nor does a status record of the layout that stored every
        // status: `Running`, and `Stuck` with the same reason.
        let mut stored_stuck = b"\xA2\x02".to_vec();
        stored_stuck.extend_from_slice(&stuck_bytes[1..]);
        for stored in [&b"\xA2\x00"[..], &stored_stuck] {
            assert!(flowscript_codec::from_bytes::<StuckRecord>(stored).is_err());
        }
    }

    /// What the layout before the split stored under `inst/<name>/meta`
    /// for the header above of script `order` started from repository
    /// version 3,
    /// `Running`, two reconfigurations (rendered
    /// by the last commit that wrote it): script, the source text
    /// `class C;` itself, root, set, inputs, status, the reconfiguration
    /// count, instance_id, version, plan_fingerprint.
    const PRE_SPLIT_RECORD: &[u8] = b"\x05order\x08class C;\x04root\x04main\
        \x01\x04seed\x01C\x01s\x00\
        \x00\x02\0\0\0\x07\0\0\0\x01\x03\0\0\0\xEF\xBE\xAD\xDE\0\0\0\0";

    #[test]
    fn the_pre_split_record_decodes_as_neither() {
        assert_eq!(PRE_SPLIT_RECORD.len(), 58);
        // It opened with its script name's length, which is no tag.
        let not_tagged = |ty| CodecError::InvalidDiscriminant { ty, value: 5 };
        assert_eq!(
            flowscript_codec::from_bytes::<InstanceHeader>(PRE_SPLIT_RECORD),
            Err(not_tagged("InstanceHeader"))
        );
        assert_eq!(
            flowscript_codec::from_bytes::<StuckRecord>(PRE_SPLIT_RECORD),
            Err(not_tagged("StuckRecord"))
        );
    }

    /// What the layout before the last stored under `inst/<name>/meta`
    /// for the header above of script `order`, started on set `main`
    /// with the input `seed`: tag `0xA1`, script, source hash, root, then
    /// the copies of the start's set and objects the root's input fact
    /// holds, then instance_id.
    const COPYING_HEADER: &[u8] = b"\xA1\x05order\x30\xA4\x12\x21\x08\0\0\0\x04root\
        \x04main\x01\x04seed\x01C\x01s\x00\x07\0\0\0";

    #[test]
    fn the_copying_header_decodes_as_neither() {
        assert_eq!(COPYING_HEADER.len(), 40);
        assert_eq!(COPYING_HEADER[7..15], source_hash("class C;").to_le_bytes());
        let tagged = |ty| CodecError::InvalidDiscriminant { ty, value: 0xA1 };
        assert_eq!(
            flowscript_codec::from_bytes::<InstanceHeader>(COPYING_HEADER),
            Err(tagged("InstanceHeader"))
        );
        assert_eq!(
            flowscript_codec::from_bytes::<StuckRecord>(COPYING_HEADER),
            Err(tagged("StuckRecord"))
        );
        // What is left of it under the new tag: the script, the set
        // and the objects gone, 22 B fewer.
        assert_eq!(flowscript_codec::to_bytes(&header()).len(), 18);
    }

    /// What the layout before this one stored under `inst/<name>/meta`
    /// for the header above of script `order`: tag `0xA4`, script,
    /// source hash, root, instance_id.
    const NAMING_HEADER: &[u8] = b"\xA4\x05order\x30\xA4\x12\x21\x08\0\0\0\x04root\x07\0\0\0";

    #[test]
    fn the_naming_header_decodes_as_neither() {
        assert_eq!(NAMING_HEADER.len(), 24);
        assert_eq!(NAMING_HEADER[7..15], source_hash("class C;").to_le_bytes());
        let tagged = |ty| CodecError::InvalidDiscriminant { ty, value: 0xA4 };
        assert_eq!(
            flowscript_codec::from_bytes::<InstanceHeader>(NAMING_HEADER),
            Err(tagged("InstanceHeader"))
        );
        assert_eq!(
            flowscript_codec::from_bytes::<StuckRecord>(NAMING_HEADER),
            Err(tagged("StuckRecord"))
        );
        // The new layout is the old one less its script's name.
        let mut renamed = vec![HEADER_TAG];
        renamed.extend_from_slice(&NAMING_HEADER[7..]);
        assert_eq!(flowscript_codec::to_bytes(&header()), renamed);
    }

    #[test]
    fn source_hash_tells_texts_apart_by_length_and_content() {
        assert_eq!(source_hash("class C;") >> 32, 8);
        assert_ne!(source_hash("class C;"), source_hash("class D;"));
        assert_ne!(source_hash("class C;"), source_hash("class C; "));
    }
}
