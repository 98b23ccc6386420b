use std::fmt;

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};

/// Identifies a transaction (atomic action).
///
/// Ordering is by `(seq, node)`: the sequence number gives the global age
/// used by the wait-die deadlock policy, with the node id as tie-breaker
/// for transactions begun on different nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId {
    node: u32,
    seq: u64,
}

impl TxId {
    /// Creates an id from its parts.
    pub fn new(node: u32, seq: u64) -> Self {
        Self { node, seq }
    }

    /// The node that began the transaction.
    pub fn node(self) -> u32 {
        self.node
    }

    /// The per-manager sequence number.
    pub fn seq(self) -> u64 {
        self.seq
    }

    /// Whether `self` is older (began earlier) than `other` — the wait-die
    /// seniority test.
    pub fn is_older_than(self, other: TxId) -> bool {
        (self.seq, self.node) < (other.seq, other.node)
    }
}

impl PartialOrd for TxId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TxId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.seq, self.node).cmp(&(other.seq, other.node))
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}.{}", self.node, self.seq)
    }
}

impl Encode for TxId {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.node);
        w.put_u64(self.seq);
    }
}

impl Decode for TxId {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let node = r.get_u32()?;
        let seq = r.get_u64()?;
        Ok(TxId { node, seq })
    }
}

/// Names a persistent object in the store.
///
/// Uids are plain strings so that engine state is self-describing in the
/// log (e.g. `"instance/3/task/order/dispatch"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectUid(String);

impl ObjectUid {
    /// Creates a uid from a path-like name.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }

    /// The textual name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ObjectUid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ObjectUid {
    fn from(s: &str) -> Self {
        ObjectUid::new(s)
    }
}

impl Encode for ObjectUid {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.0);
    }
}

impl Decode for ObjectUid {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ObjectUid(r.get_str()?.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txid_age_ordering() {
        let old = TxId::new(5, 1);
        let young = TxId::new(0, 2);
        assert!(old.is_older_than(young));
        assert!(!young.is_older_than(old));
        assert!(old < young);
        // Same seq: node breaks ties.
        assert!(TxId::new(0, 7).is_older_than(TxId::new(1, 7)));
    }

    #[test]
    fn ids_roundtrip_codec() {
        let tx = TxId::new(3, 99);
        let bytes = flowscript_codec::to_bytes(&tx);
        assert_eq!(flowscript_codec::from_bytes::<TxId>(&bytes).unwrap(), tx);

        let uid = ObjectUid::new("a/b");
        let bytes = flowscript_codec::to_bytes(&uid);
        assert_eq!(
            flowscript_codec::from_bytes::<ObjectUid>(&bytes).unwrap(),
            uid
        );
    }
}
