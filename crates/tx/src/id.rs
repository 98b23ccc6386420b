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

/// Two varints, node then sequence number: both are small in every log
/// a shard writes, and an id sits in every commit record.
impl Encode for TxId {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_var_u64(u64::from(self.node));
        w.put_var_u64(self.seq);
    }
}

impl Decode for TxId {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let node = u32::try_from(r.get_var_u64()?).map_err(|_| CodecError::VarintOverflow)?;
        let seq = r.get_var_u64()?;
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
    fn txids_roundtrip_as_two_varints_and_keep_their_order() {
        let ids = [
            TxId::new(0, 0),
            TxId::new(3, 99),
            TxId::new(0, 128),
            TxId::new(u32::MAX, 1 << 40),
            TxId::new(7, u64::MAX),
        ];
        for tx in ids {
            let bytes = flowscript_codec::to_bytes(&tx);
            assert_eq!(flowscript_codec::from_bytes::<TxId>(&bytes).unwrap(), tx);
        }
        // What a shard mints is two or three bytes, not twelve.
        assert_eq!(flowscript_codec::to_bytes(&TxId::new(3, 99)).len(), 2);
        assert_eq!(flowscript_codec::to_bytes(&TxId::new(3, 9_999)).len(), 3);
        // Age order survives the trip (it is by value, not by bytes).
        let decoded = ids.map(|tx| {
            flowscript_codec::from_bytes::<TxId>(&flowscript_codec::to_bytes(&tx)).unwrap()
        });
        assert!(decoded.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn an_overflowing_node_is_a_typed_error_not_a_truncation() {
        let mut w = ByteWriter::new();
        w.put_var_u64(u64::from(u32::MAX) + 1);
        w.put_var_u64(1);
        assert_eq!(
            flowscript_codec::from_bytes::<TxId>(&w.into_vec()).unwrap_err(),
            CodecError::VarintOverflow
        );
    }

    #[test]
    fn uids_roundtrip_codec() {
        let uid = ObjectUid::new("a/b");
        let bytes = flowscript_codec::to_bytes(&uid);
        assert_eq!(
            flowscript_codec::from_bytes::<ObjectUid>(&bytes).unwrap(),
            uid
        );
    }
}
