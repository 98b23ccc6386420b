use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::time::Duration;

use crate::writer::ByteWriter;

/// Serialises a value into a [`ByteWriter`].
///
/// Implementations must be deterministic: encoding equal values must
/// produce identical bytes (hash maps are therefore encoded in sorted key
/// order). This property is what lets the write-ahead log and the 2PC
/// participants compare states byte-wise.
///
/// ```
/// use flowscript_codec::{ByteWriter, Encode};
///
/// struct Point { x: i32, y: i32 }
///
/// impl Encode for Point {
///     fn encode(&self, w: &mut ByteWriter) {
///         self.x.encode(w);
///         self.y.encode(w);
///     }
/// }
///
/// let mut w = ByteWriter::new();
/// Point { x: 1, y: -2 }.encode(&mut w);
/// assert_eq!(w.len(), 8);
/// ```
pub trait Encode {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut ByteWriter);

    /// Appends the encodings of `items` back to back (no length prefix):
    /// the element loop behind every sequence encoding. Types whose
    /// encoding is their memory layout override it with one bulk copy;
    /// the bytes produced must equal the element-wise loop's.
    fn encode_slice(items: &[Self], w: &mut ByteWriter)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(w);
        }
    }
}

impl Encode for u8 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(*self);
    }

    fn encode_slice(items: &[Self], w: &mut ByteWriter) {
        w.put_bytes(items);
    }
}

impl Encode for u16 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u16(*self);
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(*self);
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }
}

impl Encode for u128 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u128(*self);
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_var_u64(*self as u64);
    }
}

impl Encode for i8 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_i8(*self);
    }
}

impl Encode for i16 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_i16(*self);
    }
}

impl Encode for i32 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_i32(*self);
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_i64(*self);
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(*self);
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bool(*self);
    }
}

impl Encode for str {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
}

impl Encode for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
}

impl Encode for Duration {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.as_secs());
        w.put_u32(self.subsec_nanos());
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut ByteWriter) {
        (**self).encode(w);
    }
}

impl<T: Encode> Encode for Box<T> {
    fn encode(&self, w: &mut ByteWriter) {
        (**self).encode(w);
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Encode, E: Encode> Encode for Result<T, E> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Ok(v) => {
                w.put_u8(0);
                v.encode(w);
            }
            Err(e) => {
                w.put_u8(1);
                e.encode(w);
            }
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.len());
        T::encode_slice(self, w);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        self.as_slice().encode(w);
    }
}

impl<T: Encode> Encode for VecDeque<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.len());
        for item in self {
            item.encode(w);
        }
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}

impl<K: Encode + Ord> Encode for BTreeSet<K> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.len());
        for k in self {
            k.encode(w);
        }
    }
}

impl<K, V, S> Encode for HashMap<K, V, S>
where
    K: Encode + Ord,
    V: Encode,
    S: std::hash::BuildHasher,
{
    fn encode(&self, w: &mut ByteWriter) {
        // Sort keys so equal maps encode identically (determinism contract).
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.put_len(entries.len());
        for (k, v) in entries {
            k.encode(w);
            v.encode(w);
        }
    }
}

impl<K, S> Encode for HashSet<K, S>
where
    K: Encode + Ord,
    S: std::hash::BuildHasher,
{
    fn encode(&self, w: &mut ByteWriter) {
        let mut entries: Vec<&K> = self.iter().collect();
        entries.sort();
        w.put_len(entries.len());
        for k in entries {
            k.encode(w);
        }
    }
}

impl Encode for () {
    fn encode(&self, _w: &mut ByteWriter) {}
}

macro_rules! impl_encode_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, w: &mut ByteWriter) {
                $(self.$idx.encode(w);)+
            }
        }
    };
}

impl_encode_tuple!(A: 0);
impl_encode_tuple!(A: 0, B: 1);
impl_encode_tuple!(A: 0, B: 1, C: 2);
impl_encode_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_encode_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_encode_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_bytes;

    #[test]
    fn hashmap_encoding_is_order_independent() {
        let mut a = HashMap::new();
        a.insert("x".to_string(), 1u32);
        a.insert("y".to_string(), 2u32);
        let mut b = HashMap::new();
        b.insert("y".to_string(), 2u32);
        b.insert("x".to_string(), 1u32);
        assert_eq!(to_bytes(&a), to_bytes(&b));
    }

    #[test]
    fn option_discriminants() {
        assert_eq!(to_bytes(&Option::<u8>::None), vec![0]);
        assert_eq!(to_bytes(&Some(9u8)), vec![1, 9]);
    }

    #[test]
    fn unit_encodes_to_nothing() {
        assert!(to_bytes(&()).is_empty());
    }

    #[test]
    fn duration_encodes_secs_then_nanos() {
        let bytes = to_bytes(&Duration::new(1, 2));
        assert_eq!(bytes.len(), 12);
        assert_eq!(bytes[0], 1);
        assert_eq!(bytes[8], 2);
    }
}
