use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::time::Duration;

use crate::error::CodecError;
use crate::reader::ByteReader;

/// Deserialises a value from a [`ByteReader`].
///
/// The inverse of [`crate::Encode`]: for every implementing type,
/// `decode(encode(v)) == v` (property-tested in this crate).
///
/// ```
/// use flowscript_codec::{ByteReader, Decode};
///
/// # fn main() -> Result<(), flowscript_codec::CodecError> {
/// let bytes = flowscript_codec::to_bytes(&vec![1u16, 2, 3]);
/// let v = Vec::<u16>::decode(&mut ByteReader::new(&bytes))?;
/// assert_eq!(v, vec![1, 2, 3]);
/// # Ok(())
/// # }
/// ```
pub trait Decode: Sized {
    /// Reads one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] raised by malformed or truncated input.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;

    /// Reads `len` values back to back (the length prefix is already
    /// consumed): the element loop behind every sequence decoding, and
    /// the inverse of [`crate::Encode::encode_slice`]. Overrides must
    /// keep the guarantee below: a corrupt `len` fails with a typed
    /// error before anything near `len` elements is allocated.
    ///
    /// # Errors
    ///
    /// As for [`Decode::decode`].
    fn decode_vec(len: usize, r: &mut ByteReader<'_>) -> Result<Vec<Self>, CodecError> {
        // Guard the pre-allocation: a corrupt length must not OOM us even
        // when it passes the global bound, so cap by what could possibly
        // fit in the remaining input (each element needs >= 1 byte, except
        // zero-sized ones which we just collect without reservation).
        let cap = len.min(r.remaining().max(1));
        let mut out = Vec::with_capacity(cap);
        for _ in 0..len {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }
}

impl Decode for u8 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u8()
    }

    fn decode_vec(len: usize, r: &mut ByteReader<'_>) -> Result<Vec<Self>, CodecError> {
        // `get_bytes` checks `len` against the remaining input before
        // the copy allocates.
        Ok(r.get_bytes(len)?.to_vec())
    }
}

impl Decode for u16 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u16()
    }
}

impl Decode for u32 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u32()
    }
}

impl Decode for u64 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u64()
    }
}

impl Decode for u128 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u128()
    }
}

impl Decode for usize {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(r.get_var_u64()? as usize)
    }
}

impl Decode for i8 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_i8()
    }
}

impl Decode for i16 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_i16()
    }
}

impl Decode for i32 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_i32()
    }
}

impl Decode for i64 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_i64()
    }
}

impl Decode for f64 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_f64()
    }
}

impl Decode for bool {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_bool()
    }
}

impl Decode for String {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(r.get_str()?.to_owned())
    }
}

impl Decode for Duration {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let secs = r.get_u64()?;
        let nanos = r.get_u32()?;
        Ok(Duration::new(secs, nanos))
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(CodecError::InvalidDiscriminant {
                ty: "Option",
                value: u64::from(other),
            }),
        }
    }
}

impl<T: Decode, E: Decode> Decode for Result<T, E> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Ok(T::decode(r)?)),
            1 => Ok(Err(E::decode(r)?)),
            other => Err(CodecError::InvalidDiscriminant {
                ty: "Result",
                value: u64::from(other),
            }),
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        T::decode_vec(len, r)
    }
}

impl<T: Decode> Decode for VecDeque<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Decode + Ord> Decode for BTreeSet<K> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(K::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Decode + Eq + Hash, V: Decode> Decode for HashMap<K, V> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut out = HashMap::with_capacity(len.min(r.remaining().max(1)));
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Decode + Eq + Hash> Decode for HashSet<K> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_len()?;
        let mut out = HashSet::with_capacity(len.min(r.remaining().max(1)));
        for _ in 0..len {
            out.insert(K::decode(r)?);
        }
        Ok(out)
    }
}

impl Decode for () {
    fn decode(_r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

macro_rules! impl_decode_tuple {
    ($($name:ident),+) => {
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_decode_tuple!(A);
impl_decode_tuple!(A, B);
impl_decode_tuple!(A, B, C);
impl_decode_tuple!(A, B, C, D);
impl_decode_tuple!(A, B, C, D, E);
impl_decode_tuple!(A, B, C, D, E, F);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    #[test]
    fn collections_roundtrip() {
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), vec![1u8, 2]);
        map.insert("b".to_string(), vec![]);
        let bytes = to_bytes(&map);
        assert_eq!(
            from_bytes::<BTreeMap<String, Vec<u8>>>(&bytes).unwrap(),
            map
        );

        let set: HashSet<u32> = [5, 9, 1].into_iter().collect();
        let bytes = to_bytes(&set);
        assert_eq!(from_bytes::<HashSet<u32>>(&bytes).unwrap(), set);
    }

    #[test]
    fn corrupt_length_does_not_allocate_unbounded() {
        // Claim a huge vector with only 2 bytes of payload.
        let mut bytes = Vec::new();
        let mut w = crate::ByteWriter::new();
        w.put_var_u64(1_000_000);
        bytes.extend_from_slice(w.as_slice());
        bytes.extend_from_slice(&[1, 2]);
        let err = from_bytes::<Vec<u8>>(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }));
    }

    #[test]
    fn option_bad_discriminant() {
        let err = from_bytes::<Option<u8>>(&[9]).unwrap_err();
        assert_eq!(
            err,
            CodecError::InvalidDiscriminant {
                ty: "Option",
                value: 9
            }
        );
    }

    #[test]
    fn result_roundtrip() {
        let ok: Result<u8, String> = Ok(3);
        let err: Result<u8, String> = Err("bad".into());
        assert_eq!(
            from_bytes::<Result<u8, String>>(&to_bytes(&ok)).unwrap(),
            ok
        );
        assert_eq!(
            from_bytes::<Result<u8, String>>(&to_bytes(&err)).unwrap(),
            err
        );
    }

    #[test]
    fn nested_tuples_roundtrip() {
        let v = ((1u8, "x".to_string()), Some((2u64, false)));
        let bytes = to_bytes(&v);
        let back: ((u8, String), Option<(u64, bool)>) = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }
}
