#![warn(missing_docs)]
//! Binary encoding, decoding, framing and checksums for `flowscript`.
//!
//! The transaction log (`flowscript-tx`), the simulated network messages
//! (`flowscript-sim`) and the engine's persistent control blocks all need a
//! stable, self-contained binary representation. This crate provides:
//!
//! - [`ByteWriter`] / [`ByteReader`]: primitive-level little-endian and
//!   varint encoding over byte buffers,
//! - [`Encode`] / [`Decode`]: structured value (de)serialisation traits with
//!   implementations for common standard-library types,
//! - [`crc32`]: a table-driven CRC-32 (ISO-HDLC polynomial),
//! - [`frame`]: length-prefixed, checksummed record frames used by the
//!   write-ahead log,
//! - [`IdHasher`] / [`IdMap`]: a fixed hasher for keys the program mints.
//!
//! # Examples
//!
//! ```
//! use flowscript_codec::{Decode, Encode};
//!
//! # fn main() -> Result<(), flowscript_codec::CodecError> {
//! let value = (42u64, String::from("hello"), vec![1u32, 2, 3]);
//! let bytes = flowscript_codec::to_bytes(&value);
//! let back: (u64, String, Vec<u32>) = flowscript_codec::from_bytes(&bytes)?;
//! assert_eq!(value, back);
//! # Ok(())
//! # }
//! ```

use std::cell::Cell;

mod crc;
mod decode;
mod encode;
mod error;
pub mod frame;
mod hash;
mod reader;
mod writer;

pub use crc::{crc32, Crc32};
pub use decode::Decode;
pub use encode::Encode;
pub use error::CodecError;
pub use frame::{FrameReader, FrameWriter};
pub use hash::{IdHasher, IdMap};
pub use reader::ByteReader;
pub use writer::ByteWriter;

/// Encodes a value into a freshly allocated byte vector of exactly its
/// length (see [`encode_exact`]).
///
/// ```
/// let bytes = flowscript_codec::to_bytes(&7u32);
/// assert_eq!(bytes, vec![7, 0, 0, 0]);
/// ```
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    encode_exact(|writer| value.encode(writer))
}

/// The largest scratch buffer a thread keeps between encodes.
const SCRATCH_KEPT: usize = 64 * 1024;

thread_local! {
    /// The buffer [`encode_exact`] writes into, kept between calls.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// What `write` puts in a writer, as a vector of exactly its length: it
/// writes into a scratch buffer the thread keeps, so the one allocation
/// is the result's, which keeps no slack. A `write` that encodes
/// another value this way meanwhile gets a buffer of its own.
///
/// ```
/// let bytes = flowscript_codec::encode_exact(|w| w.put_str("hi"));
/// assert_eq!((bytes.as_slice(), bytes.capacity()), (&[2, b'h', b'i'][..], 3));
/// ```
pub fn encode_exact(write: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut writer = ByteWriter {
        buf: SCRATCH.take(),
    };
    write(&mut writer);
    let bytes = writer.as_slice().to_vec();
    let mut scratch = writer.into_vec();
    if scratch.capacity() <= SCRATCH_KEPT {
        scratch.clear();
        SCRATCH.set(scratch);
    }
    bytes
}

/// Decodes a value from a byte slice, requiring the slice to be fully
/// consumed.
///
/// # Errors
///
/// Returns [`CodecError::TrailingBytes`] when the value decodes successfully
/// but bytes remain, and propagates any decode failure.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut reader = ByteReader::new(bytes);
    let value = T::decode(&mut reader)?;
    if reader.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            remaining: reader.remaining(),
        });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_via_helpers() {
        let v = vec![(1u8, -5i64), (2, 9)];
        let bytes = to_bytes(&v);
        let back: Vec<(u8, i64)> = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&3u16);
        bytes.push(0xFF);
        let err = from_bytes::<u16>(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::TrailingBytes { remaining: 1 }));
    }
}
