use crate::error::CodecError;

/// Maximum length a decoder will accept for a single collection or string.
///
/// This is a safety net against corrupt frames claiming multi-gigabyte
/// lengths and causing pathological allocations during recovery.
pub(crate) const MAX_DECODE_LEN: u64 = 1 << 30;

/// A cursor over a byte slice with little-endian and varint primitives.
///
/// `ByteReader` is the source for [`crate::Decode`]. Every read is bounds
/// checked and reports [`CodecError::UnexpectedEof`] rather than panicking.
///
/// ```
/// use flowscript_codec::ByteReader;
///
/// # fn main() -> Result<(), flowscript_codec::CodecError> {
/// let mut r = ByteReader::new(&[0xEF, 0xBE]);
/// assert_eq!(r.get_u16()?, 0xBEEF);
/// assert_eq!(r.remaining(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Current byte offset from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a single byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the input is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a signed byte.
    pub fn get_i8(&mut self) -> Result<i8, CodecError> {
        Ok(self.get_u8()? as i8)
    }

    /// Reads a little-endian `i16`.
    pub fn get_i16(&mut self) -> Result<i16, CodecError> {
        Ok(self.get_u16()? as i16)
    }

    /// Reads a little-endian `i32`.
    pub fn get_i32(&mut self) -> Result<i32, CodecError> {
        Ok(self.get_u32()? as i32)
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a little-endian IEEE-754 `f64`.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`CodecError::VarintOverflow`] if the encoding exceeds 10 bytes or
    /// sets bits above the 64th.
    pub fn get_var_u64(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::VarintOverflow);
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::VarintOverflow);
            }
        }
    }

    /// Reads a collection length, bounding it by an internal 1 GiB cap.
    ///
    /// # Errors
    ///
    /// [`CodecError::LengthOverflow`] if the length exceeds the bound.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let len = self.get_var_u64()?;
        if len > MAX_DECODE_LEN {
            return Err(CodecError::LengthOverflow {
                length: len,
                max: MAX_DECODE_LEN,
            });
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_len_prefixed(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_len()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidUtf8`] if the bytes are not valid UTF-8.
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.get_len_prefixed()?).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Reads a boolean encoded as a `0`/`1` byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidBool`] for any other byte value.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::InvalidBool(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::ByteWriter;

    #[test]
    fn eof_reports_needed_and_available() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.get_u32().unwrap_err();
        assert_eq!(
            err,
            CodecError::UnexpectedEof {
                needed: 4,
                available: 2
            }
        );
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut w = ByteWriter::new();
            w.put_var_u64(v);
            let bytes = w.into_vec();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.get_var_u64().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn varint_overflow_detected() {
        // 11 continuation bytes can never be a valid u64 varint.
        let bytes = [0xFFu8; 11];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_var_u64().unwrap_err(), CodecError::VarintOverflow);
    }

    #[test]
    fn varint_overflow_top_bits() {
        // 10th byte may only contribute one bit.
        let bytes = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_var_u64().unwrap_err(), CodecError::VarintOverflow);
    }

    #[test]
    fn invalid_utf8_reported() {
        let mut w = ByteWriter::new();
        w.put_len_prefixed(&[0xFF, 0xFE]);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_str().unwrap_err(), CodecError::InvalidUtf8);
    }

    #[test]
    fn bool_rejects_junk() {
        let mut r = ByteReader::new(&[7]);
        assert_eq!(r.get_bool().unwrap_err(), CodecError::InvalidBool(7));
    }

    #[test]
    fn position_tracks_consumption() {
        let mut r = ByteReader::new(&[0; 8]);
        r.get_u16().unwrap();
        assert_eq!(r.position(), 2);
        r.get_u32().unwrap();
        assert_eq!(r.position(), 6);
        assert_eq!(r.remaining(), 2);
    }
}
