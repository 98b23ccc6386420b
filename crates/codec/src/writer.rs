/// An append-only binary writer with little-endian primitives and varints.
///
/// `ByteWriter` is the sink for [`crate::Encode`]. All multi-byte integers
/// are little-endian; lengths are LEB128 varints so small collections stay
/// compact in the log.
///
/// ```
/// use flowscript_codec::ByteWriter;
///
/// let mut w = ByteWriter::new();
/// w.put_u16(0xBEEF);
/// w.put_var_u64(300);
/// assert_eq!(w.into_vec(), vec![0xEF, 0xBE, 0xAC, 0x02]);
/// ```
#[derive(Debug, Default)]
pub struct ByteWriter {
    pub(crate) buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Creates a writer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Empties the writer, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a signed byte.
    pub fn put_i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian `i16`.
    pub fn put_i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a LEB128 varint.
    pub fn put_var_u64(&mut self, mut v: u64) {
        loop {
            let mut byte = (v & 0x7F) as u8;
            v >>= 7;
            if v != 0 {
                byte |= 0x80;
            }
            self.buf.push(byte);
            if v == 0 {
                break;
            }
        }
    }

    /// Appends a collection length as a varint.
    pub fn put_len(&mut self, len: usize) {
        self.put_var_u64(len as u64);
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_len_prefixed(&mut self, bytes: &[u8]) {
        self.put_len(bytes.len());
        self.put_bytes(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len_prefixed(s.as_bytes());
    }

    /// Appends a boolean as a single `0`/`1` byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_small_values_single_byte() {
        for v in 0..128u64 {
            let mut w = ByteWriter::new();
            w.put_var_u64(v);
            assert_eq!(w.len(), 1, "value {v}");
        }
    }

    #[test]
    fn varint_max_width() {
        let mut w = ByteWriter::new();
        w.put_var_u64(u64::MAX);
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn little_endian_layout() {
        let mut w = ByteWriter::new();
        w.put_u32(0x0102_0304);
        assert_eq!(w.into_vec(), vec![4, 3, 2, 1]);
    }

    #[test]
    fn string_has_length_prefix() {
        let mut w = ByteWriter::new();
        w.put_str("ab");
        assert_eq!(w.into_vec(), vec![2, b'a', b'b']);
    }
}
