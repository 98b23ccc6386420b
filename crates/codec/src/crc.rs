//! Table-driven CRC-32 (ISO-HDLC / "CRC-32" as used by zlib and Ethernet).
//!
//! The write-ahead log stores a checksum with every frame so that torn
//! writes and bit rot are detected during recovery instead of being
//! replayed as garbage. Every logged byte passes through here once on
//! append and once on scan, so the update folds eight input bytes per
//! step (slice-by-8) instead of one.

/// The reflected ISO-HDLC polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables. `TABLES[0]` is the classic bytewise table;
/// `TABLES[k][b]` is the checksum of byte `b` followed by `k` zero
/// bytes, which is what lets eight table reads advance eight bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Incremental CRC-32 state.
///
/// ```
/// use flowscript_codec::Crc32;
///
/// let mut crc = Crc32::new();
/// crc.update(b"hello ");
/// crc.update(b"world");
/// assert_eq!(crc.finish(), flowscript_codec::crc32(b"hello world"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            state = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = state;
    }

    /// Finalises and returns the checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The plain bytewise table CRC, with a 256-entry table of its own:
    /// the reference the sliced update is held against.
    fn oracle(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            let idx = ((state ^ u32::from(b)) & 0xFF) as usize;
            state = (state >> 8) ^ table[idx];
        }
        state ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_offset_and_split() {
        let data: Vec<u8> = (0..72u32).map(|i| (i * 167 + 13) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &data[offset..offset + len];
                let expected = oracle(bytes);
                assert_eq!(crc32(bytes), expected, "offset {offset} len {len}");
                for split in 0..=len {
                    let mut crc = Crc32::new();
                    crc.update(&bytes[..split]);
                    crc.update(&bytes[split..]);
                    assert_eq!(
                        crc.finish(),
                        expected,
                        "offset {offset} len {len} split {split}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32(&data), oracle(&data));
        for split in [0, 1, 17, 128, 255, 256] {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"the quick brown fox".to_vec();
        let original = crc32(&data);
        data[3] ^= 0x01;
        assert_ne!(crc32(&data), original);
    }
}
