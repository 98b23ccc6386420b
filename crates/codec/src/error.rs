use std::fmt;

/// Errors produced while decoding or framing binary data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The reader ran out of bytes before the value was complete.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A varint ran past its maximum encodable width.
    VarintOverflow,
    /// A length prefix exceeded the configured or sane maximum.
    LengthOverflow {
        /// The offending length.
        length: u64,
        /// The maximum permitted.
        max: u64,
    },
    /// String data was not valid UTF-8.
    InvalidUtf8,
    /// An enum discriminant did not match any known variant.
    InvalidDiscriminant {
        /// The type being decoded (static description).
        ty: &'static str,
        /// The unrecognised discriminant.
        value: u64,
    },
    /// A boolean byte was neither 0 nor 1.
    InvalidBool(u8),
    /// The value decoded but unconsumed bytes remained.
    TrailingBytes {
        /// Count of bytes left over.
        remaining: usize,
    },
    /// A log's magic bytes did not match its format's.
    BadMagic([u8; 4]),
    /// A log declared a format version this build does not read.
    UnsupportedVersion(u16),
    /// A frame's checksum did not match its payload.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A frame was truncated mid-record (e.g. torn write at log tail).
    TruncatedFrame,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, available } => write!(
                f,
                "unexpected end of input: needed {needed} bytes, {available} available"
            ),
            CodecError::VarintOverflow => write!(f, "varint exceeded maximum width"),
            CodecError::LengthOverflow { length, max } => {
                write!(f, "length {length} exceeds maximum {max}")
            }
            CodecError::InvalidUtf8 => write!(f, "string data was not valid UTF-8"),
            CodecError::InvalidDiscriminant { ty, value } => {
                write!(f, "invalid discriminant {value} for {ty}")
            }
            CodecError::InvalidBool(b) => write!(f, "invalid boolean byte {b:#04x}"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} unconsumed bytes after value")
            }
            CodecError::BadMagic(m) => write!(f, "bad log magic {m:02x?}"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported log version {v}"),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CodecError::TruncatedFrame => write!(f, "truncated frame"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let cases = [
            CodecError::UnexpectedEof {
                needed: 4,
                available: 1,
            },
            CodecError::VarintOverflow,
            CodecError::LengthOverflow { length: 9, max: 4 },
            CodecError::InvalidUtf8,
            CodecError::InvalidDiscriminant { ty: "T", value: 9 },
            CodecError::InvalidBool(7),
            CodecError::TrailingBytes { remaining: 3 },
            CodecError::BadMagic(*b"nope"),
            CodecError::UnsupportedVersion(99),
            CodecError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            CodecError::TruncatedFrame,
        ];
        for case in cases {
            let text = case.to_string();
            assert!(!text.is_empty());
            let first = text.chars().next().unwrap();
            assert!(
                !first.is_uppercase(),
                "message should not start capitalised: {text}"
            );
        }
    }
}
