//! Property tests: every `Encode` implementation round-trips through
//! `Decode`, and framing survives arbitrary payload content.

use std::collections::{BTreeMap, HashMap};

use flowscript_codec::{
    from_bytes, to_bytes, ByteWriter, CodecError, Encode, FrameReader, FrameWriter,
};
use proptest::prelude::*;

fn roundtrip<T>(value: &T) -> T
where
    T: flowscript_codec::Encode + flowscript_codec::Decode,
{
    from_bytes(&to_bytes(value)).expect("roundtrip decode")
}

proptest! {
    #[test]
    fn u64_roundtrip(v: u64) {
        prop_assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn i64_roundtrip(v: i64) {
        prop_assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn string_roundtrip(v in ".*") {
        let s = v.to_string();
        prop_assert_eq!(roundtrip(&s), s);
    }

    #[test]
    fn vec_of_tuples_roundtrip(v: Vec<(u32, String, bool)>) {
        prop_assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn option_nested_roundtrip(v: Option<Option<Vec<u8>>>) {
        prop_assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn bulk_byte_path_is_wire_identical_to_the_element_loop(v: Vec<u8>) {
        let mut manual = ByteWriter::new();
        manual.put_len(v.len());
        for byte in &v {
            byte.encode(&mut manual);
        }
        prop_assert_eq!(to_bytes(&v), manual.into_vec());
        prop_assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn optional_bytes_roundtrip(v: Option<Vec<u8>>, keyed: Vec<(String, Option<Vec<u8>>)>) {
        prop_assert_eq!(roundtrip(&v), v);
        prop_assert_eq!(roundtrip(&keyed), keyed);
    }

    #[test]
    fn corrupt_bulk_length_is_a_typed_error(
        claimed in prop_oneof![0u64..64, 0u64..(1u64 << 40)],
        tail: Vec<u8>,
    ) {
        // A length prefix that promises more bytes than follow must fail
        // with the typed error (checked before the copy allocates) and a
        // length within the input must decode.
        let mut w = ByteWriter::new();
        w.put_var_u64(claimed);
        w.put_bytes(&tail);
        match from_bytes::<Vec<u8>>(w.as_slice()) {
            Ok(bytes) => prop_assert_eq!(bytes.len() as u64, claimed),
            Err(CodecError::UnexpectedEof { needed, available }) => {
                prop_assert_eq!(needed as u64, claimed);
                prop_assert_eq!(available, tail.len());
            }
            Err(CodecError::LengthOverflow { length, .. }) => prop_assert_eq!(length, claimed),
            Err(CodecError::TrailingBytes { remaining }) => {
                prop_assert_eq!(remaining as u64, tail.len() as u64 - claimed);
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    #[test]
    fn btreemap_roundtrip(v: BTreeMap<String, Vec<i32>>) {
        prop_assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn hashmap_roundtrip(v: HashMap<u32, String>) {
        prop_assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn hashmap_encoding_deterministic(v: HashMap<String, u64>) {
        // Re-inserting in a different order must not change the encoding.
        let mut shuffled = HashMap::new();
        let mut keys: Vec<_> = v.keys().cloned().collect();
        keys.reverse();
        for k in keys {
            shuffled.insert(k.clone(), v[&k]);
        }
        prop_assert_eq!(to_bytes(&v), to_bytes(&shuffled));
    }

    #[test]
    fn frames_roundtrip(payloads: Vec<Vec<u8>>) {
        let mut w = FrameWriter::new();
        for p in &payloads {
            w.write_frame(p).unwrap();
        }
        let bytes = w.into_vec();
        let mut r = FrameReader::new(&bytes);
        let mut decoded = Vec::new();
        while let Some(payload) = r.read_whole_frame().unwrap() {
            decoded.push(payload.to_vec());
        }
        prop_assert_eq!(r.position(), bytes.len(), "no torn tail");
        prop_assert_eq!(decoded, payloads);
    }

    #[test]
    fn truncated_frames_never_panic(payload: Vec<u8>, cut in 0usize..32) {
        let mut w = FrameWriter::new();
        w.write_frame(&payload).unwrap();
        let bytes = w.into_vec();
        let cut = cut.min(bytes.len());
        let torn = &bytes[..bytes.len() - cut];
        let mut r = FrameReader::new(torn);
        // Must terminate with either the payload or a clean error: a
        // strict prefix of a frame is a torn frame, never a frame.
        let first = r.read_whole_frame().unwrap();
        if cut == 0 {
            prop_assert_eq!(first, Some(payload.as_slice()));
            prop_assert_eq!(r.read_whole_frame().unwrap(), None);
        } else {
            prop_assert_eq!(first, None);
        }
        let torn_tail = r.position() < torn.len();
        prop_assert_eq!(torn_tail, cut != 0 && cut < bytes.len());
    }

    #[test]
    fn random_bytes_never_panic_decoding(bytes: Vec<u8>) {
        let _ = from_bytes::<Vec<(u8, String)>>(&bytes);
        let _ = from_bytes::<BTreeMap<String, u64>>(&bytes);
        let _ = from_bytes::<Option<Vec<i64>>>(&bytes);
        let mut r = FrameReader::new(&bytes);
        while let Ok(Some(_)) = r.read_whole_frame() {}
    }
}
