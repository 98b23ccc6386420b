use std::collections::BTreeMap;
use std::fmt;

use flowscript_codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};

/// A runtime object reference flowing between tasks.
///
/// The scripting language routes object *references*, never touching
/// member operations (paper §4.1); the engine likewise treats the payload
/// as opaque bytes tagged with the object's class and provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectVal {
    /// The object's class name. A root input's is checked against the
    /// root's declaration at start, and sema checks statically that the
    /// script routes each object to a slot of its declared class; an
    /// executor's reply is not checked — its objects keep the class it
    /// gave them.
    pub class: String,
    /// Opaque payload.
    pub data: Vec<u8>,
    /// Path of the task that produced it (empty for external inputs).
    pub produced_by: String,
}

impl ObjectVal {
    /// Creates an object with raw bytes.
    pub fn new(class: impl Into<String>, data: Vec<u8>) -> Self {
        Self {
            class: class.into(),
            data,
            produced_by: String::new(),
        }
    }

    /// Creates an object whose payload is UTF-8 text (the common case in
    /// examples and tests).
    pub fn text(class: impl Into<String>, text: impl Into<String>) -> Self {
        Self::new(class, text.into().into_bytes())
    }

    /// The payload as text (lossy for non-UTF-8 payloads).
    pub fn as_text(&self) -> String {
        String::from_utf8_lossy(&self.data).into_owned()
    }

    /// Returns a copy stamped with the producing task's path.
    pub fn produced_by(mut self, path: impl Into<String>) -> Self {
        self.produced_by = path.into();
        self
    }
}

impl fmt::Display for ObjectVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.class, self.as_text())
    }
}

/// The wire form, which spells every field out: messages, a presence
/// record's extras. What a fact holds under a
/// declared sub-key is stored relative to the plan instead
/// (`facts.rs`).
impl Encode for ObjectVal {
    fn encode(&self, w: &mut ByteWriter) {
        self.view().encode(w);
    }
}

/// An object's fields borrowed from wherever they lie: how an
/// implementation reads its inputs where the executor received them
/// ([`crate::InvokeCtx::inputs`]), and how an object is written, to a
/// message or the store, without first being copied into an
/// [`ObjectVal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRef<'a> {
    /// The object's class name.
    pub class: &'a str,
    /// Opaque payload.
    pub data: &'a [u8],
    /// Path of the task that produced it (empty for external inputs).
    pub produced_by: &'a str,
}

impl ObjectVal {
    /// This object's fields, borrowed.
    pub(crate) fn view(&self) -> ObjectRef<'_> {
        ObjectRef {
            class: &self.class,
            data: &self.data,
            produced_by: &self.produced_by,
        }
    }
}

/// Each name and object of `objects`, borrowed: how a map is written
/// where an encoded one ([`crate::msg::Objects`]) can be too.
pub(crate) fn entries(
    objects: &BTreeMap<String, ObjectVal>,
) -> impl Iterator<Item = (&str, ObjectRef<'_>)> + Clone {
    objects
        .iter()
        .map(|(name, object)| (name.as_str(), object.view()))
}

impl<'a> ObjectRef<'a> {
    /// The payload as text (lossy for non-UTF-8 payloads), borrowed
    /// where it is valid UTF-8.
    pub fn as_text(self) -> std::borrow::Cow<'a, str> {
        String::from_utf8_lossy(self.data)
    }

    /// The object, owned.
    pub fn to_val(self) -> ObjectVal {
        ObjectVal {
            class: self.class.to_owned(),
            data: self.data.to_vec(),
            produced_by: self.produced_by.to_owned(),
        }
    }
}

/// The wire form of [`ObjectVal`].
impl Encode for ObjectRef<'_> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self.class);
        w.put_len_prefixed(self.data);
        w.put_str(self.produced_by);
    }
}

impl Decode for ObjectVal {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let class = r.get_str()?.to_owned();
        let data = r.get_len_prefixed()?.to_vec();
        let produced_by = r.get_str()?.to_owned();
        Ok(ObjectVal {
            class,
            data,
            produced_by,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_helpers_roundtrip() {
        let v = ObjectVal::text("Order", "order-42").produced_by("root/source");
        assert_eq!(v.as_text(), "order-42");
        assert_eq!(v.class, "Order");
        assert_eq!(v.produced_by, "root/source");
        assert_eq!(v.to_string(), "Order(order-42)");
    }

    #[test]
    fn codec_roundtrip() {
        let v = ObjectVal::new("Blob", vec![0, 159, 146, 150]).produced_by("a/b");
        let bytes = flowscript_codec::to_bytes(&v);
        assert_eq!(
            flowscript_codec::from_bytes::<ObjectVal>(&bytes).unwrap(),
            v
        );
    }
}
