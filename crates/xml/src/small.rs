//! [`Str`]: the string an [`Element`](crate::Element) keeps its name and
//! its attribute names and values in.
//!
//! Nearly every name in the portal's documents, and most attribute values
//! (`entry`, `xmlns:m`, `false`, a file name, a byte count), are a few
//! bytes long. A `Str` of at most [`INLINE_MAX`] bytes is stored in place,
//! inside the element or attribute pair that owns it, so building,
//! cloning and dropping one allocates nothing; longer text is one
//! `Box<str>`. A `Str` is 24 bytes, a `String`'s size, so an `Element`
//! stays 72 bytes, and a `(Str, Str)` pair has the size and alignment of
//! the tokenizer's `(Cow<str>, Cow<str>)`, which lets the DOM builder turn
//! a tag's attribute vector into the element's in place.
//!
//! Viewing the stored bytes as `&str` is the crate's one `unsafe` block.
//! Its invariant: the bytes are filled only here, only by copying all of
//! a `&str`, and the fields are private to this module.

use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;

/// Most bytes a [`Str`] holds in place.
pub const INLINE_MAX: usize = 22;

/// An immutable string held in place up to [`INLINE_MAX`] bytes and on
/// the heap beyond. It compares, dereferences and `Debug`-prints as the
/// `str` it holds.
#[derive(Clone)]
pub struct Str(Repr);

#[derive(Clone)]
enum Repr {
    /// The text is `bytes[..len]`, copied from a whole `&str`.
    Inline { len: u8, bytes: [u8; INLINE_MAX] },
    /// Text longer than [`INLINE_MAX`] bytes.
    Heap(Box<str>),
}

impl Str {
    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                let text = bytes.get(..usize::from(*len)).unwrap_or_default();
                debug_assert!(std::str::from_utf8(text).is_ok(), "inline Str is not UTF-8");
                // SAFETY: `Repr::Inline` is built only by `Str::inline`,
                // which copies every byte of a `&str` (valid UTF-8) into
                // `bytes[..len]`. The fields are private to this module and
                // nothing else writes them (a clone copies them whole), so
                // `text` is exactly that `&str`'s bytes.
                unsafe { std::str::from_utf8_unchecked(text) }
            }
            Repr::Heap(text) => text,
        }
    }

    /// `text` held in place, if it fits.
    fn inline(text: &str) -> Option<Str> {
        let len = u8::try_from(text.len()).ok()?;
        let mut bytes = [0; INLINE_MAX];
        bytes
            .get_mut(..text.len())?
            .copy_from_slice(text.as_bytes());
        Some(Str(Repr::Inline { len, bytes }))
    }
}

impl Default for Str {
    fn default() -> Str {
        Str(Repr::Inline {
            len: 0,
            bytes: [0; INLINE_MAX],
        })
    }
}

impl Deref for Str {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Str {
    fn from(text: &str) -> Str {
        Str::inline(text).unwrap_or_else(|| Str(Repr::Heap(text.into())))
    }
}

impl From<&String> for Str {
    fn from(text: &String) -> Str {
        Str::from(text.as_str())
    }
}

impl From<String> for Str {
    /// Short text is copied in place and the `String` freed; longer text
    /// keeps the `String`'s allocation.
    fn from(text: String) -> Str {
        Str::inline(&text).unwrap_or_else(|| Str(Repr::Heap(text.into_boxed_str())))
    }
}

impl From<Box<str>> for Str {
    fn from(text: Box<str>) -> Str {
        match Str::inline(&text) {
            Some(inline) => inline,
            None => Str(Repr::Heap(text)),
        }
    }
}

impl From<Cow<'_, str>> for Str {
    fn from(text: Cow<'_, str>) -> Str {
        match text {
            Cow::Borrowed(text) => Str::from(text),
            Cow::Owned(text) => Str::from(text),
        }
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Str) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Str {}

impl PartialEq<str> for Str {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Str {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;

    #[test]
    fn layout_keeps_elements_small_and_attribute_vectors_reusable() {
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<Str>(), 24);
        assert_eq!(size_of::<Element>(), 72);
        assert_eq!(size_of::<crate::Node>(), 72);
        // The DOM builder's `into_iter().map().collect()` reuses the
        // tokenizer's attribute vector only while these agree.
        type Pair = (Str, Str);
        type TokenPair<'a> = (Cow<'a, str>, Cow<'a, str>);
        assert_eq!(size_of::<Pair>(), size_of::<TokenPair>());
        assert_eq!(align_of::<Pair>(), align_of::<TokenPair>());
    }

    /// Texts of 0, 1, 21, 22, 23 and 64 bytes, and multi-byte characters
    /// that end at bytes 21, 22 and 23.
    fn edge_texts() -> Vec<String> {
        let mut texts: Vec<String> = [0, 1, 21, 22, 23, 64].map(|n| "x".repeat(n)).into();
        for end in [21, 22, 23] {
            for ch in ['é', '€', '😀'] {
                let pad = end - ch.len_utf8();
                texts.push(format!("{}{ch}", "a".repeat(pad)));
            }
        }
        texts
    }

    #[test]
    fn every_constructor_gives_back_its_text() {
        for text in edge_texts() {
            let from_all = [
                Str::from(text.as_str()),
                Str::from(&text),
                Str::from(text.clone()),
                Str::from(text.clone().into_boxed_str()),
                Str::from(Cow::Borrowed(text.as_str())),
                Str::from(Cow::<str>::Owned(text.clone())),
            ];
            for s in &from_all {
                assert_eq!(s.as_str(), text);
                assert_eq!(s.clone().as_str(), text);
                assert_eq!(*s, text.as_str());
            }
            let inline = matches!(from_all[0].0, Repr::Inline { .. });
            assert_eq!(inline, text.len() <= INLINE_MAX, "{text:?}");
        }
    }

    #[test]
    fn prints_and_compares_as_its_text() {
        let short = Str::from("k\"é");
        let long = Str::from("a value longer than twenty-two bytes");
        assert_eq!(format!("{short:?}"), format!("{:?}", "k\"é"));
        assert_eq!(Str::default(), "");
        assert_ne!(short, long);
        assert!(long.starts_with("a value"));
    }
}
