//! Escaping and unescaping of XML character data.
//!
//! Section 3.2 of the paper notes that the SRB `get`/`put` operations moved
//! file contents "by simply streaming the file as a string" inside the SOAP
//! envelope — a mechanism that "does not scale well". A large part of that
//! cost is exactly this module: every `<`, `&`, and quote in the payload is
//! expanded, so escaping cost and byte amplification are measured directly
//! by experiment E5.
//!
//! Both directions are zero-copy on the common path: markup-free input is
//! returned as [`Cow::Borrowed`] without allocating, and the slow path
//! copies byte slices between special characters instead of pushing one
//! `char` at a time. Fast/slow-path hits are counted in [`crate::stats`]
//! so the E5/E11 experiments can report how often the allocation was
//! actually avoided.

use std::borrow::Cow;

use crate::scan;
use crate::stats;

/// Escape text content (`<`, `>`, `&`).
///
/// `>` is escaped too, although strictly only required in the `]]>`
/// sequence, because the 2002-era toolchains did the same and it keeps the
/// output unambiguous.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape(s, false)
}

/// Escape an attribute value (`<`, `>`, `&`, `"`, `'`).
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape(s, true)
}

fn escaped_entity(b: u8, attr: bool) -> Option<&'static str> {
    match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        b'"' if attr => Some("&quot;"),
        b'\'' if attr => Some("&apos;"),
        _ => None,
    }
}

const TEXT_SPECIALS: [u8; 3] = [b'<', b'>', b'&'];
const ATTR_SPECIALS: [u8; 5] = [b'<', b'>', b'&', b'"', b'\''];

fn escape(s: &str, attr: bool) -> Cow<'_, str> {
    let next = |s: &str, from: usize| {
        if attr {
            scan::find_any(s, from, ATTR_SPECIALS)
        } else {
            scan::find_any(s, from, TEXT_SPECIALS)
        }
    };
    // Fast path: nothing to escape — borrow the input unchanged. The scan
    // below resumes from the first special byte, so nothing is scanned
    // twice on the slow path either.
    let Some(first) = next(s, 0) else {
        stats::count_escape(true);
        return Cow::Borrowed(s);
    };
    stats::count_escape(false);
    let mut out = String::with_capacity(s.len() + s.len() / 8 + 8);
    let (plain, mut rest) = scan::split_at(s, first);
    out.push_str(plain);
    // Invariant: `rest` is empty or begins with a special (ASCII) byte.
    while let Some((b, after)) = scan::split_first_ascii(rest) {
        if let Some(entity) = escaped_entity(b, attr) {
            out.push_str(entity);
        }
        let run = next(after, 0).unwrap_or(after.len());
        let (plain, tail) = scan::split_at(after, run);
        out.push_str(plain);
        rest = tail;
    }
    Cow::Owned(out)
}

/// Resolve a single entity name (without `&` and `;`) to its character.
///
/// Supports the five XML predefined entities plus decimal (`#NN`) and
/// hexadecimal (`#xHH`) character references.
pub fn resolve_entity(name: &str) -> Option<char> {
    match name {
        "lt" => Some('<'),
        "gt" => Some('>'),
        "amp" => Some('&'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let rest = name.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

/// Unescape a string containing entity references.
///
/// Entity-free input is returned as [`Cow::Borrowed`] after a single byte
/// scan. Returns `None` if an entity is malformed or unknown; callers in
/// the tokenizer convert that into a positioned
/// [`crate::XmlError::BadEntity`].
pub fn unescape(s: &str) -> Option<Cow<'_, str>> {
    let Some(first) = scan::find_any(s, 0, [b'&']) else {
        stats::count_unescape(true);
        return Some(Cow::Borrowed(s));
    };
    unescape_from(s, first).map(Cow::Owned)
}

/// Resolve the entities of `s`, whose first `&` is at byte `first`, and
/// count the allocation; the tokenizer calls this directly once its own
/// scan has found that `&`.
pub(crate) fn unescape_from(s: &str, first: usize) -> Option<String> {
    stats::count_unescape(false);
    let mut out = String::with_capacity(s.len());
    let (plain, mut rest) = scan::split_at(s, first);
    out.push_str(plain);
    // Invariant: `rest` is empty or begins with '&'.
    loop {
        let after = scan::split_at(rest, 1).1; // skip the '&'
        let semi = scan::find_any(after, 0, [b';'])?;
        let (entity, tail) = scan::split_at(after, semi);
        out.push(resolve_entity(entity)?);
        rest = scan::split_at(tail, 1).1; // skip the ';'
        let Some(amp) = scan::find_any(rest, 0, [b'&']) else {
            out.push_str(rest);
            return Some(out);
        };
        let (plain, at_amp) = scan::split_at(rest, amp);
        out.push_str(plain);
        rest = at_amp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_text_specials() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }

    #[test]
    fn text_escape_leaves_quotes() {
        assert_eq!(escape_text("say \"hi\""), "say \"hi\"");
    }

    #[test]
    fn attr_escape_covers_quotes() {
        assert_eq!(escape_attr("a\"b'c"), "a&quot;b&apos;c");
    }

    #[test]
    fn fast_path_borrows() {
        assert!(matches!(escape_text("plain text 123"), Cow::Borrowed(_)));
        assert!(matches!(escape_attr("plain text 123"), Cow::Borrowed(_)));
        assert!(matches!(unescape("no entities"), Some(Cow::Borrowed(_))));
    }

    #[test]
    fn slow_path_owns() {
        assert!(matches!(escape_text("a<b"), Cow::Owned(_)));
        assert!(matches!(escape_attr("a\"b"), Cow::Owned(_)));
        assert!(matches!(unescape("&amp;"), Some(Cow::Owned(_))));
    }

    #[test]
    fn fast_paths_counted() {
        let before = stats::snapshot();
        let _ = escape_text("nothing special");
        let _ = escape_text("a<b");
        let _ = unescape("nothing special");
        let _ = unescape("&lt;");
        let d = stats::snapshot().since(&before);
        // Other tests may run concurrently, so assert lower bounds only.
        assert!(d.escape_borrowed >= 1, "{d:?}");
        assert!(d.escape_owned >= 1, "{d:?}");
        assert!(d.unescape_borrowed >= 1, "{d:?}");
        assert!(d.unescape_owned >= 1, "{d:?}");
    }

    #[test]
    fn unescape_round_trip() {
        let original = "x < y && y > \"z\" 'w'";
        assert_eq!(unescape(&escape_attr(original)).unwrap(), original);
        assert_eq!(unescape(&escape_text(original)).unwrap(), original);
    }

    #[test]
    fn numeric_entities() {
        assert_eq!(unescape("&#65;&#x42;&#x43;").unwrap(), "ABC");
        assert_eq!(unescape("&#x263A;").unwrap(), "\u{263A}");
    }

    #[test]
    fn bad_entities_rejected() {
        assert!(unescape("&nosuch;").is_none());
        assert!(unescape("&unterminated").is_none());
        assert!(unescape("&#xZZ;").is_none());
        assert!(unescape("&#1114112;").is_none()); // beyond char::MAX
    }

    #[test]
    fn unescape_plain_passthrough() {
        assert_eq!(unescape("no entities").unwrap(), "no entities");
    }

    #[test]
    fn entity_at_edges() {
        assert_eq!(unescape("&amp;middle&amp;").unwrap(), "&middle&");
        assert_eq!(escape_text("<edges>"), "&lt;edges&gt;");
    }

    #[test]
    fn unicode_preserved() {
        let s = "héllo 世界";
        assert_eq!(unescape(&escape_text(s)).unwrap(), s);
    }
}
