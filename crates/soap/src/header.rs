//! SOAP header entries, kept as the text they arrived in.
//!
//! A header entry (a SAML assertion, a service generation, a token) is one
//! element inside `<SOAP-ENV:Header>`. No layer needs it as a tree on the
//! way through: [`crate::Envelope::parse`] checks each entry as it
//! tokenizes and keeps the entry's bytes, and
//! [`crate::Envelope::write_xml_into`] writes them back verbatim. An entry
//! forwarded from one envelope into another (the Figure 2 verify hop,
//! BatchJob's delegation) therefore arrives byte for byte as its author
//! wrote it. A reader that wants structure parses the text on demand:
//! [`HeaderEntry::to_element`] as a tree, or a tokenizer pass of its own,
//! as the Authentication Service reads an assertion.

use std::borrow::Cow;
use std::fmt::Write;

use portalws_xml::dom::{read_content, read_document, skip_subtree, Piece};
use portalws_xml::{Element, Tokenizer, XmlError};

use crate::value::local_name;

/// One header entry: its XML text and where its name ends in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderEntry {
    xml: String,
    /// End of the qualified name, which starts right after the `<`.
    name_end: usize,
}

impl HeaderEntry {
    /// An entry from text that is exactly one well-formed element,
    /// checked with one tokenizer pass.
    pub fn parse(xml: impl Into<String>) -> Result<HeaderEntry, XmlError> {
        let xml = xml.into();
        let name_end = read_document(&xml, |tok, name, _, self_closing| {
            skip_subtree(tok, &name, self_closing, &mut Vec::new())?;
            Ok(1 + name.len())
        })?;
        Ok(HeaderEntry { xml, name_end })
    }

    /// An entry from the text a writer has just produced, which must be
    /// one well-formed element (checked in debug builds). The name is read
    /// off the start tag; nothing else is scanned.
    pub fn from_written(xml: String) -> HeaderEntry {
        debug_assert!(
            HeaderEntry::parse(xml.as_str()).is_ok(),
            "not one element: {xml}"
        );
        let tail = xml.get(1..).unwrap_or_default();
        let len = tail
            .find(|c: char| c.is_ascii_whitespace() || c == '>' || c == '/')
            .unwrap_or(tail.len());
        HeaderEntry {
            xml,
            name_end: 1 + len,
        }
    }

    /// An entry serialized from a tree.
    pub fn from_element(el: &Element) -> HeaderEntry {
        HeaderEntry {
            xml: el.to_xml(),
            name_end: 1 + el.name().len(),
        }
    }

    /// `<name>n</name>`: the shape of a generation stamp, its digits
    /// written straight into the entry's one buffer, sized once.
    pub fn number_element(name: &str, n: u64) -> HeaderEntry {
        let digits = n.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut xml = String::with_capacity(2 * name.len() + digits + 5);
        let _ = write!(xml, "<{name}>{n}</{name}>");
        HeaderEntry {
            xml,
            name_end: 1 + name.len(),
        }
    }

    /// Read the entry whose start tag `tok` has just produced from `src`:
    /// `start` is the offset of its `<`, and `name` and `self_closing`
    /// are the start tag's fields. The subtree is checked through its end
    /// tag as [`portalws_xml::dom::skip_subtree`] does, with `open` as its
    /// scratch, and the entry keeps one copy of its bytes.
    // portalint: hot-path-entry
    pub(crate) fn read<'a>(
        tok: &mut Tokenizer<'a>,
        src: &'a str,
        start: usize,
        name: &str,
        self_closing: bool,
        open: &mut Vec<Cow<'a, str>>,
    ) -> portalws_xml::Result<HeaderEntry> {
        skip_subtree(tok, name, self_closing, open)?;
        let text = src.get(start..tok.offset()).unwrap_or_default();
        let mut xml = String::with_capacity(text.len());
        xml.push_str(text);
        Ok(HeaderEntry {
            xml,
            name_end: 1 + name.len(),
        })
    }

    /// The entry's XML text, exactly as it was received or written.
    pub fn as_str(&self) -> &str {
        &self.xml
    }

    /// The element name as written, prefix included.
    fn name(&self) -> &str {
        self.xml.get(1..self.name_end).unwrap_or_default()
    }

    /// The element name without its prefix (`saml:Assertion` →
    /// `Assertion`): what header lookups match on.
    pub fn local_name(&self) -> &str {
        local_name(self.name())
    }

    /// The entry as a tree, parsed on demand.
    pub fn to_element(&self) -> Result<Element, XmlError> {
        Element::parse(&self.xml)
    }

    /// The root's direct text, as [`Element::text`] gives it: text runs
    /// that are not all whitespace, and CDATA, concatenated. Empty when
    /// the entry does not parse.
    pub fn text(&self) -> String {
        let mut text = String::new();
        let mut open = Vec::new();
        let _ = read_document(&self.xml, |tok, name, _, self_closing| {
            read_content(tok, &name, self_closing, |tok, piece| match piece {
                Piece::Text(t) if t.trim().is_empty() => Ok(()),
                Piece::Text(t) | Piece::CData(t) => {
                    text.push_str(&t);
                    Ok(())
                }
                Piece::Child(child, _, self_closing, _) => {
                    skip_subtree(tok, &child, self_closing, &mut open)
                }
            })
        });
        text
    }
}

/// The first entry named `local_name` (without prefix) among `entries`:
/// every reader of a header (the guards, the Authentication Service, the
/// services that ask who is calling) takes the first match, so they all
/// agree on which entry counts.
pub fn find<'h>(entries: &'h [HeaderEntry], local_name: &str) -> Option<&'h HeaderEntry> {
    entries.iter().find(|h| h.local_name() == local_name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_name_and_text() {
        let el = Element::new("saml:Assertion")
            .with_attr("AssertionID", "a<1")
            .with_text_child("saml:Subject", "alice & bob");
        let entries = [
            HeaderEntry::from_element(&el),
            HeaderEntry::parse(el.to_xml()).unwrap(),
            HeaderEntry::from_written(el.to_xml()),
        ];
        for entry in &entries {
            assert_eq!(entry, &entries[0]);
            assert_eq!(entry.name(), "saml:Assertion");
            assert_eq!(entry.local_name(), "Assertion");
            assert_eq!(entry.as_str(), el.to_xml());
            assert_eq!(entry.to_element().unwrap(), el);
        }
        let stamp = HeaderEntry::parse("<Generation>7 &lt; 8</Generation>").unwrap();
        assert_eq!(stamp.local_name(), "Generation");
        assert_eq!(stamp.text(), "7 < 8");
        let bare = HeaderEntry::parse("<t:Token/>").unwrap();
        assert_eq!((bare.name(), bare.text()), ("t:Token", String::new()));
    }

    #[test]
    fn a_number_reads_back_as_written_and_as_a_peer_spells_it() {
        let read = |entry: &HeaderEntry| entry.text().trim().parse::<u64>().ok();
        for n in [0, 7, 10, u64::MAX] {
            let stamp = HeaderEntry::number_element("Generation", n);
            assert_eq!(stamp.as_str(), format!("<Generation>{n}</Generation>"));
            assert_eq!(stamp.as_str().len(), stamp.xml.capacity(), "{n}");
            assert_eq!(stamp, HeaderEntry::parse(stamp.as_str()).unwrap());
            assert_eq!(read(&stamp), Some(n));
        }
        let peer = HeaderEntry::parse("<g:Generation> 7 </g:Generation>").unwrap();
        assert_eq!(read(&peer), Some(7));
    }

    #[test]
    fn text_matches_the_tree() {
        for xml in [
            "<g>  7 </g>",
            "<g>a<x>b</x>c<![CDATA[ ]]>d</g>",
            "<g> <!-- c --> </g>",
        ] {
            let entry = HeaderEntry::parse(xml).unwrap();
            assert_eq!(entry.text(), Element::parse(xml).unwrap().text(), "{xml}");
        }
    }

    #[test]
    fn parse_rejects_anything_but_one_element() {
        for bad in ["", "text", "<a>", "<a/><b/>", "<a></b>", "<a>&nope;</a>"] {
            assert!(HeaderEntry::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn find_takes_the_first_match_by_local_name() {
        let entries = [
            HeaderEntry::number_element("Other", 0),
            HeaderEntry::number_element("a:Token", 1),
            HeaderEntry::number_element("b:Token", 2),
        ];
        assert_eq!(
            find(&entries, "Token").map(HeaderEntry::text),
            Some("1".into())
        );
        assert!(find(&entries, "Missing").is_none());
    }
}
