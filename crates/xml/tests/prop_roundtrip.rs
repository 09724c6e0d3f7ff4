//! Property tests for the XML substrate: serialization/parsing round trips
//! and escaping invariants, over randomly generated documents.

use portalws_xml::escape::{escape_attr, escape_text, unescape};
use portalws_xml::{Element, Node};
use proptest::prelude::*;

/// Arbitrary element name: ascii letter followed by name chars.
fn name_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_.-]{0,11}"
}

/// Arbitrary text including characters that require escaping.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,40}").unwrap()
}

/// Strategy for an element tree of bounded depth/width.
fn element_strategy() -> impl Strategy<Value = Element> {
    let leaf = (name_strategy(), text_strategy()).prop_map(|(n, t)| {
        let mut el = Element::new(n);
        let trimmed = t.trim();
        if !trimmed.is_empty() {
            // Whitespace-only and leading/trailing-whitespace text is
            // normalized by the parser, so generate pre-trimmed text.
            el.push_node(Node::Text(trimmed.to_owned()));
        }
        el
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| {
                let mut el = Element::new(name);
                for (k, v) in attrs {
                    el.set_attr(k, v);
                }
                for c in children {
                    el.push_child(c);
                }
                el
            })
    })
}

/// A name of 1 to about 60 bytes, often near `Str`'s 22-byte inline
/// limit, with multi-byte letters that can straddle it.
fn any_length_name() -> impl Strategy<Value = String> {
    "[a-zé中][a-z0-9_.éж中-]{0,24}"
}

/// An attribute value of 0 to about 100 bytes with markup characters
/// and multi-byte text.
fn any_length_value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z &<>\"'éж中😀]{0,26}").unwrap()
}

/// An element whose name, attribute names and values all come from the
/// two strategies above, with one child of the same kind.
fn any_length_element() -> impl Strategy<Value = Element> {
    let attrs = || proptest::collection::vec((any_length_name(), any_length_value()), 0..5);
    (any_length_name(), attrs(), any_length_name(), attrs()).prop_map(
        |(name, attrs, child_name, child_attrs)| {
            let with_attrs = |mut el: Element, attrs: Vec<(String, String)>| {
                for (k, v) in attrs {
                    el.set_attr(k, v);
                }
                el
            };
            let child = with_attrs(Element::new(child_name), child_attrs);
            with_attrs(Element::new(name), attrs).with_child(child)
        },
    )
}

proptest! {
    #[test]
    fn names_and_values_of_any_length_round_trip(el in any_length_element()) {
        let parsed = Element::parse(&el.to_xml()).expect("serialized XML must reparse");
        prop_assert_eq!(&parsed, &el);
        let child = parsed.children().next().expect("one child");
        for (k, v) in child.attrs() {
            prop_assert_eq!(child.attr(k), Some(v.as_str()));
        }
    }

    #[test]
    fn compact_round_trip(el in element_strategy()) {
        let xml = el.to_xml();
        let parsed = Element::parse(&xml).expect("serialized XML must reparse");
        prop_assert_eq!(parsed, el);
    }

    #[test]
    fn pretty_round_trip(el in element_strategy()) {
        let xml = el.to_pretty();
        let parsed = Element::parse(&xml).expect("pretty XML must reparse");
        prop_assert_eq!(parsed, el);
    }

    #[test]
    fn document_round_trip(el in element_strategy()) {
        let xml = el.to_document();
        let parsed = Element::parse(&xml).expect("document must reparse");
        prop_assert_eq!(parsed, el);
    }

    #[test]
    fn escape_unescape_text_identity(s in "\\PC{0,200}") {
        let escaped = escape_text(&s);
        prop_assert_eq!(unescape(&escaped).unwrap(), s);
    }

    #[test]
    fn escape_unescape_attr_identity(s in "\\PC{0,200}") {
        let escaped = escape_attr(&s);
        prop_assert_eq!(unescape(&escaped).unwrap(), s);
    }

    #[test]
    fn escaped_attr_has_no_specials(s in "\\PC{0,200}") {
        let e = escape_attr(&s);
        prop_assert!(!e.contains('<'));
        prop_assert!(!e.contains('"'));
    }

    #[test]
    fn parser_never_panics(s in "\\PC{0,300}") {
        // Arbitrary input must produce Ok or Err, never a panic.
        let _ = Element::parse(&s);
    }

    #[test]
    fn subtree_size_consistent(el in element_strategy()) {
        let n = el.subtree_size();
        let children_sum: usize = el.children().map(|c| c.subtree_size()).sum();
        prop_assert_eq!(n, 1 + children_sum);
    }
}
