//! Property tests for the assertion layer: arbitrary assertions survive
//! the XML round trip, the direct writer and tokenizer reader agree with
//! the DOM forms they replaced, signatures bind every signed field, and
//! the MAC behaves like a function of (key, message).

use portalws_auth::mac;
use portalws_auth::Assertion;
use portalws_xml::Element;
use proptest::prelude::*;

/// Statement values: printable ASCII, which includes `& < > " '`, and
/// runs of markup characters and non-ASCII text.
fn value() -> impl Strategy<Value = String> {
    prop_oneof!["[!-~]{0,20}", "[&<>\"'a\u{e9}\u{4e2d}\u{1f600}]{1,8}",]
}

fn assertion_strategy() -> impl Strategy<Value = Assertion> {
    (
        "[a-z0-9-]{1,16}",
        "ctx-[0-9]{1,6}",
        prop_oneof![
            "[a-zA-Z][a-zA-Z0-9.@-]{0,24}",
            "[a-z\u{e9}\u{df}\u{4e2d}\u{1f600}][a-z\u{e9}\u{4e2d}@.&<>]{0,12}",
        ],
        prop_oneof![Just("kerberos"), Just("gsi"), Just("pki")],
        any::<u32>(),
        proptest::collection::vec(("[a-zA-Z][a-zA-Z0-9:_-]{0,12}", value()), 0..4),
    )
        .prop_map(|(id, ctx, subject, mech, expires, statements)| {
            let mut a = Assertion::new(
                id,
                ctx,
                subject,
                mech,
                "2002-11-16T00:00:00Z",
                u64::from(expires),
            );
            for (k, v) in statements {
                a = a.with_statement(k, v);
            }
            a
        })
}

proptest! {
    #[test]
    fn xml_round_trip(mut a in assertion_strategy(), key in "[a-f0-9]{8,32}") {
        a.sign(&key);
        let parsed = Assertion::from_element(&a.to_element()).expect("reparse");
        prop_assert_eq!(&parsed, &a);
        parsed.verify_signature(&key).expect("signature survives round trip");
    }

    #[test]
    fn writer_and_reader_match_the_dom_forms(
        mut a in assertion_strategy(),
        key in "[a-f0-9]{8,32}",
        signed in any::<bool>(),
    ) {
        if signed {
            a.sign(&key);
        }
        // The header text is the tree's serialization, byte for byte …
        let entry = a.to_header();
        let dom = a.to_element();
        prop_assert_eq!(entry.as_str(), dom.to_xml());
        prop_assert_eq!(entry.local_name(), "Assertion");
        let mut appended = String::from("<prefix/>");
        a.write_xml(&mut appended);
        prop_assert_eq!(appended.strip_prefix("<prefix/>"), Some(entry.as_str()));
        // … and reads back as the same assertion, like the tree does.
        let read = Assertion::read(entry.as_str()).expect("read");
        prop_assert_eq!(&read, &a);
        prop_assert_eq!(Assertion::from_element(&dom).expect("from_element"), read.clone());
        prop_assert!(read.is_written_as(entry.as_str()));
        if signed {
            read.verify_signature(&key).expect("signature survives the text");
        }
    }

    #[test]
    fn reader_agrees_with_the_dom_on_edited_documents(
        a in assertion_strategy(),
        edit in 0usize..8,
    ) {
        // Shapes a peer might send: repeated, missing, reordered or
        // extra elements, comments, CDATA. The reader and the tree must
        // give the same assertion or the same error kind.
        let xml = a.to_element().to_xml();
        let edited = match edit {
            0 => xml.replacen("<saml:Subject", "<x:Extra a=\"1\"><y/></x:Extra><saml:Subject", 1),
            1 => xml.replacen("</saml:AuthenticationStatement>", "<saml:Subject NameQualifier=\"n\">bob</saml:Subject></saml:AuthenticationStatement>", 1),
            2 => xml.replacen("<saml:AuthenticationStatement", "<saml:AuthenticationStatement AuthenticationMethod=\"gsi\" NotOnOrAfter=\"7\"><saml:Subject>eve</saml:Subject></saml:AuthenticationStatement><saml:AuthenticationStatement", 1),
            3 => xml.replacen("</saml:Subject>", "<!-- c --><![CDATA[ x ]]></saml:Subject>", 1),
            4 => xml.replacen(" NotOnOrAfter=\"", " NotOnOrAfter=\"x", 1),
            5 => xml.replacen("</saml:Assertion>", "<Signature>  </Signature><Signature>s2</Signature></saml:Assertion>", 1),
            6 => xml.replacen("AssertionID", "AssertionRef", 1),
            _ => xml.replacen("<saml:Subject", "<saml:Subjects", 1).replacen("</saml:Subject>", "</saml:Subjects>", 1),
        };
        let dom = Element::parse(&edited).expect("edits keep it well formed");
        match (Assertion::read(&edited), Assertion::from_element(&dom)) {
            (Ok(read), Ok(tree)) => prop_assert_eq!(read, tree),
            (Err(read), Err(tree)) => prop_assert_eq!(read, tree),
            (read, tree) => prop_assert!(false, "reader {read:?} vs tree {tree:?}"),
        }
    }

    #[test]
    fn reader_rejects_what_the_parser_rejects(a in assertion_strategy(), cut in 1usize..400) {
        let xml = a.to_element().to_xml();
        let cut = xml.char_indices().map(|(i, _)| i).nth(cut % xml.chars().count()).unwrap_or(0);
        let truncated = &xml[..cut];
        prop_assert!(Element::parse(truncated).is_err());
        prop_assert!(Assertion::read(truncated).is_err());
    }

    #[test]
    fn wire_text_round_trip(mut a in assertion_strategy(), key in "[a-f0-9]{8,32}") {
        a.sign(&key);
        // Through actual XML text, as a SOAP header travels.
        let text = a.to_element().to_xml();
        let parsed = Assertion::from_element(&Element::parse(&text).unwrap()).unwrap();
        parsed.verify_signature(&key).expect("verify after wire");
    }

    #[test]
    fn any_field_tamper_breaks_signature(
        mut a in assertion_strategy(),
        key in "[a-f0-9]{8,32}",
        which in 0usize..5,
    ) {
        a.sign(&key);
        let mut t = a.clone();
        match which {
            0 => t.subject.push('x'),
            1 => t.context_id.push('9'),
            2 => t.id.push('z'),
            3 => t.expires_at_ms = t.expires_at_ms.wrapping_add(1),
            _ => t.mechanism.push('k'),
        }
        prop_assert!(t.verify_signature(&key).is_err());
    }

    #[test]
    fn wrong_key_always_rejected(
        mut a in assertion_strategy(),
        key in "[a-f]{8,16}",
        other in "[0-9]{8,16}",
    ) {
        a.sign(&key);
        prop_assert!(a.verify_signature(&other).is_err());
    }

    #[test]
    fn mac_is_deterministic_and_key_separated(
        key in "\\PC{1,32}",
        data in "\\PC{0,128}",
        suffix in "\\PC{1,8}",
    ) {
        let m = mac::sign(&key, &data);
        prop_assert_eq!(&m, &mac::sign(&key, &data));
        prop_assert!(mac::verify(&key, &data, &m));
        // A different key or different data must not verify.
        let key2 = format!("{key}{suffix}");
        prop_assert!(!mac::verify(&key2, &data, &m));
        let data2 = format!("{data}{suffix}");
        prop_assert!(!mac::verify(&key, &data2, &m));
    }

    #[test]
    fn parser_never_panics_on_arbitrary_elements(name in "[a-zA-Z][a-zA-Z0-9]{0,8}") {
        let el = Element::new(name);
        let _ = Assertion::from_element(&el);
        let _ = Assertion::read(&el.to_xml());
    }

    #[test]
    fn reader_never_panics_on_arbitrary_text(s in "\\PC{0,200}") {
        let _ = Assertion::read(&s);
    }
}
