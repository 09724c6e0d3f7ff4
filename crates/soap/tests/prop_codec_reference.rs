//! Differential tests: the streaming value codec and envelope parser
//! against the DOM codec they replaced (`reference`, kept verbatim).
//!
//! * Encoding is byte-identical for generated values and envelopes.
//! * Parsing plus `args()`/`return_value()` agrees on generated documents
//!   — untyped inference, `xsi:nil`, text split by comments, CDATA and
//!   entities, prefixed names, repeated `Header`/`Body`, unknown children,
//!   extra body entries, faults — and on malformed ones, which must fail
//!   with the same `XmlError`.
//! * The one intended divergence: a declared `xsd:string` keeps
//!   whitespace-only text runs, which the DOM dropped.

mod reference;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use portalws_soap::{
    CallContext, Envelope, Fault, FaultCode, HeaderEntry, MethodDesc, PortalError, PortalErrorKind,
    SoapResult, SoapServer, SoapService, SoapType, SoapValue,
};
use portalws_wire::{Handler, Request};
use portalws_xml::Element;
use proptest::prelude::*;
use reference::RefEnvelope;

// ---- values and elements -------------------------------------------------

fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[ -~\\t\\n]{0,12}",
        "[<&>\"' a\u{e9}\u{4e2d}\u{1f600}]{1,8}",
    ]
}

fn element() -> impl Strategy<Value = Element> {
    let leaf = (
        "(p:)?[a-z]{1,4}",
        proptest::collection::vec(("[a-z]{1,3}", text()), 0..2),
    )
        .prop_map(|(name, attrs)| {
            let mut el = Element::new(name);
            for (k, v) in attrs {
                el.set_attr(k, v);
            }
            el
        });
    leaf.prop_recursive(2, 12, 3, |inner| {
        (
            "[a-z]{1,4}",
            proptest::collection::vec(
                prop_oneof![
                    inner.prop_map(Some),
                    "[!-~]{1,6}".prop_map(|t| Some(Element::new("t").with_text(t))),
                    Just(None),
                ],
                0..3,
            ),
            "[ -~]{0,6}",
        )
            .prop_map(|(name, kids, note)| {
                let mut el = Element::new(name);
                for kid in kids {
                    match kid {
                        Some(kid) => el.push_child(kid),
                        None => el.push_node(portalws_xml::Node::CData(note.clone())),
                    }
                }
                el
            })
    })
}

fn scalar() -> impl Strategy<Value = SoapValue> {
    prop_oneof![
        text().prop_map(SoapValue::String),
        any::<i64>().prop_map(SoapValue::Int),
        any::<u64>().prop_map(|bits| SoapValue::Double(f64::from_bits(bits))),
        any::<bool>().prop_map(SoapValue::Bool),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(SoapValue::Base64),
        element().prop_map(SoapValue::Xml),
        Just(SoapValue::Null),
    ]
}

fn value() -> impl Strategy<Value = SoapValue> {
    scalar().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(SoapValue::Array),
            proptest::collection::vec(("[a-zA-Z][a-zA-Z0-9]{0,5}", inner), 0..4)
                .prop_map(SoapValue::Struct),
        ]
    })
}

fn fault() -> impl Strategy<Value = Fault> {
    ("[ -~]{0,20}", any::<bool>(), 0usize..3).prop_map(|(msg, portal, code)| {
        let code = [
            FaultCode::Client,
            FaultCode::Server,
            FaultCode::MustUnderstand,
        ][code];
        Fault {
            code,
            string: msg.clone(),
            detail: portal.then(|| PortalError::new(PortalErrorKind::Busy, msg)),
        }
    })
}

// ---- generated documents -------------------------------------------------

/// Text-run fragments, entity-escaped where they are markup. The two
/// blank ones are kept out of declared strings (see the divergence test).
const FRAGMENTS: &[&str] = &[
    "42",
    " 7 ",
    "-1",
    "2.5",
    "1e3",
    "true",
    "0",
    "false",
    "Zm9v",
    "YmFy",
    "Zg==",
    "x",
    "&lt;&amp;&gt;",
    "&#233;",
    "\u{e9}\u{4e2d}",
    "a b",
    "&quot;'",
    " ",
    "\n\t",
];

fn is_blank(fragment: &str) -> bool {
    fragment.trim().is_empty()
}

/// A uniform choice from a fixed list.
fn pick<T: Copy + 'static>(list: &'static [T]) -> impl Strategy<Value = T> {
    (0..list.len()).prop_map(move |i| list[i])
}

/// One piece of generated element content.
#[derive(Debug, Clone)]
enum Piece {
    Text(&'static str),
    CData(&'static str),
    Comment,
    Child(String),
}

fn piece(child: impl Strategy<Value = String> + 'static) -> impl Strategy<Value = Piece> {
    let text = pick(FRAGMENTS).prop_map(Piece::Text).boxed();
    let child = child.prop_map(Piece::Child).boxed();
    prop_oneof![
        text.clone(),
        text,
        pick(FRAGMENTS).prop_map(Piece::CData),
        Just(Piece::Comment),
        child.clone(),
        child,
    ]
}

/// Write `<name attrs>content</name>`, or `<name attrs/>` when empty and
/// `short` is set. Blank text runs are dropped when `no_blank_text`.
fn write_element(
    name: &str,
    attrs: &[(&str, &str)],
    content: &[Piece],
    short: bool,
    no_blank_text: bool,
) -> String {
    let mut out = format!("<{name}");
    for (k, v) in attrs {
        out.push_str(&format!(" {k}=\"{v}\""));
    }
    if content.is_empty() && short {
        out.push_str("/>");
        return out;
    }
    out.push('>');
    for p in content {
        match p {
            Piece::Text(t) if no_blank_text && is_blank(t) => {}
            Piece::Text(t) => out.push_str(t),
            Piece::CData(t) => out.push_str(&format!("<![CDATA[{t}]]>")),
            Piece::Comment => out.push_str("<!-- c -->"),
            Piece::Child(xml) => out.push_str(xml),
        }
    }
    out.push_str(&format!("</{name}>"));
    out
}

const NAMES: &[&str] = &[
    "a", "b", "item", "p:item", "item", "p:item", "q:x", "return", "arg0",
];
const TYPES: &[Option<&str>] = &[
    None,
    None,
    None,
    Some("xsd:string"),
    Some("other:string"),
    Some("xsd:int"),
    Some("foo:int"),
    Some("xsd:double"),
    Some("xsd:boolean"),
    Some("xsd:base64Binary"),
    Some("SOAP-ENC:Array"),
    Some("tns:struct"),
    Some("tns:xml"),
    Some("tns:void"),
    Some("xsd:unknown"),
];
const NILS: &[Option<&str>] = &[None, None, Some("true"), Some("false")];

/// A value element as a peer might send it: any name, any or no type,
/// any content.
fn value_xml() -> impl Strategy<Value = String> {
    let leaf = (
        pick(NAMES),
        pick(TYPES),
        pick(NILS),
        proptest::collection::vec(pick(FRAGMENTS), 0..3),
        any::<bool>(),
    )
        .prop_map(|(name, ty, nil, runs, short)| {
            let content: Vec<Piece> = runs.into_iter().map(Piece::Text).collect();
            typed_element(name, ty, nil, &content, short)
        });
    leaf.prop_recursive(3, 24, 5, |inner| {
        (
            pick(NAMES),
            pick(TYPES),
            pick(NILS),
            proptest::collection::vec(piece(inner), 0..5),
            any::<bool>(),
        )
            .prop_map(|(name, ty, nil, content, short)| {
                typed_element(name, ty, nil, &content, short)
            })
    })
}

/// An untyped value element: it always decodes (to a string, an array
/// or a struct), so every case checks type inference.
fn untyped_xml() -> impl Strategy<Value = String> {
    let leaf = (
        pick(NAMES),
        proptest::collection::vec(pick(FRAGMENTS), 0..3),
        any::<bool>(),
    )
        .prop_map(|(name, runs, short)| {
            let content: Vec<Piece> = runs.into_iter().map(Piece::Text).collect();
            write_element(name, &[], &content, short, false)
        });
    leaf.prop_recursive(3, 24, 5, |inner| {
        (
            pick(NAMES),
            proptest::collection::vec(piece(inner), 0..5),
            any::<bool>(),
        )
            .prop_map(|(name, content, short)| write_element(name, &[], &content, short, false))
    })
}

fn typed_element(
    name: &str,
    ty: Option<&str>,
    nil: Option<&str>,
    content: &[Piece],
    short: bool,
) -> String {
    let mut attrs = Vec::new();
    if let Some(ty) = ty {
        attrs.push(("xsi:type", ty));
    }
    if let Some(nil) = nil {
        attrs.push(("xsi:nil", nil));
    }
    let declared_string = ty.is_some_and(|t| t.ends_with(":string")) && nil != Some("true");
    write_element(name, &attrs, content, short, declared_string)
}

fn fault_xml() -> impl Strategy<Value = String> {
    (
        pick(&["SOAP-ENV:Fault", "Fault", "f:Fault"]),
        pick(&["SOAP-ENV:Client", "Server", "weird", " Client "]),
        pick(FRAGMENTS),
        pick(&[None, Some("BUSY"), Some("NOT_FOUND"), Some("FUTURE")]),
    )
        .prop_map(|(name, code, msg, portal)| {
            let mut xml = format!(
                "<{name}><faultcode>{code}</faultcode><faultstring>{msg}</faultstring>"
            );
            if let Some(portal) = portal {
                xml.push_str(&format!(
                    "<detail><portalError><code>{portal}</code><message>{msg}</message></portalError></detail>"
                ));
            }
            xml.push_str(&format!("</{name}>"));
            xml
        })
}

fn body_entry() -> impl Strategy<Value = String> {
    let rpc = (
        pick(&["m:submit", "submitResponse", "ns:op", "op"]),
        pick(&[
            None,
            Some(("xmlns:m", "urn:Svc")),
            Some(("xmlns", "urn:Other")),
            Some(("xmlns:m", "http://x")),
        ]),
        proptest::collection::vec(piece(value_xml()), 0..5),
        any::<bool>(),
    )
        .prop_map(|(name, attr, params, short)| {
            let attrs: Vec<(&str, &str)> = attr.into_iter().collect();
            write_element(name, &attrs, &params, short, false)
        })
        .boxed();
    prop_oneof![rpc.clone(), rpc.clone(), rpc, fault_xml()]
}

fn body(entries: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    let entry = body_entry().prop_map(Piece::Child).boxed();
    (
        pick(&["SOAP-ENV:Body", "Body", "b:Body"]),
        proptest::collection::vec(
            prop_oneof![entry.clone(), entry.clone(), entry, piece(value_xml())],
            entries,
        ),
    )
        .prop_map(|(name, entries)| write_element(name, &[], &entries, true, false))
}

/// A child of the envelope root.
fn envelope_part() -> impl Strategy<Value = String> {
    let header = (
        pick(&["SOAP-ENV:Header", "Header"]),
        proptest::collection::vec(piece(value_xml()), 0..3),
    )
        .prop_map(|(name, entries)| write_element(name, &[], &entries, true, false))
        .boxed();
    prop_oneof![
        header.clone(),
        header,
        body(0..3),
        value_xml(),
        pick(FRAGMENTS).prop_map(str::to_owned),
        Just("<!-- note -->".to_owned()),
    ]
}

/// An envelope-shaped document: usually one `Body` with entries among
/// other parts, sometimes none or a wrong root.
fn document() -> impl Strategy<Value = String> {
    let main_body = body(1..3).prop_map(Some).boxed();
    (
        pick(&["", "<?xml version=\"1.0\"?>", "<!-- c -->\n", " \n"]),
        pick(&[
            "SOAP-ENV:Envelope",
            "soap:Envelope",
            "Envelope",
            "SOAP-ENV:Envelope",
            "Other",
        ]),
        proptest::collection::vec(envelope_part(), 0..3),
        prop_oneof![main_body.clone(), main_body.clone(), main_body, Just(None)],
        proptest::collection::vec(envelope_part(), 0..3),
        pick(&["", "\n", "<!-- c -->"]),
    )
        .prop_map(|(prolog, root, before, body, after, epilog)| {
            let parts = before.concat() + &body.unwrap_or_default() + &after.concat();
            format!("{prolog}<{root} xmlns:xsi=\"urn:xsi\">{parts}</{root}>{epilog}")
        })
}

/// Damage a document the ways a peer or the wire might.
fn damaged(doc: &str, how: usize, at: usize) -> String {
    let cut = doc
        .char_indices()
        .map(|(i, _)| i)
        .nth(at % doc.chars().count().max(1))
        .unwrap_or(0);
    match how {
        0 => doc[..cut].to_owned(),
        1 => format!("{doc}<extra/>"),
        2 => format!("{doc}junk"),
        3 => match doc[cut..].find("</") {
            Some(i) => format!("{}</z{}", &doc[..cut + i], &doc[cut + i + 2..]),
            None => format!("{doc}</z>"),
        },
        _ => format!("{}<{}", &doc[..cut], &doc[cut..]),
    }
}

/// Parse with both codecs and require the same answer to every question.
fn agree(xml: &str) -> Result<(), TestCaseError> {
    match (Envelope::parse(xml), RefEnvelope::parse(xml)) {
        (Err(new), Err(old)) => prop_assert_eq!(new, old),
        (Ok(new), Ok(old)) => {
            // Entries stay text; as trees they are the reference's.
            let entries: Vec<_> = new.headers.iter().map(HeaderEntry::to_element).collect();
            prop_assert_eq!(
                entries,
                old.headers.iter().cloned().map(Ok).collect::<Vec<_>>()
            );
            prop_assert_eq!(new.method(), old.method());
            prop_assert_eq!(new.service(), old.service());
            prop_assert_eq!(new.is_fault(), old.is_fault());
            prop_assert_eq!(new.as_fault(), old.as_fault());
            prop_assert_eq!(new.args(), old.args());
            prop_assert_eq!(new.return_value(), old.return_value());
            prop_assert_eq!(new.clone().into_args(), old.args());
            prop_assert_eq!(new.into_return_value(), old.return_value());
        }
        (new, old) => prop_assert!(false, "new {new:?} vs reference {old:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn write_xml_is_byte_identical(v in value(), name in "(p:)?[a-zA-Z][a-zA-Z0-9]{0,6}") {
        let mut out = String::from("<<prefix>>");
        v.write_xml(&name, &mut out);
        let want = reference::to_element(&v, &name).to_xml();
        prop_assert_eq!(out.strip_prefix("<<prefix>>"), Some(want.as_str()));
    }

    #[test]
    fn envelopes_write_byte_identical(
        args in proptest::collection::vec(value(), 0..4),
        headers in proptest::collection::vec(element(), 0..3),
        method in "[a-zA-Z][a-zA-Z0-9]{0,8}",
        reply in value(),
        f in fault(),
    ) {
        let mut new = Envelope::request("Svc", &method, args.clone());
        let mut old = RefEnvelope::request("Svc", &method, &args);
        new.headers = headers.iter().map(HeaderEntry::from_element).collect();
        old.headers.clone_from(&headers);
        let mut out = String::new();
        new.write_xml_into(&mut out);
        prop_assert_eq!(&out, &old.to_xml());
        prop_assert_eq!(new.to_xml(), old.to_xml());

        let names: Vec<String> = (0..args.len()).map(|i| format!("arg{i}")).collect();
        let named = Envelope::request_named(
            "Svc",
            &method,
            names.iter().map(String::as_str).zip(&args),
        );
        let h = HeaderEntry::from_element(&Element::new("h"));
        prop_assert_eq!(named.with_header(h).to_xml(), {
            old.headers = vec![Element::new("h")];
            old.to_xml()
        });

        let response = Envelope::response(&method, reply.clone());
        prop_assert_eq!(response.to_xml(), RefEnvelope::response(&method, &reply).to_xml());
        prop_assert_eq!(Envelope::fault(&f).to_xml(), RefEnvelope::fault(&f).to_xml());
    }

    #[test]
    fn own_envelopes_parse_like_the_reference(
        args in proptest::collection::vec(value(), 0..4),
        headers in proptest::collection::vec(element(), 0..3),
        reply in value(),
        f in fault(),
    ) {
        let mut request = Envelope::request("Svc", "op", args);
        request.headers = headers.iter().map(HeaderEntry::from_element).collect();
        agree(&request.to_xml())?;
        agree(&Envelope::response("op", reply).to_xml())?;
        agree(&Envelope::fault(&f).to_xml())?;
    }

    #[test]
    fn peer_documents_parse_like_the_reference(doc in document()) {
        agree(&doc)?;
    }

    #[test]
    fn untyped_values_infer_like_the_reference(
        params in proptest::collection::vec(untyped_xml(), 1..4),
    ) {
        agree(&format!(
            "<Envelope><Body><m:op>{}</m:op></Body></Envelope>",
            params.concat()
        ))?;
    }

    #[test]
    fn damaged_documents_fail_like_the_reference(
        doc in document(),
        how in 0usize..5,
        at in any::<usize>(),
    ) {
        agree(&damaged(&doc, how, at))?;
    }

    #[test]
    fn declared_string_whitespace_is_the_only_divergence(
        runs in proptest::collection::vec(pick(&[" ", "\n\t", "x", "a b", "  \t  "]), 1..6),
        typed in any::<bool>(),
    ) {
        let ty = if typed { " xsi:type=\"xsd:string\"" } else { "" };
        let xml = format!(
            "<Envelope><Body><m:op><arg0{ty}>{}</arg0></m:op></Body></Envelope>",
            runs.join("<!-- c -->")
        );
        let all: String = runs.concat();
        let kept: String = runs.iter().copied().filter(|r| !is_blank(r)).collect();
        let new = Envelope::parse(&xml).unwrap().args().unwrap();
        let old = RefEnvelope::parse(&xml).unwrap().args().unwrap();
        prop_assert_eq!(&old, &vec![("arg0".to_string(), SoapValue::String(kept))]);
        if typed {
            // Declared strings keep every run verbatim; the DOM dropped
            // the blank ones.
            prop_assert_eq!(&new, &vec![("arg0".to_string(), SoapValue::String(all))]);
        } else {
            // Untyped text keeps the DOM's policy.
            prop_assert_eq!(&new, &old);
        }
    }
}

#[test]
fn untyped_inference_matches_the_reference() {
    for param in [
        "<a><item>1</item><item>2</item></a>",
        "<a><p:item>1</p:item><x>2</x></a>",
        "<a>text<p:x>1</p:x><item>2</item></a>",
        "<a> <!-- c --> </a>",
        "<a>one<![CDATA[ two ]]> </a>",
    ] {
        let xml = format!("<Envelope><Body><m:op>{param}</m:op></Body></Envelope>");
        let new = Envelope::parse(&xml).unwrap().args();
        assert_eq!(new, RefEnvelope::parse(&xml).unwrap().args(), "{param}");
    }
}

#[test]
fn malformed_values_fail_args_not_parse_with_the_reference_errors() {
    for param in [
        r#"<a xsi:type="xsd:int">4x</a>"#,
        r#"<a xsi:type="xsd:double">two</a>"#,
        r#"<a xsi:type="xsd:boolean">yes</a>"#,
        r#"<a xsi:type="xsd:base64Binary">Zg=</a>"#,
        r#"<a xsi:type="xsd:base64Binary">Zg==<![CDATA[Zg==]]></a>"#,
        r#"<a xsi:type="tns:xml">text only</a>"#,
        r#"<a xsi:type="tns:xml"/>"#,
        r#"<a><item xsi:type="xsd:int">1</item><item xsi:type="xsd:int">z</item></a>"#,
    ] {
        let xml = format!("<Envelope><Body><m:op>{param}</m:op></Body></Envelope>");
        let new = Envelope::parse(&xml).expect("a bad value is not a bad document");
        let old = RefEnvelope::parse(&xml).unwrap();
        let err = new.args().expect_err(param);
        assert_eq!(Err(err), old.args(), "{param}");
    }
}

#[test]
fn malformed_documents_fail_parse_with_the_reference_errors() {
    use portalws_xml::XmlError;
    let ok = Envelope::request("S", "m", [SoapValue::Int(1)]).to_xml();
    let cases = [
        (ok.replace("</arg0>", "</arg1>"), "mismatched"),
        (ok.replace("</SOAP-ENV:Envelope>", ""), "eof"),
        (format!("{ok}<again/>"), "multiple roots"),
    ];
    for (xml, what) in cases {
        let new = Envelope::parse(&xml).expect_err(what);
        assert_eq!(
            Err(new.clone()),
            RefEnvelope::parse(&xml).map(|_| ()),
            "{what}"
        );
        let variant_ok = match what {
            "mismatched" => matches!(new, XmlError::MismatchedTag { .. }),
            "eof" => matches!(new, XmlError::UnexpectedEof { .. }),
            _ => matches!(new, XmlError::Syntax { .. }),
        };
        assert!(variant_ok, "{what}: {new:?}");
    }
}

/// Adds its two int arguments.
struct Adder;

impl SoapService for Adder {
    fn name(&self) -> &str {
        "Calc"
    }

    fn invoke(
        &self,
        _method: &str,
        args: &[(String, SoapValue)],
        _ctx: &CallContext,
    ) -> SoapResult<SoapValue> {
        let sum = args.iter().filter_map(|(_, v)| v.as_i64()).sum();
        Ok(SoapValue::Int(sum))
    }

    fn methods(&self) -> Vec<MethodDesc> {
        vec![MethodDesc::new(
            "add",
            vec![("a", SoapType::Int), ("b", SoapType::Int)],
            SoapType::Int,
            "Add",
        )]
    }
}

#[test]
fn malformed_argument_reaches_the_guard_once_then_faults() {
    let server = SoapServer::new();
    server.mount(Arc::new(Adder));
    let guard_calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&guard_calls);
    server.set_guard(Arc::new(move |ctx: &CallContext| {
        seen.fetch_add(1, Ordering::SeqCst);
        assert_eq!((ctx.service.as_str(), ctx.method.as_str()), ("Calc", "add"));
        assert!(ctx.header("Token").is_some());
        Ok(())
    }));
    let xml = Envelope::request("Calc", "add", [SoapValue::Int(1), SoapValue::Int(2)])
        .with_header(HeaderEntry::parse("<Token/>").unwrap())
        .to_xml()
        .replace(">2<", ">two<");
    let resp = server.handle(&Request::post("/soap/Calc", xml));
    assert_eq!(
        guard_calls.load(Ordering::SeqCst),
        1,
        "guard ran exactly once"
    );
    let fault = Envelope::parse(&resp.body_str())
        .unwrap()
        .as_fault()
        .expect("fault reply");
    assert_eq!(fault.code, FaultCode::Client);
    assert_eq!(
        fault.string, "argument decode failed: bad int value \"two\"",
        "{fault:?}"
    );
}
