//! SOAP envelope construction and parsing.
//!
//! An [`Envelope`] is a list of header entries plus exactly one body entry.
//! RPC requests put a method wrapper element in the body
//! (`<m:METHOD xmlns:m="urn:SERVICE">` with one child per parameter);
//! responses use `<METHODResponse>` with a single `<return>` child; faults
//! use `<SOAP-ENV:Fault>`.
//!
//! RPC bodies never exist as a DOM: [`Envelope::parse`] decodes parameters
//! straight from the tokenizer into [`SoapValue`]s, and
//! [`Envelope::write_xml_into`] encodes them straight into the output
//! buffer. Header entries are [`HeaderEntry`] text spans, checked by the
//! parse and written back verbatim. Only faults stay [`Element`] trees.

use std::borrow::Cow;

use portalws_xml::dom::{read_content, read_document, Piece};
use portalws_xml::escape::escape_attr;
use portalws_xml::{Element, Str, Tokenizer, XmlError};

use crate::fault::Fault;
use crate::header::{self, HeaderEntry};
use crate::value::{element_len_hint, local_name, tags_len_hint, SoapValue};
use crate::{SOAP_ENV_NS, XSD_NS, XSI_NS};

/// A SOAP message: headers plus one body entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Header entries, in order (SAML assertions, session tokens, …).
    pub headers: Vec<HeaderEntry>,
    body: Body,
}

/// The single body entry.
#[derive(Debug, Clone, PartialEq)]
enum Body {
    /// An RPC request or response wrapper.
    Rpc(Rpc),
    /// A `<SOAP-ENV:Fault>` entry, kept as DOM.
    Fault(Element),
}

/// An RPC wrapper: its element name and attributes as written, and one
/// decoded value per child. A child that failed to decode keeps its
/// error, which surfaces from [`Envelope::args`] or
/// [`Envelope::return_value`] rather than from the parse.
#[derive(Debug, Clone, PartialEq)]
struct Rpc {
    name: String,
    attrs: Vec<(Str, Str)>,
    params: Vec<Param>,
}

/// A body entry's child: its element name as written and decoded value.
type Param = (String, Result<SoapValue, String>);

/// A fault's children as values: a fault keeps its DOM, so they are
/// decoded from its serialization.
fn fault_params(el: &Element) -> Vec<Param> {
    read_document(&el.to_xml(), |tok, name, _, self_closing| {
        read_params(tok, &name, self_closing)
    })
    .unwrap_or_default()
}

impl Envelope {
    fn rpc(name: String, attrs: Vec<(Str, Str)>, params: Vec<Param>) -> Envelope {
        Envelope {
            headers: Vec::new(),
            body: Body::Rpc(Rpc {
                name,
                attrs,
                params,
            }),
        }
    }

    /// A request wrapper `<m:METHOD xmlns:m="urn:SERVICE">` around `params`.
    fn call(service: &str, method: &str, params: Vec<Param>) -> Envelope {
        Self::rpc(
            format!("m:{method}"),
            vec![("xmlns:m".into(), format!("urn:{service}").into())],
            params,
        )
    }

    /// Build an RPC request envelope for `service`/`method` with positional
    /// parameters. Parameter elements are named `arg0`, `arg1`, … unless a
    /// name is supplied via [`Envelope::request_named`]. The values move
    /// into the envelope.
    pub fn request(
        service: &str,
        method: &str,
        args: impl IntoIterator<Item = SoapValue>,
    ) -> Envelope {
        let params = args
            .into_iter()
            .enumerate()
            .map(|(i, v)| (format!("arg{i}"), Ok(v)))
            .collect();
        Self::call(service, method, params)
    }

    /// Build an RPC request envelope with explicitly named parameters.
    /// Each value is copied once, into the envelope.
    pub fn request_named<'v>(
        service: &str,
        method: &str,
        args: impl IntoIterator<Item = (&'v str, &'v SoapValue)>,
    ) -> Envelope {
        let params = args
            .into_iter()
            .map(|(n, v)| (n.to_owned(), Ok(v.clone())))
            .collect();
        Self::call(service, method, params)
    }

    /// Build an RPC response envelope for `method` returning `value`,
    /// which moves into the envelope.
    pub fn response(method: &str, value: SoapValue) -> Envelope {
        Self::rpc(
            format!("{method}Response"),
            Vec::new(),
            vec![("return".into(), Ok(value))],
        )
    }

    /// Build a fault envelope.
    pub fn fault(fault: &Fault) -> Envelope {
        Envelope {
            headers: Vec::new(),
            body: Body::Fault(fault.to_element()),
        }
    }

    /// Builder: add a header entry.
    pub fn with_header(mut self, header: HeaderEntry) -> Envelope {
        self.headers.push(header);
        self
    }

    /// The first header entry with this local name.
    pub fn header(&self, local_name: &str) -> Option<&HeaderEntry> {
        header::find(&self.headers, local_name)
    }

    /// Is the body a fault?
    pub fn is_fault(&self) -> bool {
        matches!(self.body, Body::Fault(_))
    }

    /// Extract the fault, if the body is one.
    pub fn as_fault(&self) -> Option<Fault> {
        match &self.body {
            Body::Fault(el) => Some(Fault::from_element(el)),
            Body::Rpc(_) => None,
        }
    }

    /// The method name of an RPC request body (`m:submit` → `submit`).
    pub fn method(&self) -> &str {
        match &self.body {
            Body::Rpc(rpc) => local_name(&rpc.name),
            Body::Fault(el) => el.local_name(),
        }
    }

    /// The `urn:` service name from the request wrapper's namespace
    /// declaration, if present.
    pub fn service(&self) -> Option<&str> {
        let attrs = match &self.body {
            Body::Rpc(rpc) => &rpc.attrs,
            Body::Fault(el) => el.attrs(),
        };
        attrs.iter().find_map(|(name, uri)| {
            let decl = name == "xmlns" || name.starts_with("xmlns:");
            decl.then(|| uri.strip_prefix("urn:")).flatten()
        })
    }

    /// Decode the positional/named parameters of an RPC request body,
    /// copying them out; the first one that failed to decode is the error.
    pub fn args(&self) -> Result<Vec<(String, SoapValue)>, String> {
        self.params()
            .iter()
            .map(|(name, value)| value.clone().map(|v| (local_name(name).to_owned(), v)))
            .collect()
    }

    /// [`Envelope::args`], moving the values out of the envelope.
    pub fn into_args(self) -> Result<Vec<(String, SoapValue)>, String> {
        self.into_params()
            .into_iter()
            .map(|(name, value)| value.map(|v| (local_name(&name).to_owned(), v)))
            .collect()
    }

    /// Decode the `<return>` value of an RPC response body (`Null` when
    /// there is none), copying it out.
    pub fn return_value(&self) -> Result<SoapValue, String> {
        self.params()
            .iter()
            .find(|(name, _)| local_name(name) == "return")
            .map_or(Ok(SoapValue::Null), |(_, value)| value.clone())
    }

    /// [`Envelope::return_value`], moving the value out of the envelope.
    pub fn into_return_value(self) -> Result<SoapValue, String> {
        self.into_params()
            .into_iter()
            .find(|(name, _)| local_name(name) == "return")
            .map_or(Ok(SoapValue::Null), |(_, value)| value)
    }

    fn params(&self) -> Cow<'_, [Param]> {
        match &self.body {
            Body::Rpc(rpc) => Cow::Borrowed(&rpc.params),
            Body::Fault(el) => Cow::Owned(fault_params(el)),
        }
    }

    fn into_params(self) -> Vec<Param> {
        match self.body {
            Body::Rpc(rpc) => rpc.params,
            Body::Fault(el) => fault_params(&el),
        }
    }

    /// Serialize into an existing buffer (appends): the envelope wrapper
    /// around the header entries, copied as they are, and the body entry,
    /// whose values encode straight into `out` with no intermediate tree
    /// or allocation.
    // portalint: hot-path-entry
    pub fn write_xml_into(&self, out: &mut String) {
        out.push_str("<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"");
        out.push_str(SOAP_ENV_NS);
        out.push_str("\" xmlns:xsi=\"");
        out.push_str(XSI_NS);
        out.push_str("\" xmlns:xsd=\"");
        out.push_str(XSD_NS);
        out.push_str("\">");
        if !self.headers.is_empty() {
            out.push_str("<SOAP-ENV:Header>");
            for h in &self.headers {
                out.push_str(h.as_str());
            }
            out.push_str("</SOAP-ENV:Header>");
        }
        out.push_str("<SOAP-ENV:Body>");
        self.write_body_into(out);
        out.push_str("</SOAP-ENV:Body></SOAP-ENV:Envelope>");
    }

    /// Serialize just the body entry (appends). A parameter that failed to
    /// decode is written as an empty element.
    pub(crate) fn write_body_into(&self, out: &mut String) {
        let rpc = match &self.body {
            Body::Rpc(rpc) => rpc,
            Body::Fault(el) => return el.write_xml_into(out),
        };
        out.push('<');
        out.push_str(&rpc.name);
        for (k, v) in &rpc.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_attr(v));
            out.push('"');
        }
        if rpc.params.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for (name, value) in &rpc.params {
            match value {
                Ok(value) => value.write_xml(name, out),
                Err(_) => {
                    out.push('<');
                    out.push_str(name);
                    out.push_str("/>");
                }
            }
        }
        out.push_str("</");
        out.push_str(&rpc.name);
        out.push('>');
    }

    /// Serialize to XML text: the HTTP body of every SOAP request and
    /// reply, written once into a buffer sized from the envelope, so a
    /// chunk-sized body is neither regrown nor copied on its way out.
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.len_hint());
        self.write_xml_into(&mut out);
        out
    }

    /// A size estimate for [`Envelope::to_xml`], exact but for escaping
    /// and the width of scalars: the wrapper, each header entry, and the
    /// body entry with [`SoapValue::len_hint`] for each parameter.
    fn len_hint(&self) -> usize {
        /// The envelope, header and body tags with their namespace
        /// declarations.
        const WRAPPER: usize = 263;
        let headers: usize = self.headers.iter().map(|h| h.as_str().len()).sum();
        let body = match &self.body {
            Body::Rpc(rpc) => {
                let params = rpc.params.iter().filter_map(|(name, value)| {
                    value.as_ref().ok().map(|value| value.len_hint(name))
                });
                tags_len_hint(&rpc.name, &rpc.attrs) + params.sum::<usize>()
            }
            Body::Fault(el) => element_len_hint(el),
        };
        WRAPPER + headers + body
    }

    /// Parse an envelope from XML text.
    ///
    /// One pass over the tokenizer: header entries are checked and kept
    /// as the text they arrived in, a fault is built as DOM, RPC
    /// parameters are decoded as they stream past, and nothing else is
    /// kept. A document [`Element::parse`] rejects fails here
    /// with the same error, and well-formedness errors win over envelope
    /// shape errors, as if the whole document had been parsed first. A
    /// parameter that does not decode fails only `args()` or
    /// `return_value()`.
    pub fn parse(xml: &str) -> Result<Envelope, XmlError> {
        read_document(xml, |tok, name, attrs, self_closing| {
            read_envelope(xml, tok, name, attrs, self_closing)
        })?
    }
}

type Attrs<'a> = Vec<(Cow<'a, str>, Cow<'a, str>)>;

/// The document root of `src`: an `Envelope` whose first `Header` gives
/// the header entries and whose first `Body` gives the body entry (its
/// first child element). Other children are read and dropped. The outer
/// error is a well-formedness error; the inner one (wrong root, no body)
/// is reported only once the whole document is known to be well formed.
fn read_envelope<'a>(
    src: &'a str,
    tok: &mut Tokenizer<'a>,
    name: Cow<'a, str>,
    attrs: Attrs<'a>,
    self_closing: bool,
) -> portalws_xml::Result<Result<Envelope, XmlError>> {
    if local_name(&name) != "Envelope" {
        let found = format!("expected SOAP Envelope, found {:?}", local_name(&name));
        Element::read_subtree(tok, name, attrs, self_closing)?;
        return Ok(Err(XmlError::Invalid(found)));
    }
    let mut headers: Option<Vec<HeaderEntry>> = None;
    let mut body: Option<Option<Body>> = None;
    read_content(tok, &name, self_closing, |tok, piece| {
        let Piece::Child(child, attrs, self_closing, _) = piece else {
            return Ok(());
        };
        match local_name(&child) {
            "Header" if headers.is_none() => {
                headers = Some(read_entries(src, tok, &child, self_closing)?);
            }
            "Body" if body.is_none() => body = Some(read_body(tok, &child, self_closing)?),
            _ => {
                Element::read_subtree(tok, child, attrs, self_closing)?;
            }
        }
        Ok(())
    })?;
    Ok(match body {
        None => Err(XmlError::Invalid("envelope has no Body".into())),
        Some(None) => Err(XmlError::Invalid("envelope Body is empty".into())),
        Some(Some(body)) => Ok(Envelope {
            headers: headers.unwrap_or_default(),
            body,
        }),
    })
}

/// The child elements of `Header`, as text spans of `src`.
fn read_entries<'a>(
    src: &'a str,
    tok: &mut Tokenizer<'a>,
    name: &str,
    self_closing: bool,
) -> portalws_xml::Result<Vec<HeaderEntry>> {
    let mut entries = Vec::new();
    // Names of an entry's open descendants, shared by every entry.
    let mut open = Vec::new();
    read_content(tok, name, self_closing, |tok, piece| {
        if let Piece::Child(child, _, self_closing, start) = piece {
            let entry = HeaderEntry::read(tok, src, start, &child, self_closing, &mut open)?;
            entries.push(entry);
        }
        Ok(())
    })?;
    Ok(entries)
}

/// The first child element of `Body`: a fault as DOM, anything else as an
/// RPC wrapper with decoded parameters. Later children are read and
/// dropped.
fn read_body(
    tok: &mut Tokenizer<'_>,
    name: &str,
    self_closing: bool,
) -> portalws_xml::Result<Option<Body>> {
    let mut entry = None;
    read_content(tok, name, self_closing, |tok, piece| {
        let Piece::Child(child, attrs, self_closing, _) = piece else {
            return Ok(());
        };
        if entry.is_some() {
            Element::read_subtree(tok, child, attrs, self_closing)?;
        } else if local_name(&child) == "Fault" {
            let fault = Element::read_subtree(tok, child, attrs, self_closing)?;
            entry = Some(Body::Fault(fault));
        } else {
            let params = read_params(tok, &child, self_closing)?;
            entry = Some(Body::Rpc(Rpc {
                name: child.into_owned(),
                attrs: attrs
                    .into_iter()
                    .map(|(k, v)| (k.into(), v.into()))
                    .collect(),
                params,
            }));
        }
        Ok(())
    })?;
    Ok(entry)
}

/// Decode every child element of `name` as a value, keyed by the child's
/// name as written.
fn read_params(
    tok: &mut Tokenizer<'_>,
    name: &str,
    self_closing: bool,
) -> portalws_xml::Result<Vec<Param>> {
    let mut params = Vec::new();
    read_content(tok, name, self_closing, |tok, piece| {
        if let Piece::Child(child, attrs, self_closing, _) = piece {
            let value = SoapValue::read(tok, &child, &attrs, self_closing)?;
            params.push((child.into_owned(), value));
        }
        Ok(())
    })?;
    Ok(params)
}

/// An HTTP body as envelope text: borrowed when it is valid UTF-8 (every
/// body this stack sends), re-encoded lossily (U+FFFD per bad sequence)
/// only when it is not. The same text as `body_str()`, without copying a
/// chunk-sized body to get it; `str::from_utf8` also validates many times
/// faster than the lossy scan.
pub(crate) fn body_text(body: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(body) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PortalErrorKind;

    #[test]
    fn body_text_borrows_utf8_and_is_lossy_otherwise() {
        let body = Envelope::request("Calc", "echo", [SoapValue::str("h\u{e9}")])
            .to_xml()
            .into_bytes();
        assert!(matches!(body_text(&body), Cow::Borrowed(t) if t.as_bytes() == body));
        let bad = [0xC3, 0x28];
        assert!(matches!(body_text(&bad), Cow::Owned(ref t) if t == "\u{FFFD}("));
        let req = portalws_wire::Request::post("/soap/Calc", bad.to_vec());
        assert_eq!(body_text(&req.body), req.body_str());
    }

    #[test]
    fn request_round_trip() {
        let env = Envelope::request(
            "JobSubmission",
            "submit",
            [SoapValue::str("tg-login"), SoapValue::Int(4)],
        );
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(parsed.method(), "submit");
        assert_eq!(parsed.service(), Some("JobSubmission"));
        let args = parsed.args().unwrap();
        assert_eq!(args[0], ("arg0".into(), SoapValue::str("tg-login")));
        assert_eq!(args[1], ("arg1".into(), SoapValue::Int(4)));
    }

    #[test]
    fn named_request_round_trip() {
        let host = SoapValue::str("h");
        let env = Envelope::request_named("Srb", "ls", [("collection", &host)]);
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(
            parsed.args().unwrap(),
            vec![("collection".into(), SoapValue::str("h"))]
        );
    }

    #[test]
    fn response_round_trip() {
        let env = Envelope::response("submit", SoapValue::Int(99));
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert!(!parsed.is_fault());
        assert_eq!(parsed.return_value().unwrap(), SoapValue::Int(99));
    }

    #[test]
    fn void_response() {
        let env = Envelope::response("delete", SoapValue::Null);
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(parsed.return_value().unwrap(), SoapValue::Null);
    }

    #[test]
    fn fault_round_trip() {
        let fault = Fault::portal(PortalErrorKind::FileNotFound, "no such collection");
        let env = Envelope::fault(&fault);
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert!(parsed.is_fault());
        assert_eq!(parsed.as_fault().unwrap(), fault);
    }

    #[test]
    fn headers_carried() {
        let assertion = Element::new("saml:Assertion")
            .with_attr("xmlns:saml", "urn:oasis:saml")
            .with_text_child("subject", "kerberos:alice");
        let entry = HeaderEntry::from_element(&assertion);
        let env = Envelope::request("Ctx", "get", []).with_header(entry.clone());
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(parsed.headers.len(), 1);
        assert_eq!(parsed.header("Assertion"), Some(&entry));
        assert_eq!(
            parsed.header("Assertion").unwrap().to_element(),
            Ok(assertion)
        );
    }

    #[test]
    fn header_entries_keep_their_bytes_and_are_still_checked() {
        // An entry arrives as written: entity spellings, attribute quotes
        // and whitespace inside it are not normalized.
        let entry = "<a:Token  k='v &amp; w'>x &#60; y<!-- c --></a:Token>";
        let xml = Envelope::request("Ctx", "get", [])
            .with_header(HeaderEntry::parse(entry).unwrap())
            .to_xml();
        let parsed = Envelope::parse(&xml).unwrap();
        assert_eq!(parsed.header("Token").map(HeaderEntry::as_str), Some(entry));
        assert_eq!(parsed.header("Token").unwrap().text(), "x < y");
        // A malformed entry fails the whole envelope with the DOM parser's
        // error.
        for bad in ["<a:Token><b></a:Token>", "<a:Token>&nope;</a:Token>"] {
            let xml = xml.replace(entry, bad);
            assert_eq!(
                Envelope::parse(&xml).map(drop),
                Element::parse(&xml).map(drop)
            );
            assert!(Envelope::parse(&xml).is_err(), "{bad}");
        }
    }

    #[test]
    fn writes_the_wire_form() {
        let env = Envelope::request("Svc", "m", [SoapValue::str("a & b"), SoapValue::Int(7)])
            .with_header(HeaderEntry::from_element(
                &Element::new("saml:Assertion").with_text_child("subject", "<alice>"),
            ));
        let want = concat!(
            r#"<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/""#,
            r#" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance""#,
            r#" xmlns:xsd="http://www.w3.org/2001/XMLSchema">"#,
            r#"<SOAP-ENV:Header><saml:Assertion><subject>&lt;alice&gt;</subject></saml:Assertion></SOAP-ENV:Header>"#,
            r#"<SOAP-ENV:Body><m:m xmlns:m="urn:Svc"><arg0 xsi:type="xsd:string">a &amp; b</arg0>"#,
            r#"<arg1 xsi:type="xsd:int">7</arg1></m:m></SOAP-ENV:Body></SOAP-ENV:Envelope>"#,
        );
        assert_eq!(env.to_xml(), want);
        let mut buf = String::from("prefix");
        env.write_xml_into(&mut buf);
        assert_eq!(buf.strip_prefix("prefix"), Some(want));
        assert!(Envelope::response("m", SoapValue::Null)
            .to_xml()
            .contains(r#"<SOAP-ENV:Body><mResponse><return xsi:type="tns:void" xsi:nil="true"/></mResponse></SOAP-ENV:Body>"#));
    }

    #[test]
    fn bodies_are_sized_once_from_the_envelope() {
        // The size hint covers every byte, so a body is never regrown, and
        // is over by little more than each parameter's scalar allowance.
        let header = HeaderEntry::from_element(
            &Element::new("saml:Assertion")
                .with_attr("xmlns:saml", "urn:oasis:names:tc:SAML:1.0:assertion")
                .with_text_child("saml:Subject", "kerberos:alice"),
        );
        let jobs = Element::new("jobs").with_child(
            Element::new("job")
                .with_attr("id", "1")
                .with_text_child("command", "date"),
        );
        let chunk = [
            SoapValue::str("h-1"),
            SoapValue::Int(0),
            SoapValue::Base64(vec![7; 256 * 1024 + 1]),
        ];
        let envelopes = [
            Envelope::request("Calc", "add", [SoapValue::Int(1), SoapValue::Int(2)])
                .with_header(header.clone()),
            Envelope::request("DataManagement", "put_chunk", chunk).with_header(header),
            Envelope::response("get", SoapValue::Xml(jobs)),
            Envelope::response("delete", SoapValue::Null),
            Envelope::fault(&Fault::client("no such <thing>")),
        ];
        for env in envelopes {
            let (len, hint) = (env.to_xml().len(), env.len_hint());
            assert!(len <= hint && hint - len < 200, "{len} bytes, hint {hint}");
        }
    }

    #[test]
    fn whitespace_only_string_arguments_arrive_intact() {
        for s in [" ", "\n", "  \t  "] {
            let xml = Envelope::request("S", "m", [SoapValue::str(s)]).to_xml();
            let args = Envelope::parse(&xml).unwrap().args().unwrap();
            assert_eq!(args, vec![("arg0".to_string(), SoapValue::str(s))]);
        }
    }

    #[test]
    fn bad_argument_fails_args_not_parse() {
        let xml = Envelope::request("S", "m", [SoapValue::Int(1), SoapValue::Int(2)])
            .to_xml()
            .replace(">2<", ">two<");
        let env = Envelope::parse(&xml).expect("well-formed");
        assert_eq!(env.method(), "m");
        assert_eq!(env.args(), Err("bad int value \"two\"".to_string()));
        assert_eq!(env.into_args(), Err("bad int value \"two\"".to_string()));
    }

    #[test]
    fn into_values_move_out() {
        let reply = Envelope::response("ls", SoapValue::Array(vec![SoapValue::str("a")]));
        let parsed = Envelope::parse(&reply.to_xml()).unwrap();
        assert_eq!(parsed.return_value(), parsed.clone().into_return_value());
        assert_eq!(
            parsed.into_return_value(),
            Ok(SoapValue::Array(vec![SoapValue::str("a")]))
        );
    }

    #[test]
    fn non_envelope_rejected() {
        assert!(Envelope::parse("<notsoap/>").is_err());
        assert!(Envelope::parse("<Envelope/>").is_err()); // no Body
    }

    #[test]
    fn empty_body_rejected() {
        let xml = r#"<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"><SOAP-ENV:Body/></SOAP-ENV:Envelope>"#;
        assert!(Envelope::parse(xml).is_err());
    }

    #[test]
    fn xml_payload_through_envelope() {
        // The paper's "accepts an XML definition of a job" call shape.
        let jobs =
            Element::new("jobs").with_child(Element::new("job").with_text_child("command", "date"));
        let env = Envelope::request("JobSubmission", "submitXml", [SoapValue::Xml(jobs.clone())]);
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        let args = parsed.args().unwrap();
        assert_eq!(args[0].1, SoapValue::Xml(jobs));
    }
}
