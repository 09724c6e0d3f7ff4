//! SOAP envelope construction and parsing.
//!
//! An [`Envelope`] is a list of header entries plus exactly one body entry.
//! RPC requests put a method wrapper element in the body
//! (`<m:METHOD xmlns:m="urn:SERVICE">` with one child per parameter);
//! responses use `<METHODResponse>` with a single `<return>` child; faults
//! use `<SOAP-ENV:Fault>`.

use std::borrow::Cow;

use portalws_xml::{Element, Node, XmlError};

use crate::fault::Fault;
use crate::value::SoapValue;
use crate::{SOAP_ENV_NS, XSD_NS, XSI_NS};

/// A SOAP message: headers plus one body entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Header entries, in order (SAML assertions, session tokens, …).
    pub headers: Vec<Element>,
    /// The single body entry.
    pub body: Element,
}

impl Envelope {
    /// Wrap a body entry with no headers.
    pub fn new(body: Element) -> Envelope {
        Envelope {
            headers: Vec::new(),
            body,
        }
    }

    /// Build an RPC request envelope for `service`/`method` with positional
    /// parameters. Parameter elements are named `arg0`, `arg1`, … unless a
    /// name is supplied via [`Envelope::request_named`].
    pub fn request(service: &str, method: &str, args: &[SoapValue]) -> Envelope {
        let named: Vec<(String, &SoapValue)> = args
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("arg{i}"), v))
            .collect();
        Self::request_named(service, method, named.iter().map(|(n, v)| (n.as_str(), *v)))
    }

    /// Build an RPC request envelope with explicitly named parameters.
    pub fn request_named<'v>(
        service: &str,
        method: &str,
        args: impl IntoIterator<Item = (&'v str, &'v SoapValue)>,
    ) -> Envelope {
        let mut wrapper =
            Element::new(format!("m:{method}")).with_attr("xmlns:m", format!("urn:{service}"));
        for (name, value) in args {
            wrapper.push_child(value.to_element(name));
        }
        Envelope::new(wrapper)
    }

    /// Build an RPC response envelope for `method` returning `value`.
    pub fn response(method: &str, value: &SoapValue) -> Envelope {
        let wrapper =
            Element::new(format!("{method}Response")).with_child(value.to_element("return"));
        Envelope::new(wrapper)
    }

    /// Build a fault envelope.
    pub fn fault(fault: &Fault) -> Envelope {
        Envelope::new(fault.to_element())
    }

    /// Builder: add a header entry.
    pub fn with_header(mut self, header: Element) -> Envelope {
        self.headers.push(header);
        self
    }

    /// Find a header entry by local name.
    pub fn header(&self, local_name: &str) -> Option<&Element> {
        self.headers.iter().find(|h| h.local_name() == local_name)
    }

    /// Is the body a fault?
    pub fn is_fault(&self) -> bool {
        self.body.local_name() == "Fault"
    }

    /// Extract the fault, if the body is one.
    pub fn as_fault(&self) -> Option<Fault> {
        self.is_fault().then(|| Fault::from_element(&self.body))
    }

    /// The method name of an RPC request body (`m:submit` → `submit`).
    pub fn method(&self) -> &str {
        self.body.local_name()
    }

    /// The `urn:` service name from the request wrapper's namespace
    /// declaration, if present.
    pub fn service(&self) -> Option<&str> {
        self.body
            .namespace_decls()
            .into_iter()
            .find_map(|(_, uri)| uri.strip_prefix("urn:"))
    }

    /// Decode the positional/named parameters of an RPC request body.
    pub fn args(&self) -> Result<Vec<(String, SoapValue)>, String> {
        self.body
            .children()
            .map(|c| SoapValue::from_element(c).map(|v| (c.local_name().to_owned(), v)))
            .collect()
    }

    /// Decode the `<return>` value of an RPC response body.
    pub fn return_value(&self) -> Result<SoapValue, String> {
        match self.body.find("return") {
            Some(r) => SoapValue::from_element(r),
            None => Ok(SoapValue::Null),
        }
    }

    /// Serialize the full `<SOAP-ENV:Envelope>` document element.
    ///
    /// Clones the header and body trees into a new element; serialization
    /// paths should prefer [`Envelope::write_xml_into`], which writes the
    /// same bytes without the clone.
    pub fn to_element(&self) -> Element {
        let mut env = Element::new("SOAP-ENV:Envelope")
            .with_attr("xmlns:SOAP-ENV", SOAP_ENV_NS)
            .with_attr("xmlns:xsi", XSI_NS)
            .with_attr("xmlns:xsd", XSD_NS);
        if !self.headers.is_empty() {
            let mut header = Element::new("SOAP-ENV:Header");
            for h in &self.headers {
                header.push_child(h.clone());
            }
            env.push_child(header);
        }
        env.push_child(Element::new("SOAP-ENV:Body").with_child(self.body.clone()));
        env
    }

    /// Serialize into an existing buffer (appends), writing the envelope
    /// wrapper directly around the header/body trees — byte-identical to
    /// `to_element().to_xml()` but with no tree clone and no intermediate
    /// allocation. The SOAP hot path (server replies, client requests)
    /// routes through this with reusable scratch buffers.
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
                h.write_xml_into(out);
            }
            out.push_str("</SOAP-ENV:Header>");
        }
        out.push_str("<SOAP-ENV:Body>");
        self.body.write_xml_into(out);
        out.push_str("</SOAP-ENV:Body></SOAP-ENV:Envelope>");
    }

    /// Serialize to XML text (the HTTP body).
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(192 + self.body.subtree_size() * 24);
        self.write_xml_into(&mut out);
        out
    }

    /// Parse an envelope from XML text.
    pub fn parse(xml: &str) -> Result<Envelope, XmlError> {
        Self::from_root(Element::parse(xml)?)
    }

    /// Parse an envelope from an already-parsed element.
    pub fn from_element(root: &Element) -> Result<Envelope, XmlError> {
        Self::from_root(root.clone())
    }

    /// Build an envelope from the root element by value.
    ///
    /// The hot path: header and body subtrees are moved out of `root`
    /// rather than deep-cloned, so parsing costs exactly one DOM build.
    // portalint: hot-path-entry
    pub fn from_root(mut root: Element) -> Result<Envelope, XmlError> {
        if root.local_name() != "Envelope" {
            // portalint: allow(hot-path-alloc) — parse-error branch; never runs on a well-formed envelope
            return Err(XmlError::Invalid(format!(
                "expected SOAP Envelope, found {:?}",
                root.local_name()
            )));
        }
        let mut headers: Option<Vec<Element>> = None;
        let mut body: Option<Vec<Element>> = None;
        for node in root.take_children() {
            let Node::Element(mut el) = node else {
                continue;
            };
            // First Header / first Body win, matching `Element::find`.
            match el.local_name() {
                "Header" if headers.is_none() => {
                    headers = Some(
                        el.take_children()
                            .into_iter()
                            .filter_map(|n| match n {
                                Node::Element(e) => Some(e),
                                _ => None,
                            })
                            .collect(),
                    );
                }
                "Body" if body.is_none() => {
                    body = Some(
                        el.take_children()
                            .into_iter()
                            .filter_map(|n| match n {
                                Node::Element(e) => Some(e),
                                _ => None,
                            })
                            .collect(),
                    );
                }
                _ => {}
            }
        }
        let body = body
            .ok_or_else(|| XmlError::Invalid("envelope has no Body".into()))?
            .into_iter()
            .next()
            .ok_or_else(|| XmlError::Invalid("envelope Body is empty".into()))?;
        Ok(Envelope {
            headers: headers.unwrap_or_default(),
            body,
        })
    }
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
        let body = Envelope::request("Calc", "echo", &[SoapValue::str("h\u{e9}")])
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
            &[SoapValue::str("tg-login"), SoapValue::Int(4)],
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
        let env = Envelope::response("submit", &SoapValue::Int(99));
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert!(!parsed.is_fault());
        assert_eq!(parsed.return_value().unwrap(), SoapValue::Int(99));
    }

    #[test]
    fn void_response() {
        let env = Envelope::response("delete", &SoapValue::Null);
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
        let env = Envelope::request("Ctx", "get", &[]).with_header(assertion.clone());
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(parsed.headers.len(), 1);
        assert_eq!(parsed.header("Assertion"), Some(&assertion));
    }

    #[test]
    fn write_into_matches_element_serialization() {
        // The direct writer must stay byte-identical to the (cloning)
        // to_element() path, with and without headers.
        let with_headers = Envelope::request("Svc", "m", &[SoapValue::str("a & b")])
            .with_header(Element::new("saml:Assertion").with_text_child("subject", "<alice>"));
        let plain = Envelope::response("m", &SoapValue::Int(7));
        for env in [with_headers, plain] {
            let mut buf = String::new();
            env.write_xml_into(&mut buf);
            assert_eq!(buf, env.to_element().to_xml());
            assert_eq!(env.to_xml(), buf);
        }
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
        let env = Envelope::request(
            "JobSubmission",
            "submitXml",
            &[SoapValue::Xml(jobs.clone())],
        );
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        let args = parsed.args().unwrap();
        assert_eq!(args[0].1, SoapValue::Xml(jobs));
    }
}
