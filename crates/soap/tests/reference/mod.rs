//! The DOM codec the streaming one replaced, kept as a test oracle.
//!
//! Values were encoded by building an `Element` per value
//! (`to_element`) and decoded from a fully parsed DOM (`from_element`,
//! with `infer_type` for untagged elements); envelopes were built around
//! a body `Element` and parsed as `Element::parse` plus a split of the
//! root into header and body trees. The code below is that codec,
//! unchanged apart from being free functions.

#![allow(dead_code)]

use portalws_soap::base64;
use portalws_soap::{Fault, SoapType, SoapValue, SOAP_ENV_NS, XSD_NS, XSI_NS};
use portalws_xml::{Element, Node, XmlError};

/// Encode `value` as an element named `name`, with an `xsi:type`
/// attribute identifying the type.
pub fn to_element(value: &SoapValue, name: &str) -> Element {
    let mut el = Element::new(name).with_attr("xsi:type", value.soap_type().wire_name());
    match value {
        SoapValue::String(s) => {
            if !s.is_empty() {
                el = Element::new(name)
                    .with_attr("xsi:type", value.soap_type().wire_name())
                    .with_text(s.clone());
            }
        }
        SoapValue::Int(i) => el = el.with_text(i.to_string()),
        SoapValue::Double(d) => el = el.with_text(format_double(*d)),
        SoapValue::Bool(b) => el = el.with_text(if *b { "true" } else { "false" }),
        SoapValue::Base64(bytes) => el = el.with_text(base64::encode(bytes)),
        SoapValue::Array(items) => {
            for item in items {
                el.push_child(to_element(item, "item"));
            }
        }
        SoapValue::Struct(fields) => {
            for (fname, fval) in fields {
                el.push_child(to_element(fval, fname));
            }
        }
        SoapValue::Xml(doc) => {
            el.push_child(doc.clone());
        }
        SoapValue::Null => {
            el.set_attr("xsi:nil", "true");
        }
    }
    el
}

/// Decode an element produced by [`to_element`] (or by a peer).
pub fn from_element(el: &Element) -> Result<SoapValue, String> {
    if el.attr("xsi:nil") == Some("true") {
        return Ok(SoapValue::Null);
    }
    let declared = el
        .attr("xsi:type")
        .and_then(SoapType::from_wire_name)
        .unwrap_or_else(|| infer_type(el));
    match declared {
        SoapType::String => Ok(SoapValue::String(el.text())),
        SoapType::Int => el
            .text()
            .trim()
            .parse::<i64>()
            .map(SoapValue::Int)
            .map_err(|_| format!("bad int value {:?}", el.text())),
        SoapType::Double => el
            .text()
            .trim()
            .parse::<f64>()
            .map(SoapValue::Double)
            .map_err(|_| format!("bad double value {:?}", el.text())),
        SoapType::Boolean => match el.text().trim() {
            "true" | "1" => Ok(SoapValue::Bool(true)),
            "false" | "0" => Ok(SoapValue::Bool(false)),
            other => Err(format!("bad boolean value {other:?}")),
        },
        SoapType::Base64 => {
            let mut dec = base64::Base64Decoder::new();
            let mut bytes = Vec::new();
            el.nodes()
                .iter()
                .filter_map(Node::as_text)
                .try_for_each(|text| dec.update(text, &mut bytes))
                .and_then(|()| dec.finish())
                .map(|()| SoapValue::Base64(bytes))
                .ok_or_else(|| "bad base64 payload".to_string())
        }
        SoapType::Array => {
            let items = el
                .children()
                .map(from_element)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SoapValue::Array(items))
        }
        SoapType::Struct => {
            let fields = el
                .children()
                .map(|c| from_element(c).map(|v| (c.local_name().to_owned(), v)))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SoapValue::Struct(fields))
        }
        SoapType::Xml => el
            .children()
            .next()
            .cloned()
            .map(SoapValue::Xml)
            .ok_or_else(|| "xml value with no embedded element".to_string()),
        SoapType::Void => Ok(SoapValue::Null),
    }
}

fn format_double(d: f64) -> String {
    if d == d.trunc() && d.abs() < 1e15 {
        format!("{d:.1}")
    } else {
        format!("{d}")
    }
}

/// Heuristic typing for untagged elements: children named `item` → array,
/// any children → struct, otherwise string.
pub fn infer_type(el: &Element) -> SoapType {
    let mut children = el.children().peekable();
    match children.peek() {
        None => SoapType::String,
        Some(first) if first.local_name() == "item" => SoapType::Array,
        Some(_) => SoapType::Struct,
    }
}

/// The DOM envelope: header trees plus one body tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RefEnvelope {
    pub headers: Vec<Element>,
    pub body: Element,
}

impl RefEnvelope {
    pub fn request(service: &str, method: &str, args: &[SoapValue]) -> RefEnvelope {
        let mut wrapper =
            Element::new(format!("m:{method}")).with_attr("xmlns:m", format!("urn:{service}"));
        for (i, value) in args.iter().enumerate() {
            wrapper.push_child(to_element(value, &format!("arg{i}")));
        }
        RefEnvelope {
            headers: Vec::new(),
            body: wrapper,
        }
    }

    pub fn response(method: &str, value: &SoapValue) -> RefEnvelope {
        RefEnvelope {
            headers: Vec::new(),
            body: Element::new(format!("{method}Response")).with_child(to_element(value, "return")),
        }
    }

    pub fn fault(fault: &Fault) -> RefEnvelope {
        RefEnvelope {
            headers: Vec::new(),
            body: fault.to_element(),
        }
    }

    pub fn is_fault(&self) -> bool {
        self.body.local_name() == "Fault"
    }

    pub fn as_fault(&self) -> Option<Fault> {
        self.is_fault().then(|| Fault::from_element(&self.body))
    }

    pub fn method(&self) -> &str {
        self.body.local_name()
    }

    pub fn service(&self) -> Option<&str> {
        self.body
            .namespace_decls()
            .into_iter()
            .find_map(|(_, uri)| uri.strip_prefix("urn:"))
    }

    pub fn args(&self) -> Result<Vec<(String, SoapValue)>, String> {
        self.body
            .children()
            .map(|c| from_element(c).map(|v| (c.local_name().to_owned(), v)))
            .collect()
    }

    pub fn return_value(&self) -> Result<SoapValue, String> {
        match self.body.find("return") {
            Some(r) => from_element(r),
            None => Ok(SoapValue::Null),
        }
    }

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

    pub fn to_xml(&self) -> String {
        self.to_element().to_xml()
    }

    pub fn parse(xml: &str) -> Result<RefEnvelope, XmlError> {
        Self::from_root(Element::parse(xml)?)
    }

    pub fn from_root(mut root: Element) -> Result<RefEnvelope, XmlError> {
        if root.local_name() != "Envelope" {
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
        Ok(RefEnvelope {
            headers: headers.unwrap_or_default(),
            body,
        })
    }
}
