//! The RPC value model and its XML encoding.
//!
//! The paper's services exchange "plain strings", "XML definitions of a
//! job", arrays (the SRB `ls` result), and structs; §3.4 flags WSDL
//! *complex types* as the open interoperability question. [`SoapValue`]
//! covers exactly those shapes, and the encoder tags every parameter with
//! an `xsi:type` so independently written peers can decode without a
//! priori knowledge — the property the batch-script interop test (E10)
//! exercises.

use portalws_xml::{Element, Node};

use crate::base64;

/// Wire-level type tags for values and WSDL message parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoapType {
    /// `xsd:string`
    String,
    /// `xsd:int`
    Int,
    /// `xsd:double`
    Double,
    /// `xsd:boolean`
    Boolean,
    /// `xsd:base64Binary`
    Base64,
    /// `SOAP-ENC:Array`
    Array,
    /// Generic struct (complex type).
    Struct,
    /// Embedded literal XML (the paper's "XML definition of a job" pattern:
    /// an XML document passed through the RPC layer).
    Xml,
    /// No value (void return).
    Void,
}

impl SoapType {
    /// The `xsd:`/`SOAP-ENC:` name used in `xsi:type` attributes.
    pub fn wire_name(self) -> &'static str {
        match self {
            SoapType::String => "xsd:string",
            SoapType::Int => "xsd:int",
            SoapType::Double => "xsd:double",
            SoapType::Boolean => "xsd:boolean",
            SoapType::Base64 => "xsd:base64Binary",
            SoapType::Array => "SOAP-ENC:Array",
            SoapType::Struct => "tns:struct",
            SoapType::Xml => "tns:xml",
            SoapType::Void => "tns:void",
        }
    }

    /// Reverse of [`SoapType::wire_name`] (prefix-insensitive).
    pub fn from_wire_name(name: &str) -> Option<SoapType> {
        let local = name.split_once(':').map(|(_, l)| l).unwrap_or(name);
        Some(match local {
            "string" => SoapType::String,
            "int" | "integer" | "long" => SoapType::Int,
            "double" | "float" | "decimal" => SoapType::Double,
            "boolean" => SoapType::Boolean,
            "base64Binary" | "base64" => SoapType::Base64,
            "Array" => SoapType::Array,
            "struct" => SoapType::Struct,
            "xml" => SoapType::Xml,
            "void" => SoapType::Void,
            _ => return None,
        })
    }
}

/// One RPC value.
#[derive(Debug, Clone, PartialEq)]
pub enum SoapValue {
    /// Text.
    String(String),
    /// Integer.
    Int(i64),
    /// Floating point.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// Raw bytes, carried as base64.
    Base64(Vec<u8>),
    /// Ordered array of values.
    Array(Vec<SoapValue>),
    /// Named fields in order.
    Struct(Vec<(String, SoapValue)>),
    /// A literal XML element passed through the RPC layer.
    Xml(Element),
    /// Absent value / void return.
    Null,
}

impl SoapValue {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> SoapValue {
        SoapValue::String(s.into())
    }

    /// The value's wire type.
    pub fn soap_type(&self) -> SoapType {
        match self {
            SoapValue::String(_) => SoapType::String,
            SoapValue::Int(_) => SoapType::Int,
            SoapValue::Double(_) => SoapType::Double,
            SoapValue::Bool(_) => SoapType::Boolean,
            SoapValue::Base64(_) => SoapType::Base64,
            SoapValue::Array(_) => SoapType::Array,
            SoapValue::Struct(_) => SoapType::Struct,
            SoapValue::Xml(_) => SoapType::Xml,
            SoapValue::Null => SoapType::Void,
        }
    }

    /// Borrow as `&str` if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            SoapValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// As integer (accepting `Int`).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            SoapValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// As double (accepting `Double` or `Int`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            SoapValue::Double(d) => Some(*d),
            SoapValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// As boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            SoapValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As byte payload.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            SoapValue::Base64(b) => Some(b),
            _ => None,
        }
    }

    /// As array slice.
    pub fn as_array(&self) -> Option<&[SoapValue]> {
        match self {
            SoapValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// As embedded XML.
    pub fn as_xml(&self) -> Option<&Element> {
        match self {
            SoapValue::Xml(e) => Some(e),
            _ => None,
        }
    }

    /// Struct field lookup.
    pub fn field(&self, name: &str) -> Option<&SoapValue> {
        match self {
            SoapValue::Struct(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Encode this value as an element named `name`, with an `xsi:type`
    /// attribute identifying the type.
    pub fn to_element(&self, name: &str) -> Element {
        let mut el = Element::new(name).with_attr("xsi:type", self.soap_type().wire_name());
        match self {
            SoapValue::String(s) => {
                if !s.is_empty() {
                    el = Element::new(name)
                        .with_attr("xsi:type", self.soap_type().wire_name())
                        .with_text(s.clone());
                }
            }
            SoapValue::Int(i) => el = el.with_text(i.to_string()),
            SoapValue::Double(d) => el = el.with_text(format_double(*d)),
            SoapValue::Bool(b) => el = el.with_text(if *b { "true" } else { "false" }),
            SoapValue::Base64(bytes) => el = el.with_text(base64::encode(bytes)),
            SoapValue::Array(items) => {
                for item in items {
                    el.push_child(item.to_element("item"));
                }
            }
            SoapValue::Struct(fields) => {
                for (fname, fval) in fields {
                    el.push_child(fval.to_element(fname));
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

    /// Decode an element produced by [`SoapValue::to_element`] (or by a
    /// peer implementation). Falls back to heuristics when `xsi:type` is
    /// absent, because 2002-era peers did not always send it.
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
                // Decode each text node in place: a chunk's payload is one
                // large node, and concatenating first would copy it again.
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
                    .map(SoapValue::from_element)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(SoapValue::Array(items))
            }
            SoapType::Struct => {
                let fields = el
                    .children()
                    .map(|c| SoapValue::from_element(c).map(|v| (c.local_name().to_owned(), v)))
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
}

/// Render a double the way 2002 toolchains did: plain decimal, no exponent
/// for ordinary magnitudes.
fn format_double(d: f64) -> String {
    if d == d.trunc() && d.abs() < 1e15 {
        format!("{d:.1}")
    } else {
        format!("{d}")
    }
}

/// Heuristic typing for untagged elements: children named `item` → array,
/// any children → struct, otherwise string.
fn infer_type(el: &Element) -> SoapType {
    let mut children = el.children().peekable();
    match children.peek() {
        None => SoapType::String,
        Some(first) if first.local_name() == "item" => SoapType::Array,
        Some(_) => SoapType::Struct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: SoapValue) -> SoapValue {
        let el = v.to_element("p");
        SoapValue::from_element(&el).unwrap()
    }

    #[test]
    fn scalar_round_trips() {
        assert_eq!(round_trip(SoapValue::str("hello")), SoapValue::str("hello"));
        assert_eq!(round_trip(SoapValue::Int(-42)), SoapValue::Int(-42));
        assert_eq!(round_trip(SoapValue::Bool(true)), SoapValue::Bool(true));
        assert_eq!(round_trip(SoapValue::Double(2.5)), SoapValue::Double(2.5));
        assert_eq!(round_trip(SoapValue::Null), SoapValue::Null);
    }

    #[test]
    fn whole_double_keeps_decimal_point() {
        let el = SoapValue::Double(3.0).to_element("p");
        assert_eq!(el.text(), "3.0");
    }

    #[test]
    fn base64_round_trip() {
        let bytes: Vec<u8> = (0u8..100).collect();
        assert_eq!(
            round_trip(SoapValue::Base64(bytes.clone())),
            SoapValue::Base64(bytes)
        );
    }

    #[test]
    fn base64_decodes_across_text_cdata_and_whitespace_nodes() {
        let bytes = b"one payload, many text nodes".to_vec();
        let text = base64::encode(&bytes);
        // Cut inside a quad and inside an 8-char block.
        let (head, rest) = text.split_at(5);
        let (mid, tail) = rest.split_at(11);
        let el = Element::new("p")
            .with_attr("xsi:type", "xsd:base64Binary")
            .with_text(format!("\n  {head}"))
            .with_cdata(mid)
            .with_text("\n\t ")
            .with_text(tail)
            .with_text("\r\n");
        assert_eq!(el.nodes().len(), 5);
        let want = SoapValue::Base64(bytes);
        assert_eq!(SoapValue::from_element(&el).unwrap(), want);
        // The same split as parsed from the wire, with a comment between.
        let xml = format!(
            r#"<p xsi:type="xsd:base64Binary">{head}<![CDATA[{mid}]]><!-- c -->{tail}</p>"#
        );
        let parsed = Element::parse(&xml).unwrap();
        assert_eq!(SoapValue::from_element(&parsed).unwrap(), want);
        // Padding that closes a quad in an earlier node ends the value.
        let early_pad = Element::new("p")
            .with_attr("xsi:type", "xsd:base64Binary")
            .with_text("Zg==")
            .with_cdata("Zg==");
        assert!(SoapValue::from_element(&early_pad).is_err());
    }

    #[test]
    fn array_round_trip() {
        let v = SoapValue::Array(vec![
            SoapValue::str("a"),
            SoapValue::Int(1),
            SoapValue::Array(vec![SoapValue::Bool(false)]),
        ]);
        assert_eq!(round_trip(v.clone()), v);
    }

    #[test]
    fn struct_round_trip_preserves_field_order() {
        let v = SoapValue::Struct(vec![
            ("host".into(), SoapValue::str("tg-login")),
            ("cpus".into(), SoapValue::Int(16)),
        ]);
        let rt = round_trip(v.clone());
        assert_eq!(rt, v);
        assert_eq!(rt.field("cpus"), Some(&SoapValue::Int(16)));
    }

    #[test]
    fn embedded_xml_round_trip() {
        let doc = Element::new("jobs")
            .with_child(Element::new("job").with_text_child("command", "/bin/hostname"));
        let v = SoapValue::Xml(doc.clone());
        assert_eq!(round_trip(v), SoapValue::Xml(doc));
    }

    #[test]
    fn empty_string_round_trip() {
        assert_eq!(round_trip(SoapValue::str("")), SoapValue::str(""));
    }

    #[test]
    fn untagged_elements_decoded_heuristically() {
        let el = Element::parse("<r><item>1</item><item>2</item></r>").unwrap();
        let v = SoapValue::from_element(&el).unwrap();
        assert_eq!(
            v,
            SoapValue::Array(vec![SoapValue::str("1"), SoapValue::str("2")])
        );
        let el = Element::parse("<r><a>1</a><b>2</b></r>").unwrap();
        let v = SoapValue::from_element(&el).unwrap();
        assert_eq!(v.field("b"), Some(&SoapValue::str("2")));
    }

    #[test]
    fn bad_typed_values_error() {
        let el = Element::parse(r#"<p xsi:type="xsd:int">notanint</p>"#).unwrap();
        assert!(SoapValue::from_element(&el).is_err());
        let el = Element::parse(r#"<p xsi:type="xsd:boolean">maybe</p>"#).unwrap();
        assert!(SoapValue::from_element(&el).is_err());
    }

    #[test]
    fn string_with_markup_escapes() {
        let v = SoapValue::str("<script>&");
        let el = v.to_element("p");
        let xml = el.to_xml();
        assert!(xml.contains("&lt;script&gt;&amp;"));
        assert_eq!(
            SoapValue::from_element(&Element::parse(&xml).unwrap()).unwrap(),
            v
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(SoapValue::str("x").as_str(), Some("x"));
        assert_eq!(SoapValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(SoapValue::Bool(true).as_bool(), Some(true));
        assert!(SoapValue::Null.as_str().is_none());
    }
}
