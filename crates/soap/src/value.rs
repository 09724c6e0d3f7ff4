//! The RPC value model and its XML encoding.
//!
//! The paper's services exchange "plain strings", "XML definitions of a
//! job", arrays (the SRB `ls` result), and structs; §3.4 flags WSDL
//! *complex types* as the open interoperability question. [`SoapValue`]
//! covers exactly those shapes, and the encoder tags every parameter with
//! an `xsi:type` so independently written peers can decode without a
//! priori knowledge — the property the batch-script interop test (E10)
//! exercises.

use std::borrow::Cow;
use std::fmt::Write;

use portalws_xml::escape::escape_text;
use portalws_xml::{Element, Event, Node, Tokenizer, XmlError};

use crate::base64::{Base64Decoder, Base64Encoder};

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
    /// attribute identifying the type, appending the XML to `out`.
    ///
    /// The only value encoder: envelopes write every parameter and return
    /// value straight into their output buffer through it. Empty strings,
    /// arrays and structs close as `<name …/>`; `Null` is
    /// `<name xsi:type="tns:void" xsi:nil="true"/>`. String content is
    /// escaped through [`portalws_xml::escape`]; base64 text needs none.
    // portalint: hot-path-entry
    pub fn write_xml(&self, name: &str, out: &mut String) {
        out.push('<');
        out.push_str(name);
        out.push_str(" xsi:type=\"");
        out.push_str(self.soap_type().wire_name());
        out.push('"');
        match self {
            SoapValue::String(s) if !s.is_empty() => {
                out.push('>');
                out.push_str(&escape_text(s));
            }
            SoapValue::Int(i) => {
                out.push('>');
                let _ = write!(out, "{i}");
            }
            SoapValue::Double(d) => {
                out.push('>');
                write_double(*d, out);
            }
            SoapValue::Bool(b) => {
                out.push('>');
                out.push_str(if *b { "true" } else { "false" });
            }
            SoapValue::Base64(bytes) => {
                out.push('>');
                out.reserve(bytes.len().div_ceil(3) * 4);
                let mut enc = Base64Encoder::new();
                enc.update(bytes, out);
                enc.finish(out);
            }
            SoapValue::Array(items) if !items.is_empty() => {
                out.push('>');
                for item in items {
                    item.write_xml("item", out);
                }
            }
            SoapValue::Struct(fields) if !fields.is_empty() => {
                out.push('>');
                for (field, value) in fields {
                    value.write_xml(field, out);
                }
            }
            SoapValue::Xml(doc) => {
                out.push('>');
                doc.write_xml_into(out);
            }
            SoapValue::Null => {
                out.push_str(" xsi:nil=\"true\"/>");
                return;
            }
            // Empty string, array or struct.
            _ => {
                out.push_str("/>");
                return;
            }
        }
        out.push_str("</");
        out.push_str(name);
        out.push('>');
    }

    /// A size estimate for [`SoapValue::write_xml`] under `name`, exact
    /// but for escaping and the width of scalars: base64 text counts
    /// exactly, and a scalar within an allowance for the tags.
    pub(crate) fn len_hint(&self, name: &str) -> usize {
        /// `<name xsi:type="…">`, `</name>` less the names, and a scalar.
        const TAGS: usize = 64;
        let content = match self {
            SoapValue::String(s) => s.len(),
            SoapValue::Base64(bytes) => bytes.len().div_ceil(3) * 4,
            SoapValue::Array(items) => items.iter().map(|v| v.len_hint("item")).sum(),
            SoapValue::Struct(fields) => fields.iter().map(|(n, v)| v.len_hint(n)).sum(),
            SoapValue::Xml(doc) => element_len_hint(doc),
            _ => 0,
        };
        2 * name.len() + TAGS + content
    }

    /// Decode the value element whose start tag `tok` has just produced
    /// (`name`, `attrs` and `self_closing` are that event's fields),
    /// consuming events through its end tag.
    ///
    /// The only value decoder. The outer error is a well-formedness error
    /// and fails the whole document; the inner one is a value that does
    /// not decode (bad int, double, boolean or base64 text, or a
    /// `tns:xml` value with no element), after which the rest of the
    /// element is still read, so the document parse goes on. Rules:
    ///
    /// * `xsi:nil="true"` is `Null` whatever the content; `xsi:type` is
    ///   matched without regard to its prefix.
    /// * Untyped elements are inferred from their first child element:
    ///   `item` makes an array, any other name a struct, none a string
    ///   (2002-era peers did not always send `xsi:type`).
    /// * Only direct text and CDATA count as content. A declared
    ///   `xsd:string` keeps every run verbatim, whitespace included; other
    ///   types, like the DOM, skip whitespace-only text runs.
    /// * `xsd:base64Binary` text is fed to one decoder run by run, where it
    ///   lies.
    /// * `tns:xml` keeps its first child element as DOM.
    pub fn read<'a>(
        tok: &mut Tokenizer<'a>,
        name: &str,
        attrs: &[(Cow<'a, str>, Cow<'a, str>)],
        self_closing: bool,
    ) -> portalws_xml::Result<Result<SoapValue, String>> {
        let attr = |key: &str| {
            attrs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_ref())
        };
        let mut decode = if attr("xsi:nil") == Some("true") {
            Decode::Null
        } else {
            Decode::new(attr("xsi:type").and_then(SoapType::from_wire_name))
        };
        read_content(tok, name, self_closing, |tok, piece| {
            decode.feed(tok, piece)
        })?;
        Ok(decode.into_value())
    }
}

/// One piece of an element's content as the value decoder sees it.
pub(crate) enum Piece<'a> {
    /// A text run (entities resolved).
    Text(Cow<'a, str>),
    /// A CDATA section.
    CData(Cow<'a, str>),
    /// A child's start tag: name, attributes, self-closing.
    Child(Cow<'a, str>, Vec<(Cow<'a, str>, Cow<'a, str>)>, bool),
}

/// Read the content of the element `parent`, whose start tag was just
/// read, through its end tag (none when `self_closing`): each text run,
/// CDATA section and child start tag goes to `f`, which must consume a
/// child through the child's end tag. Comments and processing
/// instructions are skipped. Errors match [`Element::parse`]'s.
pub(crate) fn read_content<'a>(
    tok: &mut Tokenizer<'a>,
    parent: &str,
    self_closing: bool,
    mut f: impl FnMut(&mut Tokenizer<'a>, Piece<'a>) -> portalws_xml::Result<()>,
) -> portalws_xml::Result<()> {
    if self_closing {
        return Ok(());
    }
    loop {
        let at = tok.offset();
        let Some(ev) = tok.next_event()? else {
            return Err(XmlError::UnexpectedEof { pos: tok.pos() });
        };
        match ev {
            Event::Text(t) => f(tok, Piece::Text(t))?,
            Event::CData(t) => f(tok, Piece::CData(t))?,
            Event::StartTag {
                name,
                attrs,
                self_closing,
            } => f(tok, Piece::Child(name, attrs, self_closing))?,
            Event::EndTag { name } if name == parent => return Ok(()),
            Event::EndTag { name } => {
                return Err(XmlError::MismatchedTag {
                    pos: tok.pos_at(at),
                    open: parent.to_owned(),
                    close: name.into_owned(),
                })
            }
            Event::Comment(_) | Event::Decl(_) | Event::Doctype(_) | Event::Pi { .. } => {}
        }
    }
}

/// A size estimate for an element's compact serialization, exact but for
/// escaping.
pub(crate) fn element_len_hint(el: &Element) -> usize {
    let content: usize = (el.nodes().iter())
        .map(|node| match node {
            Node::Element(child) => element_len_hint(child),
            Node::Text(text) => text.len(),
            Node::CData(text) => text.len() + "<![CDATA[]]>".len(),
            Node::Comment(text) => text.len() + "<!---->".len(),
        })
        .sum();
    tags_len_hint(el.name(), el.attrs()) + content
}

/// The length of `<name k="v"…>` and `</name>`, exact but for escaping.
pub(crate) fn tags_len_hint(name: &str, attrs: &[(String, String)]) -> usize {
    let attrs: usize = attrs.iter().map(|(k, v)| k.len() + v.len() + 4).sum();
    2 * name.len() + "<></>".len() + attrs
}

/// Name with any `prefix:` removed.
pub(crate) fn local_name(name: &str) -> &str {
    name.split_once(':').map_or(name, |(_, local)| local)
}

/// Whitespace-only text, which the DOM (and every non-string value)
/// ignores.
fn blank(text: &str) -> bool {
    text.trim().is_empty()
}

/// Decoder state for one value element, fed its content piece by piece.
enum Decode {
    /// `xsi:nil` or `tns:void`: content is ignored.
    Null,
    /// A scalar read from its text; `verbatim` (declared `xsd:string`)
    /// keeps whitespace-only runs.
    Text {
        ty: SoapType,
        text: String,
        verbatim: bool,
    },
    /// `xsd:base64Binary`; `ok` turns false at the first bad run.
    Base64 {
        dec: Base64Decoder,
        bytes: Vec<u8>,
        ok: bool,
    },
    Array(Vec<SoapValue>),
    Struct(Vec<(String, SoapValue)>),
    Xml(Option<Element>),
    /// No `xsi:type`, and no child element seen yet: a string so far.
    Untyped(String),
    /// A child failed to decode; its error is the value's, and the rest
    /// of the content is only checked for well-formedness.
    Failed(String),
}

impl Decode {
    fn new(ty: Option<SoapType>) -> Decode {
        let text = |ty, verbatim| Decode::Text {
            ty,
            text: String::new(),
            verbatim,
        };
        match ty {
            None => Decode::Untyped(String::new()),
            Some(SoapType::String) => text(SoapType::String, true),
            Some(ty @ (SoapType::Int | SoapType::Double | SoapType::Boolean)) => text(ty, false),
            Some(SoapType::Base64) => Decode::Base64 {
                dec: Base64Decoder::new(),
                bytes: Vec::new(),
                ok: true,
            },
            Some(SoapType::Array) => Decode::Array(Vec::new()),
            Some(SoapType::Struct) => Decode::Struct(Vec::new()),
            Some(SoapType::Xml) => Decode::Xml(None),
            Some(SoapType::Void) => Decode::Null,
        }
    }

    fn feed<'a>(&mut self, tok: &mut Tokenizer<'a>, piece: Piece<'a>) -> portalws_xml::Result<()> {
        let (run, cdata) = match piece {
            Piece::Text(t) => (t, false),
            Piece::CData(t) => (t, true),
            Piece::Child(name, attrs, self_closing) => {
                return self.child(tok, name, attrs, self_closing)
            }
        };
        let kept = cdata || !blank(&run);
        match self {
            Decode::Text { text, verbatim, .. } if kept || *verbatim => append(text, run),
            Decode::Untyped(text) if kept => append(text, run),
            Decode::Base64 { dec, bytes, ok } if kept && *ok => {
                *ok = dec.update(&run, bytes).is_some();
            }
            _ => {}
        }
        Ok(())
    }

    fn child<'a>(
        &mut self,
        tok: &mut Tokenizer<'a>,
        name: Cow<'a, str>,
        attrs: Vec<(Cow<'a, str>, Cow<'a, str>)>,
        self_closing: bool,
    ) -> portalws_xml::Result<()> {
        if let Decode::Untyped(_) = self {
            *self = if local_name(&name) == "item" {
                Decode::Array(Vec::new())
            } else {
                Decode::Struct(Vec::new())
            };
        }
        match self {
            Decode::Array(_) | Decode::Struct(_) => {
                let value = SoapValue::read(tok, &name, &attrs, self_closing)?;
                match (self, value) {
                    (Decode::Array(items), Ok(value)) => items.push(value),
                    (Decode::Struct(fields), Ok(value)) => {
                        fields.push((local_name(&name).to_owned(), value));
                    }
                    (this, Err(e)) => *this = Decode::Failed(e),
                    _ => {}
                }
            }
            Decode::Xml(slot @ None) => {
                *slot = Some(Element::read_subtree(tok, name, attrs, self_closing)?);
            }
            // Content the value ignores is still read in full.
            _ => {
                Element::read_subtree(tok, name, attrs, self_closing)?;
            }
        }
        Ok(())
    }

    fn into_value(self) -> Result<SoapValue, String> {
        match self {
            Decode::Null => Ok(SoapValue::Null),
            Decode::Text { ty, text, .. } => match ty {
                SoapType::Int => text
                    .trim()
                    .parse::<i64>()
                    .map(SoapValue::Int)
                    .map_err(|_| format!("bad int value {text:?}")),
                SoapType::Double => text
                    .trim()
                    .parse::<f64>()
                    .map(SoapValue::Double)
                    .map_err(|_| format!("bad double value {text:?}")),
                SoapType::Boolean => match text.trim() {
                    "true" | "1" => Ok(SoapValue::Bool(true)),
                    "false" | "0" => Ok(SoapValue::Bool(false)),
                    other => Err(format!("bad boolean value {other:?}")),
                },
                _ => Ok(SoapValue::String(text)),
            },
            Decode::Base64 { mut dec, bytes, ok } => (ok && dec.finish().is_some())
                .then_some(SoapValue::Base64(bytes))
                .ok_or_else(|| "bad base64 payload".to_string()),
            Decode::Array(items) => Ok(SoapValue::Array(items)),
            Decode::Struct(fields) => Ok(SoapValue::Struct(fields)),
            Decode::Xml(doc) => doc
                .map(SoapValue::Xml)
                .ok_or_else(|| "xml value with no embedded element".to_string()),
            Decode::Untyped(text) => Ok(SoapValue::String(text)),
            Decode::Failed(e) => Err(e),
        }
    }
}

/// Append a text run, taking it over without a copy when it is the first.
fn append(text: &mut String, run: Cow<'_, str>) {
    if text.is_empty() {
        *text = run.into_owned();
    } else {
        text.push_str(&run);
    }
}

/// Render a double the way 2002 toolchains did: plain decimal, no exponent
/// for ordinary magnitudes.
fn write_double(d: f64, out: &mut String) {
    let _ = if d == d.trunc() && d.abs() < 1e15 {
        write!(out, "{d:.1}")
    } else {
        write!(out, "{d}")
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base64;

    fn encode(v: &SoapValue) -> String {
        let mut out = String::new();
        v.write_xml("p", &mut out);
        out
    }

    fn decode(xml: &str) -> Result<SoapValue, String> {
        portalws_xml::dom::read_document(xml, |tok, name, attrs, self_closing| {
            SoapValue::read(tok, &name, &attrs, self_closing)
        })
        .expect("well-formed")
    }

    fn round_trip(v: SoapValue) -> SoapValue {
        decode(&encode(&v)).unwrap()
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
        assert_eq!(
            encode(&SoapValue::Double(3.0)),
            r#"<p xsi:type="xsd:double">3.0</p>"#
        );
        assert_eq!(
            encode(&SoapValue::Double(1e20)),
            r#"<p xsi:type="xsd:double">100000000000000000000</p>"#
        );
    }

    #[test]
    fn empty_forms() {
        assert_eq!(encode(&SoapValue::str("")), r#"<p xsi:type="xsd:string"/>"#);
        assert_eq!(
            encode(&SoapValue::Array(vec![])),
            r#"<p xsi:type="SOAP-ENC:Array"/>"#
        );
        assert_eq!(
            encode(&SoapValue::Struct(vec![])),
            r#"<p xsi:type="tns:struct"/>"#
        );
        assert_eq!(
            encode(&SoapValue::Base64(vec![])),
            r#"<p xsi:type="xsd:base64Binary"></p>"#
        );
        assert_eq!(
            encode(&SoapValue::Null),
            r#"<p xsi:type="tns:void" xsi:nil="true"/>"#
        );
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
    fn base64_decodes_across_text_cdata_comment_and_whitespace_runs() {
        let bytes = b"one payload, many text nodes".to_vec();
        let text = base64::encode(&bytes);
        // Cut inside a quad and inside an 8-char block.
        let (head, rest) = text.split_at(5);
        let (mid, tail) = rest.split_at(11);
        let xml = format!(
            "<p xsi:type=\"xsd:base64Binary\">\n  {head}<![CDATA[{mid}]]><!-- c -->\n\t <!-- c -->{tail}\r\n</p>"
        );
        assert_eq!(decode(&xml), Ok(SoapValue::Base64(bytes)));
        // Padding that closes a quad in an earlier run ends the value.
        let early_pad = r#"<p xsi:type="xsd:base64Binary">Zg==<![CDATA[Zg==]]></p>"#;
        assert_eq!(decode(early_pad), Err("bad base64 payload".into()));
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
        assert_eq!(
            decode(r#"<p xsi:type="tns:xml">  </p>"#),
            Err("xml value with no embedded element".into())
        );
    }

    #[test]
    fn empty_string_round_trip() {
        assert_eq!(round_trip(SoapValue::str("")), SoapValue::str(""));
    }

    #[test]
    fn declared_strings_keep_whitespace_runs_untyped_text_does_not() {
        for s in [" ", "\n", "  \t  ", " padded "] {
            assert_eq!(round_trip(SoapValue::str(s)), SoapValue::str(s));
        }
        assert_eq!(
            decode("<p xsi:type=\"xsd:string\">a<!-- c --> </p>"),
            Ok(SoapValue::str("a "))
        );
        // Untyped elements keep the DOM's policy: blank runs are dropped.
        assert_eq!(decode("<p>a<!-- c --> </p>"), Ok(SoapValue::str("a")));
        assert_eq!(decode("<p> </p>"), Ok(SoapValue::str("")));
    }

    #[test]
    fn untagged_elements_decoded_heuristically() {
        let v = decode("<r><item>1</item><item>2</item></r>").unwrap();
        assert_eq!(
            v,
            SoapValue::Array(vec![SoapValue::str("1"), SoapValue::str("2")])
        );
        let v = decode("<r>ignored<a>1</a><b>2</b></r>").unwrap();
        assert_eq!(v.field("b"), Some(&SoapValue::str("2")));
        assert_eq!(v.field("a"), Some(&SoapValue::str("1")));
    }

    #[test]
    fn nil_and_prefixed_types() {
        assert_eq!(
            decode(r#"<p xsi:type="xsd:int" xsi:nil="true">x<y/></p>"#),
            Ok(SoapValue::Null)
        );
        assert_eq!(
            decode(r#"<p xsi:type="i:int"> 7 </p>"#),
            Ok(SoapValue::Int(7))
        );
    }

    #[test]
    fn bad_typed_values_error_and_stop_at_the_first() {
        assert_eq!(
            decode(r#"<p xsi:type="xsd:int">notanint</p>"#),
            Err("bad int value \"notanint\"".into())
        );
        assert_eq!(
            decode(r#"<p xsi:type="xsd:boolean"> maybe </p>"#),
            Err("bad boolean value \"maybe\"".into())
        );
        assert_eq!(
            decode(r#"<p xsi:type="xsd:double">1.5x</p>"#),
            Err("bad double value \"1.5x\"".into())
        );
        let xml = r#"<s><a xsi:type="xsd:int">1</a><b xsi:type="xsd:int">x</b><c xsi:type="xsd:int">y</c></s>"#;
        assert_eq!(decode(xml), Err("bad int value \"x\"".into()));
    }

    #[test]
    fn malformed_content_fails_the_document_not_the_value() {
        let err = portalws_xml::dom::read_document(
            r#"<p xsi:type="xsd:int">1<x></p>"#,
            |tok, name, attrs, self_closing| SoapValue::read(tok, &name, &attrs, self_closing),
        )
        .unwrap_err();
        assert!(matches!(err, XmlError::MismatchedTag { .. }), "{err:?}");
    }

    #[test]
    fn string_with_markup_escapes() {
        let v = SoapValue::str("<script>&");
        let xml = encode(&v);
        assert!(xml.contains("&lt;script&gt;&amp;"));
        assert_eq!(decode(&xml), Ok(v));
    }

    #[test]
    fn accessors() {
        assert_eq!(SoapValue::str("x").as_str(), Some("x"));
        assert_eq!(SoapValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(SoapValue::Bool(true).as_bool(), Some(true));
        assert!(SoapValue::Null.as_str().is_none());
    }
}
