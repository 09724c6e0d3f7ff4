//! Owned XML element tree with a fluent builder and navigation helpers.
//!
//! Documents are built and inspected as [`Element`] trees: WSDL
//! definitions, UDDI entries, application descriptors, generated forms,
//! and the SOAP faults and embedded XML values. (SOAP RPC bodies are
//! decoded straight from the tokenizer and never become a tree; SOAP
//! header entries stay text.) [`Element::read_subtree`] is the one
//! builder; [`Element::parse`] and stream decoders both go through it.
//! Stream decoders walk content with [`read_content`] and pass over what
//! they do not keep with [`skip_subtree`].

use std::borrow::Cow;

use crate::event::{Event, Tokenizer};
use crate::writer;
use crate::{Result, Str, XmlError};

/// Deepest element nesting a parsed tree or SOAP value may have, counting
/// its root as one level. The portal's documents nest about ten deep;
/// the cap only bounds the stack that recursive code over a tree (drop,
/// write, value decoding) can use.
pub const MAX_DEPTH: usize = 256;

/// One node in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// Character data (entities already resolved).
    Text(String),
    /// A CDATA section, serialized back as CDATA.
    CData(String),
    /// A comment, preserved on round trip.
    Comment(String),
}

impl Node {
    /// The element inside this node, if it is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// The textual content of this node, if it is text or CDATA.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) | Node::CData(t) => Some(t),
            _ => None,
        }
    }
}

/// An XML element: a (possibly prefixed) name, attributes in document
/// order, and child nodes. Its name and attributes are [`Str`]s, so short
/// ones live inside the element.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    name: Str,
    attrs: Vec<(Str, Str)>,
    children: Vec<Node>,
}

impl Element {
    /// Create an empty element named `name` (may include a `prefix:`).
    pub fn new(name: impl Into<Str>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    // ---- builder -------------------------------------------------------

    /// Builder: add an attribute and return self.
    pub fn with_attr(mut self, name: impl Into<Str>, value: impl Into<Str>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Builder: append a child element and return self.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder: append several child elements and return self.
    pub fn with_children(mut self, children: impl IntoIterator<Item = Element>) -> Self {
        self.children
            .extend(children.into_iter().map(Node::Element));
        self
    }

    /// Builder: append a text node and return self.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Builder: append a named child that holds only text — the most common
    /// shape in the portal's data documents.
    pub fn with_text_child(self, name: impl Into<Str>, text: impl Into<String>) -> Self {
        self.with_child(Element::new(name).with_text(text))
    }

    /// Builder: append a CDATA section and return self.
    pub fn with_cdata(mut self, data: impl Into<String>) -> Self {
        self.children.push(Node::CData(data.into()));
        self
    }

    // ---- mutation ------------------------------------------------------

    /// Set (or replace) an attribute.
    pub fn set_attr(&mut self, name: impl Into<Str>, value: impl Into<Str>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attrs.push((name, value));
        }
    }

    /// Append a child element.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Append a raw node.
    pub fn push_node(&mut self, node: Node) {
        self.children.push(node);
    }

    /// Remove and return all children, leaving the element empty.
    pub fn take_children(&mut self) -> Vec<Node> {
        std::mem::take(&mut self.children)
    }

    // ---- accessors -----------------------------------------------------

    /// Full element name as written, including any prefix.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// Name with any `prefix:` removed.
    pub fn local_name(&self) -> &str {
        let name = self.name.as_str();
        name.split_once(':').map_or(name, |(_, local)| local)
    }

    /// Namespace prefix, if the name is prefixed.
    pub fn prefix(&self) -> Option<&str> {
        self.name.split_once(':').map(|(p, _)| p)
    }

    /// Attribute value by exact name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, v)| v.as_str())
    }

    /// All attributes in document order.
    pub fn attrs(&self) -> &[(Str, Str)] {
        &self.attrs
    }

    /// All child nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.children
    }

    /// Iterator over child *elements* only.
    pub fn children(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Mutable iterator over child elements.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut Element> {
        self.children.iter_mut().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    /// Concatenated text content of this element (direct text/CDATA
    /// children only).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Some(t) = n.as_text() {
                out.push_str(t);
            }
        }
        out
    }

    /// First child element whose *local* name equals `name`.
    ///
    /// Matching on local names lets navigation ignore which namespace
    /// prefix a peer implementation happened to choose — the essence of the
    /// paper's interoperability exercise.
    pub fn find(&self, name: &str) -> Option<&Element> {
        self.children().find(|e| e.local_name() == name)
    }

    /// Mutable variant of [`Element::find`].
    pub fn find_mut(&mut self, name: &str) -> Option<&mut Element> {
        self.children_mut().find(|e| e.local_name() == name)
    }

    /// All child elements with local name `name`.
    pub fn find_all<'s, 'n>(
        &'s self,
        name: &'n str,
    ) -> impl Iterator<Item = &'s Element> + use<'s, 'n> {
        self.children().filter(move |e| e.local_name() == name)
    }

    /// Text of the first child with local name `name`, if present and
    /// non-empty after trimming.
    pub fn find_text(&self, name: &str) -> Option<&str> {
        let el = self.find(name)?;
        for n in &el.children {
            if let Some(t) = n.as_text() {
                let t = t.trim();
                if !t.is_empty() {
                    // Safe: trim of a &str borrowed from el outlives this fn's
                    // local borrows because el borrows from self.
                    return Some(t);
                }
            }
        }
        None
    }

    /// Namespace declarations made *on this element* (prefix → URI), with
    /// the default namespace under the empty string.
    pub fn namespace_decls(&self) -> Vec<(&str, &str)> {
        self.attrs
            .iter()
            .filter_map(|(n, v)| {
                if *n == "xmlns" {
                    Some(("", v.as_str()))
                } else {
                    n.strip_prefix("xmlns:").map(|p| (p, v.as_str()))
                }
            })
            .collect()
    }

    /// Total number of elements in this subtree, including self.
    pub fn subtree_size(&self) -> usize {
        1 + self.children().map(Element::subtree_size).sum::<usize>()
    }

    // ---- serialization ---------------------------------------------------

    /// Serialize compactly (no added whitespace).
    pub fn to_xml(&self) -> String {
        writer::write_compact(self)
    }

    /// Serialize compactly into an existing buffer — the allocation-free
    /// form the SOAP hot path uses with per-worker scratch buffers.
    pub fn write_xml_into(&self, out: &mut String) {
        writer::write_compact_into(self, out);
    }

    /// Serialize with two-space indentation.
    pub fn to_pretty(&self) -> String {
        writer::write_pretty(self, 2)
    }

    /// Serialize as a document with an XML declaration.
    pub fn to_document(&self) -> String {
        let mut s = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        s.push_str(&writer::write_pretty(self, 2));
        s
    }

    // ---- parsing ---------------------------------------------------------

    /// Parse a document and return its root element.
    ///
    /// Whitespace-only text between elements is dropped (the portal's
    /// documents are data-oriented); mixed content with non-blank text is
    /// preserved verbatim.
    pub fn parse(src: &str) -> Result<Element> {
        read_document(src, Element::read_subtree)
    }

    /// Build the element whose start tag `tok` has just produced (`name`,
    /// `attrs` and `self_closing` are that event's fields), consuming
    /// events through its matching end tag.
    ///
    /// The one DOM builder: [`Element::parse`] reads its root through it,
    /// and stream decoders (SOAP envelopes) hand it the subtrees they keep
    /// as DOM — header entries, faults, embedded XML values. It applies
    /// the same whitespace policy as `parse` and builds iteratively, and
    /// it refuses a subtree deeper than [`MAX_DEPTH`]: a tree is dropped
    /// (and written) recursively, so an unbounded one could exhaust the
    /// stack after all.
    pub fn read_subtree<'a>(
        tok: &mut Tokenizer<'a>,
        name: Cow<'a, str>,
        attrs: Vec<(Cow<'a, str>, Cow<'a, str>)>,
        self_closing: bool,
    ) -> Result<Element> {
        let mut root = Element::from_tag(name, attrs);
        if self_closing {
            return Ok(root);
        }
        // Open descendants of `root`, outermost first; empty (and
        // allocation-free) while reading a leaf.
        let mut open: Vec<Element> = Vec::new();
        loop {
            // The hot path records only the byte offset; line/col is
            // recovered lazily when an error is actually constructed.
            let at = tok.offset();
            let Some(ev) = tok.next_event()? else {
                return Err(XmlError::UnexpectedEof { pos: tok.pos() });
            };
            // Levels open: `root` and its open descendants.
            let depth = open.len() + 1;
            let top = open.last_mut().unwrap_or(&mut root);
            match ev {
                Event::Decl(_) | Event::Doctype(_) | Event::Pi { .. } => {}
                Event::Comment(c) => top.children.push(Node::Comment(c.into_owned())),
                Event::Text(t) => {
                    if !t.trim().is_empty() {
                        top.children.push(Node::Text(t.into_owned()));
                    }
                }
                Event::CData(t) => top.children.push(Node::CData(t.into_owned())),
                Event::StartTag { .. } if depth >= MAX_DEPTH => {
                    return Err(XmlError::Syntax {
                        pos: tok.pos_at(at),
                        msg: format!("elements nest deeper than {MAX_DEPTH} levels"),
                    });
                }
                Event::StartTag {
                    name,
                    attrs,
                    self_closing,
                } => {
                    let el = Element::from_tag(name, attrs);
                    if self_closing {
                        top.children.push(Node::Element(el));
                    } else {
                        open.push(el);
                    }
                }
                Event::EndTag { name } => {
                    let closed = open.pop();
                    let el = closed.as_ref().unwrap_or(&root);
                    if el.name.as_str() != name {
                        return Err(XmlError::MismatchedTag {
                            pos: tok.pos_at(at),
                            open: el.name.to_string(),
                            close: name.into_owned(),
                        });
                    }
                    match closed {
                        Some(el) => {
                            let parent = open.last_mut().unwrap_or(&mut root);
                            parent.children.push(Node::Element(el));
                        }
                        None => return Ok(root),
                    }
                }
            }
        }
    }

    /// The element a start tag opens. `(Str, Str)` and the tokenizer's
    /// `(Cow, Cow)` pair share a layout, so the collect converts `attrs`
    /// where it lies: short names and values cost no allocation at all.
    fn from_tag(name: Cow<'_, str>, attrs: Vec<(Cow<'_, str>, Cow<'_, str>)>) -> Element {
        Element {
            name: name.into(),
            attrs: attrs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
            children: Vec::new(),
        }
    }
}

/// Read a whole document: skip the prolog, hand the root start tag to
/// `root` (which must consume through the root's end tag, as
/// [`Element::read_subtree`] does), then check that only comments,
/// processing instructions and whitespace follow.
///
/// Everything outside the root is held to the rules of
/// [`Element::parse`], with the same errors, so a stream decoder built on
/// this accepts and rejects exactly the documents the DOM parser does.
pub fn read_document<'a, T>(
    src: &'a str,
    root: impl FnOnce(
        &mut Tokenizer<'a>,
        Cow<'a, str>,
        Vec<(Cow<'a, str>, Cow<'a, str>)>,
        bool,
    ) -> Result<T>,
) -> Result<T> {
    let mut tok = Tokenizer::new(src);
    let mut root = Some(root);
    let mut out = None;
    loop {
        let at = tok.offset();
        let Some(ev) = tok.next_event()? else { break };
        let outside = |msg: &str| XmlError::Syntax {
            pos: tok.pos_at(at),
            msg: msg.into(),
        };
        match ev {
            Event::Decl(_) | Event::Doctype(_) | Event::Pi { .. } | Event::Comment(_) => {}
            Event::Text(t) => {
                if !t.trim().is_empty() {
                    return Err(outside("text outside root element"));
                }
            }
            Event::CData(_) => return Err(outside("CDATA outside root element")),
            Event::EndTag { name } => {
                return Err(outside(&format!("unmatched close tag </{name}>")));
            }
            Event::StartTag {
                name,
                attrs,
                self_closing,
            } => match root.take() {
                Some(read) => out = Some(read(&mut tok, name, attrs, self_closing)?),
                None => return Err(outside("multiple root elements")),
            },
        }
    }
    out.ok_or(XmlError::Invalid("document has no root element".into()))
}

/// One piece of an element's content, as [`read_content`] hands it to
/// a stream decoder.
pub enum Piece<'a> {
    /// A text run (entities resolved).
    Text(Cow<'a, str>),
    /// A CDATA section.
    CData(Cow<'a, str>),
    /// A child's start tag: name, attributes, self-closing, and the offset
    /// of its `<` in the source.
    Child(Cow<'a, str>, Vec<(Cow<'a, str>, Cow<'a, str>)>, bool, usize),
}

/// Read the content of the element `parent`, whose start tag was just
/// read, through its end tag (none when `self_closing`): each text run,
/// CDATA section and child start tag goes to `f`, which must consume a
/// child through the child's end tag. Comments and processing
/// instructions are skipped. Errors match [`Element::parse`]'s.
pub fn read_content<'a>(
    tok: &mut Tokenizer<'a>,
    parent: &str,
    self_closing: bool,
    mut f: impl FnMut(&mut Tokenizer<'a>, Piece<'a>) -> Result<()>,
) -> Result<()> {
    if self_closing {
        return Ok(());
    }
    while let Some(piece) = next_piece(tok, parent, |_| {})? {
        f(tok, piece)?;
    }
    Ok(())
}

/// The next piece of the content of the open element `parent`, or `None`
/// once its end tag is read: one step of [`read_content`] (a child piece
/// must still be consumed through the child's end tag before the next).
/// `before` gets the tokenizer ahead of every event, skipped comments and
/// processing instructions included, so a decoder can take each text run
/// where it lies ([`Tokenizer::take_text`]) before it would be scanned.
pub fn next_piece<'a>(
    tok: &mut Tokenizer<'a>,
    parent: &str,
    mut before: impl FnMut(&mut Tokenizer<'a>),
) -> Result<Option<Piece<'a>>> {
    loop {
        before(tok);
        let at = tok.offset();
        let Some(ev) = tok.next_event()? else {
            return Err(XmlError::UnexpectedEof { pos: tok.pos() });
        };
        let piece = match ev {
            Event::Text(t) => Piece::Text(t),
            Event::CData(t) => Piece::CData(t),
            Event::StartTag {
                name,
                attrs,
                self_closing,
            } => Piece::Child(name, attrs, self_closing, at),
            Event::EndTag { name } if name == parent => return Ok(None),
            Event::EndTag { name } => {
                return Err(XmlError::MismatchedTag {
                    pos: tok.pos_at(at),
                    open: parent.to_owned(),
                    close: name.into_owned(),
                })
            }
            Event::Comment(_) | Event::Decl(_) | Event::Doctype(_) | Event::Pi { .. } => continue,
        };
        return Ok(Some(piece));
    }
}

/// Consume the element whose start tag `tok` has just produced (`name`
/// and `self_closing` are that event's fields) through its matching end
/// tag, holding it to [`Element::read_subtree`]'s rules, with the same
/// errors, but building nothing.
///
/// `open` is scratch for the names of open descendants: it is cleared
/// first and only ever grows, so a caller that skips many subtrees hands
/// in one buffer and the skips after the first allocate nothing. Like
/// `read_subtree`, it keeps its depth on the heap, not the stack.
pub fn skip_subtree<'a>(
    tok: &mut Tokenizer<'a>,
    name: &str,
    self_closing: bool,
    open: &mut Vec<Cow<'a, str>>,
) -> Result<()> {
    if self_closing {
        return Ok(());
    }
    open.clear();
    loop {
        let at = tok.offset();
        let ev = tok
            .next_event()?
            .ok_or_else(|| XmlError::UnexpectedEof { pos: tok.pos() })?;
        match ev {
            Event::StartTag {
                name,
                self_closing: false,
                ..
            } => open.push(name),
            Event::EndTag { name: close } => {
                let inner = open.pop();
                let opened = inner.as_deref().unwrap_or(name);
                (opened == close)
                    .then_some(())
                    .ok_or_else(|| XmlError::MismatchedTag {
                        pos: tok.pos_at(at),
                        open: opened.to_owned(),
                        close: close.to_string(),
                    })?;
                if inner.is_none() {
                    return Ok(());
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `levels` nested `<a>` elements, the innermost holding `x`.
    fn nested(levels: usize) -> String {
        ["<a>".repeat(levels), "x".into(), "</a>".repeat(levels)].concat()
    }

    /// Run `f` on a thread with a 2 MiB stack, the size the server arms'
    /// worker threads get by default.
    fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| {
            let thread = std::thread::Builder::new().stack_size(2 << 20);
            thread.spawn_scoped(s, f).unwrap().join().unwrap()
        })
    }

    #[test]
    fn trees_at_the_depth_cap_parse_and_deeper_ones_are_errors() {
        on_small_stack(|| {
            let at_cap = Element::parse(&nested(MAX_DEPTH)).unwrap();
            assert_eq!(Element::parse(&at_cap.to_xml()).unwrap(), at_cap);
            for levels in [MAX_DEPTH + 1, 100_000] {
                match Element::parse(&nested(levels)) {
                    Err(XmlError::Syntax { msg, .. }) => assert!(msg.contains("nest"), "{msg}"),
                    other => panic!("{levels} levels: {other:?}"),
                }
            }
        });
    }

    #[test]
    fn skip_subtree_accepts_and_rejects_what_read_subtree_does() {
        let docs = [
            "<a/>",
            "<a>t<b x='1'><c/>u</b><!-- c --><![CDATA[<]]></a>",
            "<a><b><c></c></b><b/></a>",
            "<a><b></a>",
            "<a><b></b></c>",
            "<a><b>",
            "<a>&bogus;</a>",
            "<a x='1' x='2'/>",
        ];
        let mut open = Vec::new();
        for doc in docs {
            let skipped = read_document(doc, |tok, name, _, self_closing| {
                skip_subtree(tok, &name, self_closing, &mut open)
            });
            let built = Element::parse(doc).map(drop);
            assert_eq!(skipped, built, "{doc}");
        }
    }

    #[test]
    fn debug_text_shows_names_and_values_as_strings() {
        let el = Element::new("m:put")
            .with_attr("path", "/home/a \"quoted\" name longer than 22")
            .with_text("x");
        assert_eq!(
            format!("{el:?}"),
            r#"Element { name: "m:put", attrs: [("path", "/home/a \"quoted\" name longer than 22")], children: [Text("x")] }"#
        );
    }

    #[test]
    fn build_and_navigate() {
        let el = Element::new("app")
            .with_attr("version", "1")
            .with_text_child("name", "gaussian98")
            .with_child(
                Element::new("host")
                    .with_attr("dns", "tg-login.sdsc.edu")
                    .with_text_child("queue", "normal"),
            );
        assert_eq!(el.attr("version"), Some("1"));
        assert_eq!(el.find_text("name"), Some("gaussian98"));
        assert_eq!(
            el.find("host").and_then(|h| h.find_text("queue")),
            Some("normal")
        );
        assert_eq!(el.subtree_size(), 4);
    }

    #[test]
    fn parse_round_trip_compact() {
        let src = r#"<a k="v"><b>text</b><c/></a>"#;
        let el = Element::parse(src).unwrap();
        assert_eq!(el.to_xml(), src);
    }

    #[test]
    fn pretty_then_parse_is_identity_modulo_ws() {
        let el = Element::new("root")
            .with_text_child("x", "1")
            .with_child(Element::new("y").with_attr("a", "b"));
        let pretty = el.to_pretty();
        let reparsed = Element::parse(&pretty).unwrap();
        assert_eq!(reparsed, el);
    }

    #[test]
    fn local_name_ignores_prefix() {
        let el =
            Element::parse(r#"<soap:Envelope xmlns:soap="urn:e"><soap:Body/></soap:Envelope>"#)
                .unwrap();
        assert_eq!(el.local_name(), "Envelope");
        assert!(el.find("Body").is_some());
        assert_eq!(el.namespace_decls(), vec![("soap", "urn:e")]);
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(matches!(
            Element::parse("<a><b></a></b>"),
            Err(XmlError::MismatchedTag { .. })
        ));
    }

    #[test]
    fn multiple_roots_rejected() {
        assert!(Element::parse("<a/><b/>").is_err());
    }

    #[test]
    fn unclosed_root_rejected() {
        assert!(matches!(
            Element::parse("<a><b></b>"),
            Err(XmlError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn whitespace_between_elements_dropped() {
        let el = Element::parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(el.nodes().len(), 2);
    }

    #[test]
    fn significant_text_preserved() {
        let el = Element::parse("<a>one <b/> two</a>").unwrap();
        assert_eq!(el.text(), "one  two");
    }

    #[test]
    fn cdata_preserved_on_round_trip() {
        let src = "<a><![CDATA[x < y]]></a>";
        let el = Element::parse(src).unwrap();
        assert_eq!(el.text(), "x < y");
        assert_eq!(el.to_xml(), src);
    }

    #[test]
    fn set_attr_replaces() {
        let mut el = Element::new("a").with_attr("k", "1");
        el.set_attr("k", "2");
        assert_eq!(el.attr("k"), Some("2"));
        assert_eq!(el.attrs().len(), 1);
    }

    #[test]
    fn find_all_filters_by_local_name() {
        let el = Element::parse("<r><h>1</h><x/><h>2</h></r>").unwrap();
        let hs: Vec<_> = el.find_all("h").map(|e| e.text()).collect();
        assert_eq!(hs, vec!["1", "2"]);
    }

    #[test]
    fn declaration_and_doctype_ignored() {
        let el =
            Element::parse("<?xml version=\"1.0\"?><!DOCTYPE a><a><!-- note --><b/></a>").unwrap();
        assert_eq!(el.name(), "a");
        // comment preserved as node, element still findable
        assert!(el.find("b").is_some());
        assert_eq!(el.nodes().len(), 2);
    }
}
