//! From-scratch XML substrate for the `portalws` workspace.
//!
//! Every layer of the portal stack described in *Interoperable Web Services
//! for Computational Portals* (SC 2002) speaks XML: SOAP envelopes, WSDL
//! interface definitions, UDDI registry entries, application descriptors,
//! and the schema-wizard pipeline. In 2002 the authors leaned on Apache
//! SOAP, Castor, and the Java DOM; no equivalent Rust stack exists, so this
//! crate implements the substrate directly:
//!
//! * [`event`] — a pull tokenizer producing a stream of borrowed
//!   [`event::Event`]s (zero-copy on entity-free input) with
//!   byte-accurate, lazily computed error positions.
//! * [`dom`] — an owned element tree ([`Element`], [`Node`]) with a fluent
//!   builder API and namespace-aware navigation; names and attribute
//!   values are [`Str`]s ([`small`]), held inside the element when short.
//! * [`writer`] — compact and pretty serialization back to XML text.
//! * [`path`] — a tiny path language (`"a/b/@c"`) for extracting values.
//! * [`schema`] — the subset of XML Schema used by the paper's Application
//!   Web Services descriptors and the schema wizard: elements, complex
//!   types, sequences, enumerations, occurrence bounds, and instance
//!   validation.
//!
//! # Quick example
//!
//! ```
//! use portalws_xml::Element;
//!
//! let doc = Element::parse("<job><host n=\"1\">tg-login</host></job>").unwrap();
//! assert_eq!(doc.find_text("host"), Some("tg-login"));
//! assert_eq!(doc.find("host").unwrap().attr("n"), Some("1"));
//!
//! let built = Element::new("job")
//!     .with_child(Element::new("host").with_attr("n", "1").with_text("tg-login"));
//! assert_eq!(built.to_xml(), doc.to_xml());
//! ```

pub mod dom;
pub mod escape;
pub mod event;
pub mod path;
pub mod scan;
pub mod schema;
pub mod small;
pub mod stats;
pub mod writer;

pub use dom::{Element, Node};
pub use event::{Event, Tokenizer};
pub use schema::{
    ComplexType, ElementDecl, Occurs, Primitive, Schema, SimpleType, TypeDef, TypeRef,
};
pub use small::Str;

use std::fmt;

/// Position of an error in the source text (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes on the line).
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors produced by parsing, navigation, or schema validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Lexical or well-formedness error at a source position.
    Syntax { pos: Pos, msg: String },
    /// The document ended before the parse was complete.
    UnexpectedEof { pos: Pos },
    /// A close tag did not match the open tag.
    MismatchedTag {
        pos: Pos,
        open: String,
        close: String,
    },
    /// An entity reference could not be resolved.
    BadEntity { pos: Pos, entity: String },
    /// A path expression did not match the document.
    PathNotFound { path: String },
    /// The document was structurally valid XML but invalid for the caller.
    Invalid(String),
    /// Schema validation failure: the instance does not conform.
    SchemaViolation(String),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Syntax { pos, msg } => write!(f, "xml syntax error at {pos}: {msg}"),
            XmlError::UnexpectedEof { pos } => write!(f, "unexpected end of input at {pos}"),
            XmlError::MismatchedTag { pos, open, close } => {
                write!(f, "mismatched tag at {pos}: <{open}> closed by </{close}>")
            }
            XmlError::BadEntity { pos, entity } => {
                write!(f, "unknown entity &{entity}; at {pos}")
            }
            XmlError::PathNotFound { path } => write!(f, "path not found: {path}"),
            XmlError::Invalid(msg) => write!(f, "invalid document: {msg}"),
            XmlError::SchemaViolation(msg) => write!(f, "schema violation: {msg}"),
        }
    }
}

impl std::error::Error for XmlError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, XmlError>;
