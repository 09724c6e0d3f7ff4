//! The subset of XML Schema used by the paper's Application Web Services.
//!
//! Section 5.1 describes three linked descriptor schemas (application, host,
//! queue) built from sequences of typed elements with occurrence bounds,
//! enumerations, and free-form `parameter` name/value extensions; Section
//! 5.3's schema wizard consumes schemas of the same shape to generate user
//! interfaces. This module models exactly that subset:
//!
//! * global element declarations,
//! * named and inline types,
//! * complex types as **sequences** of element declarations plus attributes,
//! * simple types with a primitive base and optional enumeration facet,
//! * `minOccurs`/`maxOccurs` (including `unbounded`),
//! * instance validation against a schema,
//! * serialization to and parsing from `xs:`-style schema documents.

use std::collections::BTreeMap;
use std::fmt;

use crate::dom::Element;
use crate::{Result, XmlError};

/// Built-in simple types supported by the descriptor subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primitive {
    /// `xs:string`
    String,
    /// `xs:int`
    Int,
    /// `xs:double`
    Double,
    /// `xs:boolean`
    Boolean,
    /// `xs:anyURI`
    AnyUri,
    /// `xs:dateTime` (loose lexical check)
    DateTime,
    /// `xs:base64Binary`
    Base64,
}

impl Primitive {
    /// The `xs:` name of the primitive.
    pub fn xsd_name(self) -> &'static str {
        match self {
            Primitive::String => "xs:string",
            Primitive::Int => "xs:int",
            Primitive::Double => "xs:double",
            Primitive::Boolean => "xs:boolean",
            Primitive::AnyUri => "xs:anyURI",
            Primitive::DateTime => "xs:dateTime",
            Primitive::Base64 => "xs:base64Binary",
        }
    }

    /// Parse an `xs:` name (prefix-insensitive) into a primitive.
    pub fn from_xsd_name(name: &str) -> Option<Primitive> {
        let local = name.split_once(':').map(|(_, l)| l).unwrap_or(name);
        Some(match local {
            "string" => Primitive::String,
            "int" | "integer" | "long" => Primitive::Int,
            "double" | "float" | "decimal" => Primitive::Double,
            "boolean" => Primitive::Boolean,
            "anyURI" => Primitive::AnyUri,
            "dateTime" => Primitive::DateTime,
            "base64Binary" => Primitive::Base64,
            _ => return None,
        })
    }

    /// Check a lexical value against the primitive's value space.
    pub fn accepts(self, value: &str) -> bool {
        let v = value.trim();
        match self {
            Primitive::String => true,
            Primitive::Int => v.parse::<i64>().is_ok(),
            Primitive::Double => v.parse::<f64>().is_ok(),
            Primitive::Boolean => matches!(v, "true" | "false" | "1" | "0"),
            Primitive::AnyUri => !v.is_empty() && !v.contains(char::is_whitespace),
            Primitive::DateTime => {
                // YYYY-MM-DDThh:mm:ss with optional trailing zone designator.
                let b = v.as_bytes();
                b.len() >= 19
                    && b.get(4) == Some(&b'-')
                    && b.get(7) == Some(&b'-')
                    && b.get(10) == Some(&b'T')
                    && b.get(13) == Some(&b':')
                    && b.get(16) == Some(&b':')
                    && b.get(..4)
                        .is_some_and(|year| year.iter().all(u8::is_ascii_digit))
            }
            Primitive::Base64 => v
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'+' | b'/' | b'=')),
        }
    }

    /// A sample lexical value, used by instance generation.
    pub fn sample(self) -> &'static str {
        match self {
            Primitive::String => "sample",
            Primitive::Int => "1",
            Primitive::Double => "1.0",
            Primitive::Boolean => "true",
            Primitive::AnyUri => "urn:sample",
            Primitive::DateTime => "2002-11-16T09:00:00Z",
            Primitive::Base64 => "QQ==",
        }
    }
}

/// A simple type: primitive base plus optional enumeration facet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpleType {
    /// Base primitive.
    pub base: Primitive,
    /// If non-empty, the value must be one of these strings.
    pub enumeration: Vec<String>,
}

impl SimpleType {
    /// A plain (unfaceted) simple type.
    pub fn plain(base: Primitive) -> Self {
        SimpleType {
            base,
            enumeration: Vec::new(),
        }
    }

    /// A string type restricted to an enumeration.
    pub fn enumerated(values: impl IntoIterator<Item = impl Into<String>>) -> Self {
        SimpleType {
            base: Primitive::String,
            enumeration: values.into_iter().map(Into::into).collect(),
        }
    }

    /// Check a value against base and facet.
    pub fn accepts(&self, value: &str) -> bool {
        self.base.accepts(value)
            && (self.enumeration.is_empty() || self.enumeration.iter().any(|e| e == value.trim()))
    }

    /// A sample valid value.
    pub fn sample(&self) -> String {
        self.enumeration
            .first()
            .cloned()
            .unwrap_or_else(|| self.base.sample().to_owned())
    }
}

/// Occurrence bounds for an element declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurs {
    /// Minimum occurrences.
    pub min: u32,
    /// Maximum occurrences; `None` means `unbounded`.
    pub max: Option<u32>,
}

impl Occurs {
    /// Exactly once (the XML Schema default).
    pub const ONE: Occurs = Occurs {
        min: 1,
        max: Some(1),
    };
    /// Zero or one.
    pub const OPTIONAL: Occurs = Occurs {
        min: 0,
        max: Some(1),
    };
    /// One or more.
    pub const MANY: Occurs = Occurs { min: 1, max: None };
    /// Zero or more.
    pub const ANY: Occurs = Occurs { min: 0, max: None };

    /// Does `n` occurrences satisfy the bounds?
    pub fn admits(&self, n: usize) -> bool {
        n as u64 >= self.min as u64 && self.max.is_none_or(|m| n as u64 <= m as u64)
    }

    /// Is more than one occurrence possible?
    pub fn is_unbounded(&self) -> bool {
        self.max.is_none_or(|m| m > 1)
    }
}

impl fmt::Display for Occurs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max {
            Some(m) => write!(f, "[{}..{}]", self.min, m),
            None => write!(f, "[{}..*]", self.min),
        }
    }
}

/// Reference to a type: by name (resolved through the schema's type table)
/// or inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeRef {
    /// Named type, resolved against [`Schema::types`].
    Named(String),
    /// Inline anonymous type.
    Inline(Box<TypeDef>),
}

/// A type definition: simple or complex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeDef {
    /// Simple content.
    Simple(SimpleType),
    /// Element-structured content.
    Complex(ComplexType),
}

/// An attribute declaration on a complex type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDecl {
    /// Attribute name.
    pub name: String,
    /// Attribute value type.
    pub ty: SimpleType,
    /// Whether `use="required"`.
    pub required: bool,
}

/// A complex type: an ordered sequence of element declarations plus
/// attributes, or — the `xs:simpleContent` case — typed text content
/// plus attributes. (The descriptor subset only uses `xs:sequence`.)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ComplexType {
    /// Child element declarations, in sequence order. Must be empty when
    /// `text` is set (simple content admits no child elements).
    pub sequence: Vec<ElementDecl>,
    /// Attribute declarations.
    pub attributes: Vec<AttrDecl>,
    /// Simple content: the type of the element's text, for shapes like
    /// `<parameter name="k">value</parameter>`.
    pub text: Option<SimpleType>,
}

impl ComplexType {
    /// Builder: append an element declaration.
    pub fn with(mut self, decl: ElementDecl) -> Self {
        self.sequence.push(decl);
        self
    }

    /// Builder: append an attribute declaration.
    pub fn with_attr(mut self, name: impl Into<String>, ty: SimpleType, required: bool) -> Self {
        self.attributes.push(AttrDecl {
            name: name.into(),
            ty,
            required,
        });
        self
    }

    /// Builder: declare simple (text) content of the given type.
    pub fn with_text_content(mut self, ty: SimpleType) -> Self {
        self.text = Some(ty);
        self
    }
}

/// An element declaration: name, type reference, occurrence bounds, and an
/// optional documentation string (surfaced by the schema wizard as a field
/// label hint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDecl {
    /// Element name.
    pub name: String,
    /// The element's type.
    pub ty: TypeRef,
    /// Occurrence bounds.
    pub occurs: Occurs,
    /// Human documentation (`xs:documentation`).
    pub doc: Option<String>,
}

impl ElementDecl {
    /// Declare an element with an inline type.
    pub fn new(name: impl Into<String>, ty: TypeDef) -> Self {
        ElementDecl {
            name: name.into(),
            ty: TypeRef::Inline(Box::new(ty)),
            occurs: Occurs::ONE,
            doc: None,
        }
    }

    /// Declare an element with a named type.
    pub fn named(name: impl Into<String>, ty_name: impl Into<String>) -> Self {
        ElementDecl {
            name: name.into(),
            ty: TypeRef::Named(ty_name.into()),
            occurs: Occurs::ONE,
            doc: None,
        }
    }

    /// Shorthand for a required `xs:string` element.
    pub fn string(name: impl Into<String>) -> Self {
        ElementDecl::new(name, TypeDef::Simple(SimpleType::plain(Primitive::String)))
    }

    /// Shorthand for a required `xs:int` element.
    pub fn int(name: impl Into<String>) -> Self {
        ElementDecl::new(name, TypeDef::Simple(SimpleType::plain(Primitive::Int)))
    }

    /// Shorthand for an enumerated string element.
    pub fn enumerated(
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        ElementDecl::new(name, TypeDef::Simple(SimpleType::enumerated(values)))
    }

    /// Builder: set occurrence bounds.
    pub fn occurs(mut self, occurs: Occurs) -> Self {
        self.occurs = occurs;
        self
    }

    /// Builder: attach documentation.
    pub fn doc(mut self, doc: impl Into<String>) -> Self {
        self.doc = Some(doc.into());
        self
    }
}

/// A schema: target namespace, global elements, and named types.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// `targetNamespace`, if declared.
    pub target_ns: Option<String>,
    /// Global element declarations (instance roots).
    pub elements: Vec<ElementDecl>,
    /// Named type definitions.
    pub types: BTreeMap<String, TypeDef>,
}

impl Schema {
    /// Create an empty schema with a target namespace.
    pub fn new(target_ns: impl Into<String>) -> Self {
        Schema {
            target_ns: Some(target_ns.into()),
            ..Default::default()
        }
    }

    /// Builder: add a global element.
    pub fn with_element(mut self, decl: ElementDecl) -> Self {
        self.elements.push(decl);
        self
    }

    /// Builder: add a named type.
    pub fn with_type(mut self, name: impl Into<String>, def: TypeDef) -> Self {
        self.types.insert(name.into(), def);
        self
    }

    /// Resolve a type reference to its definition.
    pub fn resolve<'s>(&'s self, r: &'s TypeRef) -> Result<&'s TypeDef> {
        match r {
            TypeRef::Inline(def) => Ok(def),
            TypeRef::Named(name) => self.types.get(name).ok_or_else(|| {
                XmlError::SchemaViolation(format!("unresolved type reference {name:?}"))
            }),
        }
    }

    /// Find the global element declaration matching `name`.
    pub fn global_element(&self, name: &str) -> Option<&ElementDecl> {
        self.elements.iter().find(|e| e.name == name)
    }

    // ---- validation ----------------------------------------------------

    /// Validate `instance` against this schema. The instance root must match
    /// one of the global element declarations.
    pub fn validate(&self, instance: &Element) -> Result<()> {
        let decl = self.global_element(instance.local_name()).ok_or_else(|| {
            XmlError::SchemaViolation(format!(
                "no global element {:?} in schema",
                instance.local_name()
            ))
        })?;
        self.validate_element(instance, decl, instance.local_name())
    }

    fn validate_element(&self, el: &Element, decl: &ElementDecl, path: &str) -> Result<()> {
        match self.resolve(&decl.ty)? {
            TypeDef::Simple(st) => {
                if el.children().next().is_some() {
                    return Err(XmlError::SchemaViolation(format!(
                        "{path}: simple-typed element has child elements"
                    )));
                }
                let value = el.text();
                if !st.accepts(&value) {
                    return Err(XmlError::SchemaViolation(format!(
                        "{path}: value {:?} not valid for {}",
                        value.trim(),
                        st.base.xsd_name()
                    )));
                }
                Ok(())
            }
            TypeDef::Complex(ct) => self.validate_complex(el, ct, path),
        }
    }

    fn validate_complex(&self, el: &Element, ct: &ComplexType, path: &str) -> Result<()> {
        // Attributes.
        for ad in &ct.attributes {
            match el.attr(&ad.name) {
                Some(v) if !ad.ty.accepts(v) => {
                    return Err(XmlError::SchemaViolation(format!(
                        "{path}/@{}: value {v:?} not valid for {}",
                        ad.name,
                        ad.ty.base.xsd_name()
                    )));
                }
                Some(_) => {}
                None if ad.required => {
                    return Err(XmlError::SchemaViolation(format!(
                        "{path}: missing required attribute {:?}",
                        ad.name
                    )));
                }
                None => {}
            }
        }
        for (name, _) in el.attrs() {
            if name.starts_with("xmlns") {
                continue;
            }
            if !ct.attributes.iter().any(|a| *name == a.name.as_str()) {
                return Err(XmlError::SchemaViolation(format!(
                    "{path}: undeclared attribute {name:?}"
                )));
            }
        }
        // Simple content: typed text, no child elements.
        if let Some(st) = &ct.text {
            if el.children().next().is_some() {
                return Err(XmlError::SchemaViolation(format!(
                    "{path}: simple-content element has child elements"
                )));
            }
            let value = el.text();
            if !st.accepts(&value) {
                return Err(XmlError::SchemaViolation(format!(
                    "{path}: text {:?} not valid for {}",
                    value.trim(),
                    st.base.xsd_name()
                )));
            }
            return Ok(());
        }
        // Children: sequence validation. Consume children in declaration
        // order, allowing each declaration its occurrence range.
        let children: Vec<&Element> = el.children().collect();
        let mut i = 0usize;
        for decl in &ct.sequence {
            let mut n = 0usize;
            while let Some(child) = children.get(i).filter(|c| c.local_name() == decl.name) {
                let child_path = format!("{path}/{}", decl.name);
                self.validate_element(child, decl, &child_path)?;
                i += 1;
                n += 1;
                if let Some(max) = decl.occurs.max {
                    if n as u64 == max as u64 {
                        break;
                    }
                }
            }
            if !decl.occurs.admits(n) {
                return Err(XmlError::SchemaViolation(format!(
                    "{path}: element {:?} occurs {n} times, allowed {}",
                    decl.name, decl.occurs
                )));
            }
        }
        if let Some(extra) = children.get(i) {
            return Err(XmlError::SchemaViolation(format!(
                "{path}: unexpected element {:?}",
                extra.local_name()
            )));
        }
        Ok(())
    }

    // ---- serialization --------------------------------------------------

    /// Serialize as an `xs:schema` document element.
    pub fn to_xml(&self) -> Element {
        let mut root =
            Element::new("xs:schema").with_attr("xmlns:xs", "http://www.w3.org/2001/XMLSchema");
        if let Some(ns) = &self.target_ns {
            root.set_attr("targetNamespace", ns.clone());
        }
        for (name, def) in &self.types {
            root.push_child(type_to_xml(def, Some(name)));
        }
        for decl in &self.elements {
            root.push_child(element_decl_to_xml(decl));
        }
        root
    }

    /// Parse an `xs:schema` element back into a schema.
    pub fn from_xml(root: &Element) -> Result<Schema> {
        if root.local_name() != "schema" {
            return Err(XmlError::Invalid(format!(
                "expected schema element, found {:?}",
                root.local_name()
            )));
        }
        let mut schema = Schema {
            target_ns: root.attr("targetNamespace").map(str::to_owned),
            ..Default::default()
        };
        for child in root.children() {
            match child.local_name() {
                "element" => schema.elements.push(element_decl_from_xml(child)?),
                "complexType" => {
                    let name = named(child)?;
                    schema
                        .types
                        .insert(name, TypeDef::Complex(complex_from_xml(child)?));
                }
                "simpleType" => {
                    let name = named(child)?;
                    schema
                        .types
                        .insert(name, TypeDef::Simple(simple_from_xml(child)?));
                }
                other => {
                    return Err(XmlError::Invalid(format!(
                        "unsupported schema construct {other:?}"
                    )))
                }
            }
        }
        Ok(schema)
    }
}

fn named(el: &Element) -> Result<String> {
    el.attr("name")
        .map(str::to_owned)
        .ok_or_else(|| XmlError::Invalid(format!("{} missing name attribute", el.name())))
}

fn occurs_to_attrs(el: &mut Element, occurs: Occurs) {
    if occurs.min != 1 {
        el.set_attr("minOccurs", occurs.min.to_string());
    }
    match occurs.max {
        Some(1) => {}
        Some(m) => el.set_attr("maxOccurs", m.to_string()),
        None => el.set_attr("maxOccurs", "unbounded"),
    }
}

fn occurs_from_attrs(el: &Element) -> Result<Occurs> {
    let min = match el.attr("minOccurs") {
        Some(v) => v
            .parse()
            .map_err(|_| XmlError::Invalid(format!("bad minOccurs {v:?}")))?,
        None => 1,
    };
    let max = match el.attr("maxOccurs") {
        Some("unbounded") => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| XmlError::Invalid(format!("bad maxOccurs {v:?}")))?,
        ),
        None => Some(1),
    };
    Ok(Occurs { min, max })
}

fn element_decl_to_xml(decl: &ElementDecl) -> Element {
    let mut el = Element::new("xs:element").with_attr("name", decl.name.clone());
    occurs_to_attrs(&mut el, decl.occurs);
    if let Some(doc) = &decl.doc {
        el.push_child(
            Element::new("xs:annotation")
                .with_child(Element::new("xs:documentation").with_text(doc.clone())),
        );
    }
    match &decl.ty {
        TypeRef::Named(n) => el.set_attr("type", n.clone()),
        TypeRef::Inline(def) => match def.as_ref() {
            // Plain simple types collapse to a type attribute, like hand-
            // written schemas do.
            TypeDef::Simple(st) if st.enumeration.is_empty() => {
                el.set_attr("type", st.base.xsd_name())
            }
            other => el.push_child(type_to_xml(other, None)),
        },
    }
    el
}

fn element_decl_from_xml(el: &Element) -> Result<ElementDecl> {
    let name = named(el)?;
    let occurs = occurs_from_attrs(el)?;
    let doc = el
        .find("annotation")
        .and_then(|a| a.find_text("documentation"))
        .map(str::to_owned);
    let ty = if let Some(tyname) = el.attr("type") {
        match Primitive::from_xsd_name(tyname) {
            Some(p) => TypeRef::Inline(Box::new(TypeDef::Simple(SimpleType::plain(p)))),
            None => TypeRef::Named(tyname.to_owned()),
        }
    } else if let Some(ct) = el.find("complexType") {
        TypeRef::Inline(Box::new(TypeDef::Complex(complex_from_xml(ct)?)))
    } else if let Some(st) = el.find("simpleType") {
        TypeRef::Inline(Box::new(TypeDef::Simple(simple_from_xml(st)?)))
    } else {
        return Err(XmlError::Invalid(format!("element {name:?} has no type")));
    };
    Ok(ElementDecl {
        name,
        ty,
        occurs,
        doc,
    })
}

fn type_to_xml(def: &TypeDef, name: Option<&str>) -> Element {
    match def {
        TypeDef::Simple(st) => {
            let mut el = Element::new("xs:simpleType");
            if let Some(n) = name {
                el.set_attr("name", n);
            }
            let mut restriction =
                Element::new("xs:restriction").with_attr("base", st.base.xsd_name());
            for v in &st.enumeration {
                restriction
                    .push_child(Element::new("xs:enumeration").with_attr("value", v.clone()));
            }
            el.push_child(restriction);
            el
        }
        TypeDef::Complex(ct) => {
            let mut el = Element::new("xs:complexType");
            if let Some(n) = name {
                el.set_attr("name", n);
            }
            let attrs_to_xml = |parent: &mut Element| {
                for ad in &ct.attributes {
                    let mut a = Element::new("xs:attribute").with_attr("name", ad.name.clone());
                    if ad.required {
                        a.set_attr("use", "required");
                    }
                    if ad.ty.enumeration.is_empty() {
                        a.set_attr("type", ad.ty.base.xsd_name());
                    } else {
                        // Enumerated attributes carry an inline simple type
                        // so the facet survives the round trip.
                        a.push_child(type_to_xml(&TypeDef::Simple(ad.ty.clone()), None));
                    }
                    parent.push_child(a);
                }
            };
            if let Some(st) = &ct.text {
                // xs:simpleContent / xs:extension carries text + attributes.
                let mut ext = Element::new("xs:extension").with_attr("base", st.base.xsd_name());
                attrs_to_xml(&mut ext);
                el.push_child(Element::new("xs:simpleContent").with_child(ext));
                return el;
            }
            let mut seq = Element::new("xs:sequence");
            for decl in &ct.sequence {
                seq.push_child(element_decl_to_xml(decl));
            }
            el.push_child(seq);
            attrs_to_xml(&mut el);
            el
        }
    }
}

fn simple_from_xml(el: &Element) -> Result<SimpleType> {
    let restriction = el
        .find("restriction")
        .ok_or_else(|| XmlError::Invalid("simpleType without restriction".into()))?;
    let base = restriction
        .attr("base")
        .and_then(Primitive::from_xsd_name)
        .ok_or_else(|| XmlError::Invalid("simpleType restriction with unknown base".into()))?;
    let enumeration = restriction
        .find_all("enumeration")
        .filter_map(|e| e.attr("value").map(str::to_owned))
        .collect();
    Ok(SimpleType { base, enumeration })
}

fn complex_from_xml(el: &Element) -> Result<ComplexType> {
    let mut ct = ComplexType::default();
    // xs:simpleContent: text content plus attributes (on the extension).
    if let Some(sc) = el.find("simpleContent") {
        let ext = sc
            .find("extension")
            .ok_or_else(|| XmlError::Invalid("simpleContent without extension".into()))?;
        let base = ext
            .attr("base")
            .and_then(Primitive::from_xsd_name)
            .ok_or_else(|| XmlError::Invalid("simpleContent extension with unknown base".into()))?;
        ct.text = Some(SimpleType::plain(base));
        attrs_from_xml(ext, &mut ct)?;
        return Ok(ct);
    }
    if let Some(seq) = el.find("sequence") {
        for child in seq.find_all("element") {
            ct.sequence.push(element_decl_from_xml(child)?);
        }
    }
    attrs_from_xml(el, &mut ct)?;
    Ok(ct)
}

fn attrs_from_xml(el: &Element, ct: &mut ComplexType) -> Result<()> {
    for a in el.find_all("attribute") {
        let ty = if let Some(st) = a.find("simpleType") {
            simple_from_xml(st)?
        } else {
            SimpleType::plain(
                a.attr("type")
                    .and_then(Primitive::from_xsd_name)
                    .unwrap_or(Primitive::String),
            )
        };
        ct.attributes.push(AttrDecl {
            name: named(a)?,
            ty,
            required: a.attr("use") == Some("required"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature version of the paper's application descriptor schema.
    fn app_schema() -> Schema {
        Schema::new("http://servogrid.org/GCWS/Schema/app")
            .with_type(
                "HostType",
                TypeDef::Complex(
                    ComplexType::default()
                        .with(ElementDecl::string("dns"))
                        .with(ElementDecl::string("execPath"))
                        .with(
                            ElementDecl::enumerated("scheduler", ["PBS", "LSF", "NQS", "GRD"])
                                .occurs(Occurs::OPTIONAL),
                        )
                        .with_attr("ip", SimpleType::plain(Primitive::String), false),
                ),
            )
            .with_element(ElementDecl::new(
                "application",
                TypeDef::Complex(
                    ComplexType::default()
                        .with(ElementDecl::string("name").doc("Application name"))
                        .with(ElementDecl::string("version").occurs(Occurs::OPTIONAL))
                        .with(ElementDecl::named("host", "HostType").occurs(Occurs::MANY))
                        .with_attr("id", SimpleType::plain(Primitive::Int), true),
                ),
            ))
    }

    fn valid_instance() -> Element {
        Element::new("application")
            .with_attr("id", "7")
            .with_text_child("name", "gaussian98")
            .with_text_child("version", "A.9")
            .with_child(
                Element::new("host")
                    .with_text_child("dns", "tg-login.sdsc.edu")
                    .with_text_child("execPath", "/usr/local/bin/g98")
                    .with_text_child("scheduler", "PBS"),
            )
    }

    #[test]
    fn validates_conforming_instance() {
        app_schema().validate(&valid_instance()).unwrap();
    }

    #[test]
    fn missing_required_child_rejected() {
        let mut inst = valid_instance();
        // remove all hosts (minOccurs=1)
        let kept: Vec<_> = inst
            .take_children()
            .into_iter()
            .filter(|n| n.as_element().is_none_or(|e| e.local_name() != "host"))
            .collect();
        for n in kept {
            inst.push_node(n);
        }
        let err = app_schema().validate(&inst).unwrap_err();
        assert!(err.to_string().contains("host"), "{err}");
    }

    #[test]
    fn optional_child_may_be_absent() {
        let inst = Element::new("application")
            .with_attr("id", "1")
            .with_text_child("name", "code")
            .with_child(
                Element::new("host")
                    .with_text_child("dns", "h")
                    .with_text_child("execPath", "/bin/x"),
            );
        app_schema().validate(&inst).unwrap();
    }

    #[test]
    fn enumeration_enforced() {
        let mut inst = valid_instance();
        inst.find_mut("host")
            .unwrap()
            .find_mut("scheduler")
            .unwrap()
            .take_children();
        inst.find_mut("host")
            .unwrap()
            .find_mut("scheduler")
            .unwrap()
            .push_node(crate::Node::Text("SLURM".into()));
        assert!(app_schema().validate(&inst).is_err());
    }

    #[test]
    fn bad_attribute_type_rejected() {
        let mut inst = valid_instance();
        inst.set_attr("id", "not-a-number");
        assert!(app_schema().validate(&inst).is_err());
    }

    #[test]
    fn missing_required_attribute_rejected() {
        let inst = valid_instance();
        let mut no_id = Element::new("application");
        for n in inst.nodes() {
            no_id.push_node(n.clone());
        }
        assert!(app_schema().validate(&no_id).is_err());
    }

    #[test]
    fn undeclared_attribute_rejected() {
        let mut inst = valid_instance();
        inst.set_attr("bogus", "x");
        assert!(app_schema().validate(&inst).is_err());
    }

    #[test]
    fn unexpected_element_rejected() {
        let mut inst = valid_instance();
        inst.push_child(Element::new("extra"));
        assert!(app_schema().validate(&inst).is_err());
    }

    #[test]
    fn out_of_order_sequence_rejected() {
        let inst = Element::new("application")
            .with_attr("id", "1")
            .with_child(
                Element::new("host")
                    .with_text_child("dns", "h")
                    .with_text_child("execPath", "/bin/x"),
            )
            .with_text_child("name", "late");
        assert!(app_schema().validate(&inst).is_err());
    }

    #[test]
    fn repeated_unbounded_elements_accepted() {
        let mut inst = valid_instance();
        inst.push_child(
            Element::new("host")
                .with_text_child("dns", "h2")
                .with_text_child("execPath", "/bin/y"),
        );
        app_schema().validate(&inst).unwrap();
    }

    #[test]
    fn schema_xml_round_trip() {
        let schema = app_schema();
        let xml = schema.to_xml();
        let parsed = Schema::from_xml(&xml).unwrap();
        assert_eq!(parsed, schema);
        // and the round-tripped schema still validates the instance
        parsed.validate(&valid_instance()).unwrap();
    }

    #[test]
    fn primitive_lexical_checks() {
        assert!(Primitive::Int.accepts(" -42 "));
        assert!(!Primitive::Int.accepts("4.2"));
        assert!(Primitive::Boolean.accepts("false"));
        assert!(!Primitive::Boolean.accepts("yes"));
        assert!(Primitive::DateTime.accepts("2002-11-16T09:00:00Z"));
        assert!(!Primitive::DateTime.accepts("Nov 16 2002"));
        assert!(Primitive::AnyUri.accepts("http://example.org/x"));
        assert!(!Primitive::AnyUri.accepts("two words"));
        assert!(Primitive::Base64.accepts("SGVsbG8="));
        assert!(!Primitive::Base64.accepts("a b"));
    }

    #[test]
    fn occurs_admits() {
        assert!(Occurs::ONE.admits(1));
        assert!(!Occurs::ONE.admits(0));
        assert!(!Occurs::ONE.admits(2));
        assert!(Occurs::ANY.admits(0));
        assert!(Occurs::ANY.admits(100));
        assert!(Occurs::MANY.admits(3));
        assert!(!Occurs::MANY.admits(0));
    }

    #[test]
    fn simple_content_complex_types() {
        // <parameter name="k">value</parameter>: text plus attributes.
        let schema = Schema::new("urn:t")
            .with_type(
                "ParameterType",
                TypeDef::Complex(
                    ComplexType::default()
                        .with_text_content(SimpleType::plain(Primitive::String))
                        .with_attr("name", SimpleType::plain(Primitive::String), true),
                ),
            )
            .with_element(ElementDecl::named("parameter", "ParameterType"));
        let ok = Element::new("parameter")
            .with_attr("name", "GAUSS_SCRDIR")
            .with_text("/scratch/g98");
        schema.validate(&ok).unwrap();
        // Child elements forbidden under simple content.
        let bad = Element::new("parameter")
            .with_attr("name", "x")
            .with_child(Element::new("child"));
        assert!(schema.validate(&bad).is_err());
        // Round trip through schema XML preserves the simple content.
        let rt = Schema::from_xml(&schema.to_xml()).unwrap();
        assert_eq!(rt, schema);
        rt.validate(&ok).unwrap();
    }

    #[test]
    fn typed_simple_content_checks_values() {
        let schema = Schema::new("urn:t").with_element(ElementDecl::new(
            "count",
            TypeDef::Complex(
                ComplexType::default()
                    .with_text_content(SimpleType::plain(Primitive::Int))
                    .with_attr("unit", SimpleType::plain(Primitive::String), false),
            ),
        ));
        schema
            .validate(&Element::new("count").with_text("42"))
            .unwrap();
        assert!(schema
            .validate(&Element::new("count").with_text("forty-two"))
            .is_err());
    }

    #[test]
    fn unresolved_named_type_errors() {
        let schema = Schema::default().with_element(ElementDecl::named("x", "NoSuchType"));
        let inst = Element::new("x");
        assert!(matches!(
            schema.validate(&inst),
            Err(XmlError::SchemaViolation(_))
        ));
    }
}
