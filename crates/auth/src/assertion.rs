//! SAML-style authentication assertions.
//!
//! "Assertions are mechanism-independent, digitally signed claims about
//! authentication… SAML can also be used to convey access control
//! decisions made by other mechanisms, such as Akenti" (§4). An
//! [`Assertion`] therefore carries a subject, the mechanism that
//! authenticated it, validity bounds, optional attribute statements
//! (the Akenti-style access decisions), and a detached signature over a
//! canonical byte form.
//!
//! On the wire an assertion is text from mint to verification:
//! [`Assertion::write_xml`] writes it straight into a SOAP header entry,
//! the guard forwards that entry's bytes unchanged, and the
//! Authentication Service reads it back with [`Assertion::read`], straight
//! from the tokenizer. [`Assertion::to_element`] and
//! [`Assertion::from_element`] are the DOM forms both are tested against.

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt::Write;

use portalws_soap::HeaderEntry;
use portalws_xml::dom::{read_content, read_document, skip_subtree, Piece};
use portalws_xml::escape::{escape_attr, escape_text};
use portalws_xml::{Element, Tokenizer};

use crate::mac;
use crate::{AuthError, Result};

/// Namespace used for assertion documents.
pub const SAML_NS: &str = "urn:oasis:names:tc:SAML:1.0:assertion";

/// A signed (or not-yet-signed) authentication assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assertion {
    /// Assertion id (unique per issuance).
    pub id: String,
    /// GSS context that signs for this subject.
    pub context_id: String,
    /// Authenticated principal.
    pub subject: String,
    /// Mechanism name (`kerberos`, `gsi`, `pki`).
    pub mechanism: String,
    /// Issue instant, ISO timestamp.
    pub issued_at: String,
    /// Expiry in sim-clock milliseconds.
    pub expires_at_ms: u64,
    /// Attribute statements (access-control decisions etc.).
    pub statements: Vec<(String, String)>,
    /// Detached MAC over [`Assertion::canonical`], once signed.
    pub signature: Option<String>,
}

impl Assertion {
    /// Build an unsigned assertion.
    pub fn new(
        id: impl Into<String>,
        context_id: impl Into<String>,
        subject: impl Into<String>,
        mechanism: impl Into<String>,
        issued_at: impl Into<String>,
        expires_at_ms: u64,
    ) -> Assertion {
        Assertion {
            id: id.into(),
            context_id: context_id.into(),
            subject: subject.into(),
            mechanism: mechanism.into(),
            issued_at: issued_at.into(),
            expires_at_ms,
            statements: Vec::new(),
            signature: None,
        }
    }

    /// Builder: attach an attribute statement.
    pub fn with_statement(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.statements.push((name.into(), value.into()));
        self
    }

    /// The canonical byte form that is signed: every signed field in a
    /// fixed order, newline-delimited. (Real SAML uses XML c14n; a fixed
    /// field order serves the same purpose here.)
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        self.canonical_into(&mut s);
        s
    }

    /// Append [`Assertion::canonical`] to `out`.
    fn canonical_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "id={}\nctx={}\nsubject={}\nmechanism={}\nissued={}\nexpires={}\n",
            self.id,
            self.context_id,
            self.subject,
            self.mechanism,
            self.issued_at,
            self.expires_at_ms
        );
        for (k, v) in &self.statements {
            let _ = writeln!(out, "stmt:{k}={v}");
        }
    }

    /// Run `f` over the canonical form, written into this thread's reused
    /// buffer rather than a fresh string.
    pub(crate) fn with_canonical<T>(&self, f: impl FnOnce(&str) -> T) -> T {
        with_scratch(|buf| {
            self.canonical_into(buf);
            f(buf)
        })
    }

    /// Is `xml` byte for byte what [`Assertion::write_xml`] writes for
    /// this assertion? Written into this thread's reused buffer.
    pub fn is_written_as(&self, xml: &str) -> bool {
        with_scratch(|buf| {
            self.write_xml(buf);
            buf == xml
        })
    }

    /// Sign in place with a GSS context key.
    pub fn sign(&mut self, key: &str) {
        self.signature = Some(self.with_canonical(|canonical| mac::sign(key, canonical)));
    }

    /// Verify the signature with a key; checks signature presence and MAC.
    pub fn verify_signature(&self, key: &str) -> Result<()> {
        let sig = self.signature.as_deref().ok_or(AuthError::BadSignature)?;
        if self.with_canonical(|canonical| mac::verify(key, canonical, sig)) {
            Ok(())
        } else {
            Err(AuthError::BadSignature)
        }
    }

    /// Is the assertion expired at sim time `now_ms`?
    pub fn is_expired_at(&self, now_ms: u64) -> bool {
        now_ms >= self.expires_at_ms
    }

    /// Append the `saml:Assertion` element to `out`: the bytes
    /// [`Assertion::to_element`] serializes to, written without a tree.
    // portalint: hot-path-entry
    pub fn write_xml(&self, out: &mut String) {
        let put_attr = |out: &mut String, name: &str, value: &str| {
            out.push(' ');
            out.push_str(name);
            out.push_str("=\"");
            out.push_str(&escape_attr(value));
            out.push('"');
        };
        out.push_str("<saml:Assertion xmlns:saml=\"");
        out.push_str(SAML_NS);
        out.push('"');
        put_attr(out, "AssertionID", &self.id);
        put_attr(out, "IssueInstant", &self.issued_at);
        out.push_str("><saml:AuthenticationStatement");
        put_attr(out, "AuthenticationMethod", &self.mechanism);
        let _ = write!(out, " NotOnOrAfter=\"{}\"", self.expires_at_ms);
        out.push_str("><saml:Subject");
        put_attr(out, "NameQualifier", &self.context_id);
        out.push('>');
        out.push_str(&escape_text(&self.subject));
        out.push_str("</saml:Subject></saml:AuthenticationStatement>");
        if !self.statements.is_empty() {
            out.push_str("<saml:AttributeStatement>");
            for (k, v) in &self.statements {
                out.push_str("<saml:Attribute");
                put_attr(out, "AttributeName", k);
                out.push('>');
                out.push_str(&escape_text(v));
                out.push_str("</saml:Attribute>");
            }
            out.push_str("</saml:AttributeStatement>");
        }
        if let Some(sig) = &self.signature {
            out.push_str("<Signature>");
            out.push_str(&escape_text(sig));
            out.push_str("</Signature>");
        }
        out.push_str("</saml:Assertion>");
    }

    /// The assertion as a SOAP header entry, written once into a buffer
    /// sized for it.
    pub fn to_header(&self) -> HeaderEntry {
        /// Tags, attribute names, the namespace, a 20-digit expiry and the
        /// signature's tags.
        const FIXED: usize = 308;
        /// An attribute statement's wrapper, and each attribute's tags.
        const STATEMENTS: usize = 51;
        const STATEMENT: usize = 50;
        let fields = [
            &self.id,
            &self.issued_at,
            &self.mechanism,
            &self.context_id,
            &self.subject,
        ];
        let statements: usize = (self.statements.iter())
            .map(|(k, v)| k.len() + v.len() + STATEMENT)
            .sum();
        let len = FIXED
            + fields.iter().map(|f| f.len()).sum::<usize>()
            + statements
            + usize::from(!self.statements.is_empty()) * STATEMENTS
            + self.signature.as_ref().map_or(0, String::len);
        let mut xml = String::with_capacity(len);
        self.write_xml(&mut xml);
        HeaderEntry::from_written(xml)
    }

    /// Read an assertion from its XML text (a header entry's), straight
    /// from the tokenizer: the same assertion [`Assertion::from_element`]
    /// gives for the parsed tree, and the same errors, with a document
    /// that is not well formed reported as [`AuthError::Malformed`] too.
    pub fn read(xml: &str) -> Result<Assertion> {
        read_document(xml, read_assertion).map_err(|e| AuthError::Malformed(e.to_string()))?
    }

    /// Serialize as a `saml:Assertion` element: the tree form that
    /// [`Assertion::write_xml`] is tested against.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("saml:Assertion")
            .with_attr("xmlns:saml", SAML_NS)
            .with_attr("AssertionID", self.id.clone())
            .with_attr("IssueInstant", self.issued_at.clone())
            .with_child(
                Element::new("saml:AuthenticationStatement")
                    .with_attr("AuthenticationMethod", self.mechanism.clone())
                    .with_attr("NotOnOrAfter", self.expires_at_ms.to_string())
                    .with_child(
                        Element::new("saml:Subject")
                            .with_attr("NameQualifier", self.context_id.clone())
                            .with_text(self.subject.clone()),
                    ),
            );
        if !self.statements.is_empty() {
            let mut attrs = Element::new("saml:AttributeStatement");
            for (k, v) in &self.statements {
                attrs.push_child(
                    Element::new("saml:Attribute")
                        .with_attr("AttributeName", k.clone())
                        .with_text(v.clone()),
                );
            }
            el.push_child(attrs);
        }
        if let Some(sig) = &self.signature {
            el.push_child(Element::new("Signature").with_text(sig.clone()));
        }
        el
    }

    /// Parse an assertion element back: the tree form that
    /// [`Assertion::read`] is tested against.
    pub fn from_element(el: &Element) -> Result<Assertion> {
        if el.local_name() != "Assertion" {
            return Err(AuthError::Malformed(format!(
                "expected Assertion, found {:?}",
                el.local_name()
            )));
        }
        let id = el
            .attr("AssertionID")
            .ok_or_else(|| AuthError::Malformed("missing AssertionID".into()))?
            .to_owned();
        let issued_at = el.attr("IssueInstant").unwrap_or("").to_owned();
        let auth_stmt = el
            .find("AuthenticationStatement")
            .ok_or_else(|| AuthError::Malformed("missing AuthenticationStatement".into()))?;
        let mechanism = auth_stmt
            .attr("AuthenticationMethod")
            .unwrap_or("")
            .to_owned();
        let expires_at_ms = auth_stmt
            .attr("NotOnOrAfter")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| AuthError::Malformed("missing/bad NotOnOrAfter".into()))?;
        let subject_el = auth_stmt
            .find("Subject")
            .ok_or_else(|| AuthError::Malformed("missing Subject".into()))?;
        let context_id = subject_el.attr("NameQualifier").unwrap_or("").to_owned();
        let subject = subject_el.text().trim().to_owned();
        let statements = el
            .find("AttributeStatement")
            .map(|s| {
                s.find_all("Attribute")
                    .map(|a| {
                        (
                            a.attr("AttributeName").unwrap_or("").to_owned(),
                            a.text().trim().to_owned(),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        let signature = el.find_text("Signature").map(str::to_owned);
        Ok(Assertion {
            id,
            context_id,
            subject,
            mechanism,
            issued_at,
            expires_at_ms,
            statements,
            signature,
        })
    }
}

/// Run `f` over this thread's scratch string, cleared, keeping its
/// capacity for the next call.
fn with_scratch<T>(f: impl FnOnce(&mut String) -> T) -> T {
    thread_local! {
        static SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
    }
    SCRATCH.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        f(&mut buf)
    })
}

type Attrs<'a> = Vec<(Cow<'a, str>, Cow<'a, str>)>;

/// An attribute's value, if present.
fn attr<'v>(attrs: &'v Attrs<'_>, name: &str) -> Option<&'v str> {
    attrs
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_ref())
}

fn local(name: &str) -> &str {
    name.split_once(':').map_or(name, |(_, local)| local)
}

/// Each child start tag of the element just opened goes to `child`,
/// which must consume the child, through the element's end tag; the
/// element's own text is passed over.
fn read_children<'a>(
    tok: &mut Tokenizer<'a>,
    parent: &str,
    self_closing: bool,
    mut child: impl FnMut(&mut Tokenizer<'a>, Cow<'a, str>, Attrs<'a>, bool) -> portalws_xml::Result<()>,
) -> portalws_xml::Result<()> {
    read_content(tok, parent, self_closing, |tok, piece| match piece {
        Piece::Child(name, attrs, self_closing, _) => child(tok, name, attrs, self_closing),
        Piece::Text(_) | Piece::CData(_) => Ok(()),
    })
}

/// An element's text as the tree keeps it: runs that are not all
/// whitespace, and CDATA.
fn kept(t: &str, cdata: bool) -> bool {
    cdata || !t.trim().is_empty()
}

/// A text-only element's content read the way [`Element::text`] and
/// [`Element::find_text`] see it: every kept run concatenated, and the
/// first run that is not blank once trimmed.
#[derive(Default)]
struct Text {
    all: String,
    first: Option<String>,
}

fn read_text<'a>(
    tok: &mut Tokenizer<'a>,
    name: &str,
    self_closing: bool,
    skip: &mut Vec<Cow<'a, str>>,
) -> portalws_xml::Result<Text> {
    let mut out = Text::default();
    read_content(tok, name, self_closing, |tok, piece| {
        let (t, cdata) = match piece {
            Piece::Text(t) => (t, false),
            Piece::CData(t) => (t, true),
            Piece::Child(child, _, self_closing, _) => {
                return skip_subtree(tok, &child, self_closing, skip)
            }
        };
        if kept(&t, cdata) {
            if out.first.is_none() && !t.trim().is_empty() {
                out.first = Some(t.trim().to_owned());
            }
            out.all.push_str(&t);
        }
        Ok(())
    })?;
    Ok(out)
}

/// `saml:AuthenticationStatement`: mechanism, `NotOnOrAfter` as written,
/// and its first `Subject` as (`NameQualifier`, text).
type AuthnStatement = (String, Option<String>, Option<(String, String)>);

/// The document root as an assertion, in [`Assertion::from_element`]'s
/// terms: the first child of each name counts, and the rest of the
/// document is read only to check that it is well formed. The outer
/// error is a well-formedness error; the inner one is a missing or bad
/// field, reported only once the whole document is known to be well
/// formed.
fn read_assertion<'a>(
    tok: &mut Tokenizer<'a>,
    name: Cow<'a, str>,
    attrs: Attrs<'a>,
    self_closing: bool,
) -> portalws_xml::Result<Result<Assertion>> {
    let mut skip = Vec::new();
    if local(&name) != "Assertion" {
        skip_subtree(tok, &name, self_closing, &mut skip)?;
        return Ok(Err(AuthError::Malformed(format!(
            "expected Assertion, found {:?}",
            local(&name)
        ))));
    }
    let mut statement: Option<AuthnStatement> = None;
    let mut statements: Option<Vec<(String, String)>> = None;
    let mut signature: Option<Option<String>> = None;
    read_children(
        tok,
        &name,
        self_closing,
        |tok, child, attrs, sc| match local(&child) {
            "AuthenticationStatement" if statement.is_none() => {
                let mechanism = attr(&attrs, "AuthenticationMethod")
                    .unwrap_or("")
                    .to_owned();
                let expires = attr(&attrs, "NotOnOrAfter").map(str::to_owned);
                let mut subject = None;
                read_children(tok, &child, sc, |tok, el, attrs, sc| {
                    if subject.is_none() && local(&el) == "Subject" {
                        let qualifier = attr(&attrs, "NameQualifier").unwrap_or("").to_owned();
                        let text = read_text(tok, &el, sc, &mut skip)?;
                        subject = Some((qualifier, text.all.trim().to_owned()));
                        Ok(())
                    } else {
                        skip_subtree(tok, &el, sc, &mut skip)
                    }
                })?;
                statement = Some((mechanism, expires, subject));
                Ok(())
            }
            "AttributeStatement" if statements.is_none() => {
                let mut found = Vec::new();
                read_children(tok, &child, sc, |tok, el, attrs, sc| {
                    if local(&el) == "Attribute" {
                        let key = attr(&attrs, "AttributeName").unwrap_or("").to_owned();
                        let text = read_text(tok, &el, sc, &mut skip)?;
                        found.push((key, text.all.trim().to_owned()));
                        Ok(())
                    } else {
                        skip_subtree(tok, &el, sc, &mut skip)
                    }
                })?;
                statements = Some(found);
                Ok(())
            }
            "Signature" if signature.is_none() => {
                signature = Some(read_text(tok, &child, sc, &mut skip)?.first);
                Ok(())
            }
            _ => skip_subtree(tok, &child, sc, &mut skip),
        },
    )?;
    let Some(id) = attr(&attrs, "AssertionID") else {
        return Ok(Err(AuthError::Malformed("missing AssertionID".into())));
    };
    let Some((mechanism, expires, subject)) = statement else {
        return Ok(Err(AuthError::Malformed(
            "missing AuthenticationStatement".into(),
        )));
    };
    let Some(expires_at_ms) = expires.and_then(|v| v.parse().ok()) else {
        return Ok(Err(AuthError::Malformed("missing/bad NotOnOrAfter".into())));
    };
    let Some((context_id, subject)) = subject else {
        return Ok(Err(AuthError::Malformed("missing Subject".into())));
    };
    Ok(Ok(Assertion {
        id: id.to_owned(),
        context_id,
        subject,
        mechanism,
        issued_at: attr(&attrs, "IssueInstant").unwrap_or("").to_owned(),
        expires_at_ms,
        statements: statements.unwrap_or_default(),
        signature: signature.flatten(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Assertion {
        Assertion::new(
            "a-0001",
            "ctx-42",
            "alice@GCE.ORG",
            "kerberos",
            "2002-11-16T09:00:00Z",
            1_000_000,
        )
        .with_statement("akenti:decision", "permit")
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut a = sample();
        a.sign("session-key");
        a.verify_signature("session-key").unwrap();
        assert_eq!(
            a.verify_signature("wrong-key"),
            Err(AuthError::BadSignature)
        );
    }

    #[test]
    fn unsigned_fails_verification() {
        assert_eq!(sample().verify_signature("k"), Err(AuthError::BadSignature));
    }

    #[test]
    fn xml_round_trip_preserves_signature() {
        let mut a = sample();
        a.sign("k");
        let el = a.to_element();
        let parsed = Assertion::from_element(&el).unwrap();
        assert_eq!(parsed, a);
        parsed.verify_signature("k").unwrap();
    }

    #[test]
    fn tampered_subject_breaks_signature() {
        let mut a = sample();
        a.sign("k");
        let mut parsed = Assertion::from_element(&a.to_element()).unwrap();
        parsed.subject = "mallory@GCE.ORG".into();
        assert_eq!(parsed.verify_signature("k"), Err(AuthError::BadSignature));
    }

    #[test]
    fn tampered_statement_breaks_signature() {
        let mut a = sample();
        a.sign("k");
        let mut parsed = Assertion::from_element(&a.to_element()).unwrap();
        parsed.statements[0].1 = "deny".into();
        assert_eq!(parsed.verify_signature("k"), Err(AuthError::BadSignature));
    }

    #[test]
    fn expiry_check() {
        let a = sample();
        assert!(!a.is_expired_at(999_999));
        assert!(a.is_expired_at(1_000_000));
    }

    #[test]
    fn malformed_documents_rejected() {
        let el = Element::new("NotAssertion");
        assert!(Assertion::from_element(&el).is_err());
        let el = Element::new("saml:Assertion"); // no id
        assert!(Assertion::from_element(&el).is_err());
        let el = Element::new("saml:Assertion").with_attr("AssertionID", "x");
        assert!(Assertion::from_element(&el).is_err()); // no auth statement
    }

    #[test]
    fn statements_survive_round_trip() {
        let a = sample().with_statement("role", "pi");
        let parsed = Assertion::from_element(&a.to_element()).unwrap();
        assert_eq!(parsed.statements.len(), 2);
        assert_eq!(parsed.statements[1], ("role".into(), "pi".into()));
    }
}
