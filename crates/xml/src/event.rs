//! Pull tokenizer: turns XML text into a stream of borrowed [`Event`]s.
//!
//! The tokenizer is deliberately a single forward pass with no lookahead
//! buffer: SOAP envelopes arrive as one contiguous string from the wire
//! layer, and a single scan keeps the cost of the "XML tax" (experiments
//! E1/E5/E11) honest and measurable.
//!
//! Events borrow from the source — names, attribute values, text, and
//! CDATA are [`Cow::Borrowed`] slices unless entity resolution forces an
//! allocation. Line/column positions are *lazy*: the hot path tracks only
//! a byte offset, and [`Tokenizer::pos_at`] scans the prefix to recover
//! line/col only when an error is being constructed.

use std::borrow::Cow;
use std::collections::HashSet;

use crate::escape::{unescape, unescape_from};
use crate::{scan, stats};
use crate::{Pos, Result, XmlError};

/// One lexical event in the document, borrowing from the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// XML declaration `<?xml version="1.0"?>` (content unparsed).
    Decl(Cow<'a, str>),
    /// Start of an element. `self_closing` is true for `<a/>`.
    StartTag {
        name: Cow<'a, str>,
        attrs: Vec<(Cow<'a, str>, Cow<'a, str>)>,
        self_closing: bool,
    },
    /// End of an element `</a>`.
    EndTag { name: Cow<'a, str> },
    /// Character data between tags, entities already resolved.
    Text(Cow<'a, str>),
    /// CDATA section contents (not entity-processed, per the spec).
    CData(Cow<'a, str>),
    /// Comment contents.
    Comment(Cow<'a, str>),
    /// Processing instruction other than the XML declaration.
    Pi {
        target: Cow<'a, str>,
        data: Cow<'a, str>,
    },
    /// DOCTYPE declaration, skipped and reported verbatim.
    Doctype(Cow<'a, str>),
}

impl Event<'_> {
    /// Detach the event from the source buffer.
    ///
    /// Holders of a borrowed `Event` may not outlive the source string the
    /// tokenizer was built over; `into_owned` is the escape hatch for the
    /// rare consumer that must keep one (see DESIGN.md "substrate
    /// performance" for the ownership rules).
    pub fn into_owned(self) -> Event<'static> {
        fn own(c: Cow<'_, str>) -> Cow<'static, str> {
            Cow::Owned(c.into_owned())
        }
        match self {
            Event::Decl(d) => Event::Decl(own(d)),
            Event::StartTag {
                name,
                attrs,
                self_closing,
            } => Event::StartTag {
                name: own(name),
                attrs: attrs.into_iter().map(|(k, v)| (own(k), own(v))).collect(),
                self_closing,
            },
            Event::EndTag { name } => Event::EndTag { name: own(name) },
            Event::Text(t) => Event::Text(own(t)),
            Event::CData(t) => Event::CData(own(t)),
            Event::Comment(c) => Event::Comment(own(c)),
            Event::Pi { target, data } => Event::Pi {
                target: own(target),
                data: own(data),
            },
            Event::Doctype(d) => Event::Doctype(own(d)),
        }
    }
}

/// A new attribute name is compared with each of the first this many
/// names of its tag; names past them are checked in a hash set, so a tag
/// costs time linear in its attributes and an ordinary tag allocates
/// nothing for the check.
const DUP_SCAN: usize = 8;

/// A duplicate-check set whose capacity grew past this many names is
/// dropped, not cleared, when the next long tag starts: clearing costs
/// time in proportion to the capacity, and one huge tag must not make
/// every later one pay for it.
const DUP_SET_KEEP: usize = 256;

/// Forward-only tokenizer over a source string.
pub struct Tokenizer<'a> {
    src: &'a str,
    /// Current byte offset into `src` — the only position state the hot
    /// path maintains.
    off: usize,
    /// Names past the first [`DUP_SCAN`] of the tag being read; made by
    /// the first tag that has more, then reused.
    seen: Option<HashSet<&'a str>>,
}

impl<'a> Tokenizer<'a> {
    /// Create a tokenizer over `src`.
    pub fn new(src: &'a str) -> Self {
        Tokenizer {
            src,
            off: 0,
            seen: None,
        }
    }

    /// Current byte offset (cheap; record this on the hot path and convert
    /// with [`Tokenizer::pos_at`] only when building an error).
    pub fn offset(&self) -> usize {
        self.off
    }

    /// Line/column of byte offset `off`, computed by scanning the prefix.
    ///
    /// O(off) — intended for error construction only, never per event.
    pub fn pos_at(&self, off: usize) -> Pos {
        let prefix = self
            .src
            .as_bytes()
            .get(..off)
            .unwrap_or(self.src.as_bytes());
        let mut line = 1u32;
        let mut line_start = 0usize;
        for (i, &b) in prefix.iter().enumerate() {
            if b == b'\n' {
                line += 1;
                line_start = i + 1;
            }
        }
        Pos {
            line,
            col: (prefix.len() - line_start) as u32 + 1,
        }
    }

    /// Current source position (for error reporting; O(offset), see
    /// [`Tokenizer::pos_at`]).
    pub fn pos(&self) -> Pos {
        self.pos_at(self.off)
    }

    fn rest(&self) -> &'a str {
        self.src.get(self.off..).unwrap_or("")
    }

    fn eof(&self) -> bool {
        self.off >= self.src.len()
    }

    /// Source bytes `start..end`, clamped (panic-free).
    fn span(&self, start: usize, end: usize) -> &'a str {
        self.src.get(start..end).unwrap_or("")
    }

    /// Advance past `n` bytes. No per-byte bookkeeping — positions are
    /// recovered lazily from the offset on error paths.
    fn advance(&mut self, n: usize) {
        self.off = self.off.saturating_add(n).min(self.src.len());
    }

    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError::Syntax {
            pos: self.pos(),
            msg: msg.into(),
        }
    }

    fn eof_err(&self) -> XmlError {
        XmlError::UnexpectedEof { pos: self.pos() }
    }

    /// Consume up to and including `needle`, returning the text before it.
    fn take_until(&mut self, needle: &str) -> Result<&'a str> {
        let rest = self.rest();
        match rest.find(needle) {
            Some(i) => {
                let (out, _) = scan::split_at(rest, i);
                self.advance(i + needle.len());
                Ok(out)
            }
            None => Err(self.eof_err()),
        }
    }

    fn skip_ws(&mut self) {
        let n = self
            .rest()
            .bytes()
            .take_while(|b| b.is_ascii_whitespace())
            .count();
        self.advance(n);
    }

    fn is_name_start(c: char) -> bool {
        c.is_alphabetic() || c == '_' || c == ':'
    }

    fn is_name_char(c: char) -> bool {
        c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.')
    }

    fn is_ascii_name_byte(b: u8) -> bool {
        b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.')
    }

    /// Length of the name-character run at the start of `rest`, resolved
    /// with a byte scan for the ASCII names that dominate SOAP documents
    /// and a `char` walk only from the first non-ASCII byte on.
    fn name_len(rest: &str) -> usize {
        let ascii =
            scan::find_byte(rest, 0, |b| !Self::is_ascii_name_byte(b)).unwrap_or(rest.len());
        if rest.as_bytes().get(ascii).is_none_or(|b| b.is_ascii()) {
            return ascii;
        }
        let tail_len: usize = rest.get(ascii..).map_or(0, |tail| {
            tail.chars()
                .take_while(|&c| Self::is_name_char(c))
                .map(char::len_utf8)
                .sum()
        });
        ascii + tail_len
    }

    fn take_name(&mut self) -> Result<&'a str> {
        let rest = self.rest();
        match rest.chars().next() {
            Some(c) if Self::is_name_start(c) => {}
            // portalint: allow(hot-path-alloc) — parse-error branch; never runs on well-formed input
            Some(c) => return Err(self.err(format!("expected name, found {c:?}"))),
            None => return Err(self.eof_err()),
        }
        let n = Self::name_len(rest);
        let (name, _) = scan::split_at(rest, n);
        self.advance(n);
        Ok(name)
    }

    fn take_quoted(&mut self) -> Result<Cow<'a, str>> {
        let quote = match self.rest().chars().next() {
            Some(q @ ('"' | '\'')) => q as u8,
            // portalint: allow(hot-path-alloc) — parse-error branch; never runs on well-formed input
            Some(c) => return Err(self.err(format!("expected quoted value, found {c:?}"))),
            None => return Err(self.eof_err()),
        };
        self.advance(1);
        let start = self.off;
        let rest = self.rest();
        let Some(i) = scan::find_any(rest, 0, [quote]) else {
            return Err(self.eof_err());
        };
        let (raw, _) = scan::split_at(rest, i);
        self.advance(i + 1);
        unescape(raw).ok_or_else(|| XmlError::BadEntity {
            pos: self.pos_at(start),
            entity: raw.to_owned(),
        })
    }

    /// Produce the next event, or `None` at end of input.
    // portalint: hot-path-entry
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>> {
        if self.eof() {
            return Ok(None);
        }
        if !self.rest().starts_with('<') {
            return self.text_event().map(Some);
        }
        let r = self.rest();
        if r.starts_with("<!--") {
            self.advance(4);
            let body = self.take_until("-->")?;
            return Ok(Some(Event::Comment(Cow::Borrowed(body))));
        }
        if r.starts_with("<![CDATA[") {
            self.advance(9);
            let body = self.take_until("]]>")?;
            return Ok(Some(Event::CData(Cow::Borrowed(body))));
        }
        if r.starts_with("<!DOCTYPE") || r.starts_with("<!doctype") {
            return self.doctype_event().map(Some);
        }
        if r.starts_with("<?") {
            return self.pi_event().map(Some);
        }
        if r.starts_with("</") {
            self.advance(2);
            let name = self.take_name()?;
            self.skip_ws();
            if !self.rest().starts_with('>') {
                return Err(self.err("expected '>' after close tag name"));
            }
            self.advance(1);
            return Ok(Some(Event::EndTag {
                name: Cow::Borrowed(name),
            }));
        }
        self.start_tag_event().map(Some)
    }

    /// Hand the text run at the cursor to `consume`, which reads the
    /// source from the cursor on and returns the run's length: how many
    /// bytes come before the `<` that closes it (or the end of the
    /// source). Those bytes must hold no `<` or `&`; a consumer that finds
    /// one, or otherwise declines the run, returns `None`, and the run is
    /// left for [`Tokenizer::next_event`] to produce as it stands.
    ///
    /// A taken run is consumed unscanned (the consumer's own pass is the
    /// only one over it) and counted in [`crate::stats`] as `next_event`
    /// counts an entity-free run. Returns whether a run was taken; with
    /// the cursor at markup or at the end there is no run to hand over.
    // portalint: hot-path-entry
    pub fn take_text(&mut self, consume: impl FnOnce(&'a str) -> Option<usize>) -> bool {
        let rest = self.rest();
        if rest.is_empty() || rest.starts_with('<') {
            return false;
        }
        let Some(len) = consume(rest) else {
            return false;
        };
        let closed = (rest.as_bytes().get(len)).map_or(len == rest.len(), |&b| b == b'<');
        if len == 0 || !closed {
            return false;
        }
        self.advance(len);
        stats::count_unescape(true);
        true
    }

    /// A text run, scanned once for its end and its first entity
    /// together: a run with no `&` is borrowed as it stands (counted as an
    /// unescape fast path), and only a run with one is resolved.
    fn text_event(&mut self) -> Result<Event<'a>> {
        let start = self.off;
        let rest = self.rest();
        let stop = scan::find_any(rest, 0, [b'<', b'&']).unwrap_or(rest.len());
        if rest.as_bytes().get(stop) != Some(&b'&') {
            let (raw, _) = scan::split_at(rest, stop);
            self.advance(stop);
            stats::count_unescape(true);
            return Ok(Event::Text(Cow::Borrowed(raw)));
        }
        let end = scan::find_any(rest, stop, [b'<']).unwrap_or(rest.len());
        let (raw, _) = scan::split_at(rest, end);
        self.advance(end);
        let text = unescape_from(raw, stop).ok_or_else(|| XmlError::BadEntity {
            pos: self.pos_at(start),
            entity: raw.to_owned(),
        })?;
        Ok(Event::Text(Cow::Owned(text)))
    }

    fn doctype_event(&mut self) -> Result<Event<'a>> {
        self.advance("<!DOCTYPE".len());
        // Skip to the matching '>' while tolerating an internal subset
        // bracketed by [ ... ].
        let start = self.off;
        let mut depth = 0usize;
        loop {
            let Some(c) = self.rest().chars().next() else {
                return Err(self.eof_err());
            };
            match c {
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                '>' if depth == 0 => {
                    let body = self.span(start, self.off).trim();
                    self.advance(1);
                    return Ok(Event::Doctype(Cow::Borrowed(body)));
                }
                _ => {}
            }
            self.advance(c.len_utf8());
        }
    }

    fn pi_event(&mut self) -> Result<Event<'a>> {
        self.advance(2);
        let target = self.take_name()?;
        self.skip_ws();
        let data = self.take_until("?>")?.trim_end();
        if target.eq_ignore_ascii_case("xml") {
            Ok(Event::Decl(Cow::Borrowed(data)))
        } else {
            Ok(Event::Pi {
                target: Cow::Borrowed(target),
                data: Cow::Borrowed(data),
            })
        }
    }

    fn start_tag_event(&mut self) -> Result<Event<'a>> {
        self.advance(1); // consume '<'
        let name = self.take_name()?;
        // portalint: allow(hot-path-alloc) — an empty Vec allocates nothing; it grows only on attribute-bearing tags
        let mut attrs: Vec<(Cow<'a, str>, Cow<'a, str>)> = Vec::new();
        loop {
            self.skip_ws();
            let r = self.rest();
            if r.starts_with("/>") {
                self.advance(2);
                return Ok(Event::StartTag {
                    name: Cow::Borrowed(name),
                    attrs,
                    self_closing: true,
                });
            }
            if r.starts_with('>') {
                self.advance(1);
                return Ok(Event::StartTag {
                    name: Cow::Borrowed(name),
                    attrs,
                    self_closing: false,
                });
            }
            if r.is_empty() {
                return Err(self.eof_err());
            }
            let aname = self.take_name()?;
            self.skip_ws();
            if !self.rest().starts_with('=') {
                // portalint: allow(hot-path-alloc) — parse-error branch; never runs on well-formed input
                return Err(self.err(format!("attribute {aname:?} missing '='")));
            }
            self.advance(1);
            self.skip_ws();
            let value = self.take_quoted()?;
            if self.is_duplicate(&attrs, aname) {
                // portalint: allow(hot-path-alloc) — parse-error branch; never runs on well-formed input
                return Err(self.err(format!("duplicate attribute {aname:?}")));
            }
            attrs.push((Cow::Borrowed(aname), value));
        }
    }

    /// Does the tag whose attributes so far are `attrs` already have one
    /// named `name`? The first [`DUP_SCAN`] names are compared one by one,
    /// and the rest are kept in `seen`, which this call starts afresh at
    /// the first name past them.
    fn is_duplicate(&mut self, attrs: &[(Cow<'a, str>, Cow<'a, str>)], name: &'a str) -> bool {
        let (scanned, rest) = attrs.split_at(attrs.len().min(DUP_SCAN));
        if scanned.iter().any(|(n, _)| n.as_ref() == name) {
            return true;
        }
        if attrs.len() < DUP_SCAN {
            return false;
        }
        let seen = match &mut self.seen {
            Some(seen) if !rest.is_empty() => seen,
            Some(seen) if seen.capacity() <= DUP_SET_KEEP => {
                seen.clear();
                seen
            }
            // portalint: allow(hot-path-alloc) — tags past DUP_SCAN attributes only; a new set allocates nothing until its first insert
            slot => slot.insert(HashSet::new()),
        };
        !seen.insert(name)
    }

    /// Drain all events into a vector (convenience for tests and the DOM).
    pub fn collect_events(mut self) -> Result<Vec<Event<'a>>> {
        let mut out = Vec::new();
        while let Some(ev) = self.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;

    fn events(src: &str) -> Vec<Event<'_>> {
        Tokenizer::new(src).collect_events().unwrap()
    }

    #[test]
    fn simple_element() {
        let ev = events("<a>hi</a>");
        assert_eq!(
            ev,
            vec![
                Event::StartTag {
                    name: "a".into(),
                    attrs: vec![],
                    self_closing: false
                },
                Event::Text("hi".into()),
                Event::EndTag { name: "a".into() },
            ]
        );
    }

    #[test]
    fn self_closing_with_attrs() {
        let ev = events(r#"<job name="g98" cpus='4'/>"#);
        assert_eq!(
            ev,
            vec![Event::StartTag {
                name: "job".into(),
                attrs: vec![("name".into(), "g98".into()), ("cpus".into(), "4".into())],
                self_closing: true
            }]
        );
    }

    #[test]
    fn entity_free_events_borrow() {
        let ev = events(r#"<a k="v">plain text</a>"#);
        match &ev[0] {
            Event::StartTag { name, attrs, .. } => {
                assert!(matches!(name, Cow::Borrowed(_)));
                assert!(matches!(&attrs[0].1, Cow::Borrowed(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&ev[1], Event::Text(Cow::Borrowed(_))));
    }

    #[test]
    fn entity_resolution_allocates_only_then() {
        let ev = events(r#"<a k="&lt;v">x &amp; y</a>"#);
        match &ev[0] {
            Event::StartTag { attrs, .. } => {
                assert!(matches!(&attrs[0].1, Cow::Owned(_)));
                assert_eq!(attrs[0].1, "<v");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&ev[1], Event::Text(Cow::Owned(_))));
    }

    #[test]
    fn entity_free_text_is_borrowed_and_counted_as_a_fast_path() {
        // Counters are process-wide and only grow, so with other tests
        // running alongside, a delta of at least one per run is the check.
        const RUNS: u64 = 10_000;
        let doc = format!("<a>{}</a>", "<b/>plain text".repeat(RUNS as usize));
        let before = stats::snapshot();
        let mut tok = Tokenizer::new(&doc);
        while let Some(ev) = tok.next_event().unwrap() {
            if let Event::Text(text) = ev {
                assert!(matches!(text, Cow::Borrowed("plain text")), "{text:?}");
            }
        }
        let counted = stats::snapshot().since(&before).unescape_borrowed;
        assert!(counted >= RUNS, "{counted} fast paths for {RUNS} runs");
    }

    #[test]
    fn take_text_hands_over_a_run_and_counts_it_as_a_text_event_would() {
        let doc = "<a>abc<b/>de&amp;f</a>";
        let mut tok = Tokenizer::new(doc);
        tok.next_event().unwrap(); // <a>
        let before = stats::thread_snapshot();
        let mut seen = "";
        assert!(tok.take_text(|run| {
            seen = run;
            run.find('<')
        }));
        assert_eq!(seen, "abc<b/>de&amp;f</a>");
        assert_eq!(tok.offset(), 6);
        assert_eq!(stats::thread_snapshot().since(&before).unescape_borrowed, 1);
        // At markup there is no run: the consumer is not called.
        assert!(!tok.take_text(|_| panic!("called at markup")));
        assert!(matches!(tok.next_event(), Ok(Some(Event::StartTag { .. }))));
        // A declined run, or a length that does not reach the closing
        // `<`, leaves the cursor and the counts where they were.
        let before = stats::thread_snapshot();
        assert!(!tok.take_text(|_| None));
        assert!(!tok.take_text(|_| Some(2)));
        assert!(!tok.take_text(|_| Some(0)));
        assert_eq!(tok.offset(), 10);
        assert_eq!(stats::thread_snapshot().since(&before), Default::default());
        // So the run is produced as before.
        let text = tok.next_event().unwrap();
        assert_eq!(text, Some(Event::Text(Cow::Owned("de&f".into()))));
        // A run may end the source; at the end there is none.
        let mut tok = Tokenizer::new("tail");
        assert!(tok.take_text(|run| Some(run.len())));
        assert!(!tok.take_text(|_| panic!("called at the end")));
        assert_eq!(tok.next_event(), Ok(None));
    }

    #[test]
    fn entity_past_the_first_kilobyte_is_resolved() {
        let plain = "x".repeat(1500);
        let doc = format!("<a>{plain}&amp;y &#65;</a>");
        let ev = events(&doc);
        assert_eq!(ev[1], Event::Text(Cow::Owned(format!("{plain}&y A"))));
    }

    #[test]
    fn into_owned_detaches() {
        let owned: Vec<Event<'static>> = {
            let src = String::from("<a k=\"v\">hi</a>");
            events(&src).into_iter().map(Event::into_owned).collect()
        };
        assert_eq!(owned[1], Event::Text("hi".into()));
    }

    #[test]
    fn declaration_and_comment_and_pi() {
        let ev = events("<?xml version=\"1.0\"?><!-- c --><?php echo ?><a/>");
        assert!(matches!(ev[0], Event::Decl(_)));
        assert_eq!(ev[1], Event::Comment(" c ".into()));
        assert!(matches!(&ev[2], Event::Pi { target, .. } if target.as_ref() == "php"));
    }

    #[test]
    fn cdata_not_entity_processed() {
        let ev = events("<a><![CDATA[x < y & z]]></a>");
        assert_eq!(ev[1], Event::CData("x < y & z".into()));
    }

    #[test]
    fn entities_resolved_in_text_and_attrs() {
        let ev = events(r#"<a k="&lt;v&gt;">&amp;</a>"#);
        match &ev[0] {
            Event::StartTag { attrs, .. } => assert_eq!(attrs[0].1, "<v>"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ev[1], Event::Text("&".into()));
    }

    #[test]
    fn doctype_skipped() {
        let ev = events("<!DOCTYPE html [ <!ENTITY x \"y\"> ]><a/>");
        assert!(matches!(ev[0], Event::Doctype(_)));
        assert!(matches!(ev[1], Event::StartTag { .. }));
    }

    #[test]
    fn error_positions_track_lines() {
        let mut t = Tokenizer::new("<a>\n  <b<>\n</a>");
        t.next_event().unwrap(); // <a>
        t.next_event().unwrap(); // text
        let err = t.next_event().unwrap_err();
        match err {
            XmlError::Syntax { pos, .. } => {
                assert_eq!(pos.line, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lazy_pos_matches_eager_walk() {
        let src = "line one\nline <two>\n\nand three";
        let t = Tokenizer::new(src);
        // Reference: walk every byte the way the old tokenizer did.
        let mut line = 1u32;
        let mut col = 1u32;
        for (i, b) in src.bytes().enumerate() {
            assert_eq!(t.pos_at(i), Pos { line, col }, "offset {i}");
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        assert_eq!(t.pos_at(src.len()), Pos { line, col });
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut t = Tokenizer::new(r#"<a k="1" k="2"/>"#);
        assert!(matches!(t.next_event(), Err(XmlError::Syntax { .. })));
    }

    #[test]
    fn duplicate_check_spans_the_scan_and_the_set() {
        // A repeat of a scanned name, of a name in the set, and one in a
        // later long tag after a longer one left a large set behind. Long
        // tags that share names are not duplicates: the set starts afresh
        // for each, whether it is dropped (after the huge tag) or kept.
        let names = |n: usize| (0..n).map(|i| format!("a{i}=''")).collect::<Vec<_>>();
        let tag = |attrs: &[String]| format!("<t {}/>", attrs.join(" "));
        let ok = names(3 * DUP_SET_KEEP);
        let long = tag(&ok[..DUP_SCAN + 20]);
        let mut doc = format!("<r>{}{long}{long}</r>", tag(&ok));
        Element::parse(&doc).unwrap();
        for (dup, at) in [
            (0, DUP_SCAN + 4),
            (DUP_SCAN + 1, DUP_SCAN + 4),
            (DUP_SCAN, 40),
        ] {
            let mut attrs = ok[..at].to_vec();
            attrs.push(ok[dup].clone());
            doc = format!("<r>{}{}</r>", tag(&ok), tag(&attrs));
            let err = Element::parse(&doc).unwrap_err();
            let XmlError::Syntax { pos, msg } = err else {
                panic!("{err:?}")
            };
            assert_eq!(msg, format!("duplicate attribute \"a{dup}\""));
            // Reported where the parent reported it: after the value.
            assert_eq!(pos.col as usize, doc.find("/></r>").unwrap() + 1);
        }
    }

    #[test]
    fn a_tag_of_many_attributes_parses_in_linear_time() {
        // The aim is 4 MiB of attributes in under 1 s. On a 2-vCPU host a
        // release build took 0.15 s for that, but the debug build `cargo
        // test` runs took 0.9 s, so this runs 512 KiB (53,540 attributes)
        // against 0.8 s: 0.16 s measured, 5x headroom. Comparing each name
        // with every earlier one took 24 s here (4.8 s in release).
        let mut doc = String::from("<a");
        let mut n = 0;
        while doc.len() < 512 << 10 {
            doc.push_str(&format!(" n{n}=''"));
            n += 1;
        }
        doc.push_str("/>");
        let start = std::time::Instant::now();
        let el = Element::parse(&doc).unwrap();
        let took = start.elapsed();
        assert_eq!(el.attrs().len(), n);
        assert!(took.as_secs_f64() < 0.8, "{n} attributes took {took:?}");
    }

    #[test]
    fn unterminated_tag_is_eof() {
        let mut t = Tokenizer::new("<a ");
        assert!(matches!(
            t.next_event(),
            Err(XmlError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn bad_entity_reported() {
        let mut t = Tokenizer::new("<a>&bogus;</a>");
        t.next_event().unwrap();
        assert!(matches!(t.next_event(), Err(XmlError::BadEntity { .. })));
    }

    #[test]
    fn namespaced_names_allowed() {
        let ev = events(r#"<soap:Envelope xmlns:soap="urn:x"/>"#);
        match &ev[0] {
            Event::StartTag { name, attrs, .. } => {
                assert_eq!(name, "soap:Envelope");
                assert_eq!(attrs[0].0, "xmlns:soap");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
