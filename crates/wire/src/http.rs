//! Minimal HTTP/1.0-style message framing.
//!
//! The portal servers of 2002 spoke plain HTTP/1.0 with `Content-Length`
//! bodies and one request per connection. This module implements exactly
//! that: enough HTTP for SOAP endpoints, WSDL fetches, and portlet content
//! proxying, with nothing speculative on top.
//!
//! One grammar reads every frame head and one writer writes it. Three
//! front ends feed the grammar: the incremental [`RequestParser`] of both
//! server arms, the blocking `read_from_buffered` readers, and a
//! whole-frame parse of a frame's own bytes (the in-memory transport).

use std::io::{self, BufRead, BufReader, Read, Write};

use crate::{Result, WireError};

/// Response status codes used by the portal stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200
    Ok,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 401
    Unauthorized,
    /// 500 — also used for SOAP faults, per SOAP-over-HTTP convention.
    InternalError,
    /// 503 — load shed: the server refused the request at an admission
    /// boundary (queue full, deadline spent) without running its handler.
    ServiceUnavailable,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::BadRequest => 400,
            Status::Unauthorized => 401,
            Status::NotFound => 404,
            Status::InternalError => 500,
            Status::ServiceUnavailable => 503,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::BadRequest => "Bad Request",
            Status::Unauthorized => "Unauthorized",
            Status::NotFound => "Not Found",
            Status::InternalError => "Internal Server Error",
            Status::ServiceUnavailable => "Service Unavailable",
        }
    }

    /// Map a numeric code back to a status (unknown codes become 500).
    pub fn from_code(code: u16) -> Status {
        match code {
            200 => Status::Ok,
            400 => Status::BadRequest,
            401 => Status::Unauthorized,
            404 => Status::NotFound,
            503 => Status::ServiceUnavailable,
            _ => Status::InternalError,
        }
    }
}

/// Standard HTTP header a shed response carries: whole seconds the client
/// should wait before retrying (always ≥ 1, rounded up).
pub const RETRY_AFTER_HEADER: &str = "Retry-After";

/// Millisecond-precision companion to [`RETRY_AFTER_HEADER`]; clients
/// prefer it when present so sub-second shed hints survive the round trip.
pub const RETRY_AFTER_MS_HEADER: &str = "X-Retry-After-Ms";

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Request path (with query string, if any).
    pub path: String,
    /// Headers in order; names case-preserved, matched case-insensitively.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Build a GET request.
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Build a POST request with a body.
    pub fn post(path: impl Into<String>, body: impl Into<Vec<u8>>) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Builder: add a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Request {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// First header value matching `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Path without the query string.
    pub fn path_only(&self) -> &str {
        self.path.split('?').next().unwrap_or(&self.path)
    }

    /// Parsed query parameters (`k=v` pairs after `?`, URL-decoding `%XX`
    /// and `+`).
    pub fn query_params(&self) -> Vec<(String, String)> {
        match self.path.split_once('?') {
            Some((_, q)) => parse_form(q),
            None => Vec::new(),
        }
    }

    /// Serialize into an existing buffer (appends; the caller owns
    /// clearing). Writes header lines directly into `out` — no per-line
    /// `String`s — so workers can reuse one scratch buffer across
    /// keep-alive requests.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        self.head_to(out);
        out.extend_from_slice(&self.body);
    }

    /// Serialize to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_into(&mut out);
        out
    }

    /// Exact length of [`Request::to_bytes`] without serializing —
    /// byte-accounting (and buffer pre-sizing) with no allocation.
    pub fn wire_len(&self) -> usize {
        let mut n = 0;
        self.head_to(&mut n);
        n + self.body.len()
    }

    fn head_to(&self, out: &mut impl HeadSink) {
        let start = [self.method.as_bytes(), self.path.as_bytes(), b"HTTP/1.0"];
        write_head(out, start, &self.headers, self.body.len());
    }

    /// Read one request from an existing buffered reader, leaving any
    /// bytes after it (a pipelined request) buffered there.
    pub fn read_from_buffered(reader: &mut impl BufRead) -> Result<Request> {
        read_buffered(reader)
    }

    /// Read one request from a stream.
    pub fn read_from(stream: impl Read) -> Result<Request> {
        read_buffered(&mut BufReader::new(stream))
    }
}

/// Upper bound on a frame head (start line + headers + the blank line
/// that ends them). A peer that sends more is not speaking the protocol:
/// every reader refuses the frame instead of buffering further.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Resumable, incremental HTTP request parser for nonblocking readers.
///
/// A server loop [`feed`](RequestParser::feed)s whatever bytes the socket
/// had and asks [`try_next`](RequestParser::try_next) whether a complete
/// request has accumulated. The internal buffer is the connection's *read
/// scratch*: it moves with the connection state (not the worker thread)
/// and keeps its capacity across keep-alive requests, so a warm
/// connection parses without reallocating. Pipelined bytes beyond the
/// first request simply remain buffered for the next `try_next` call. A
/// head is parsed once: while its body is still arriving, the parsed head
/// waits in the parser, so the calls between "head complete" and "body
/// complete" allocate nothing. While the head itself is arriving, each
/// call scans only the bytes fed since the last, so a head sent a few
/// bytes at a time costs time linear in its length.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// The head at the front of `buf`, once complete, until its body is.
    head: Option<Head<Request>>,
    /// Where the next scan for the end of the head resumes: no line
    /// ending before it ends the head.
    scanned: usize,
}

impl RequestParser {
    /// New empty parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Append bytes read off the wire.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when no unconsumed bytes are buffered — the state in which a
    /// peer close is a *clean* EOF rather than a truncated request.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes currently buffered (read scratch occupancy).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Capacity of the read scratch (for buffer-reuse accounting).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Try to parse one complete request out of the buffered bytes.
    ///
    /// * `Ok(Some(req))` — a full request was consumed; any pipelined
    ///   surplus stays buffered.
    /// * `Ok(None)` — the bytes so far are a valid *prefix*; feed more.
    /// * `Err(_)` — the bytes can never become a valid request (malformed
    ///   request line or header, bad or oversized Content-Length, or a
    ///   head past [`MAX_HEAD_BYTES`], terminated or not). The caller
    ///   should answer 400 and close.
    pub fn try_next(&mut self) -> Result<Option<Request>> {
        let head = match self.head.take() {
            Some(head) => head,
            None => match head_end(&self.buf, self.scanned)? {
                Some(end) => parse_head::<Request>(self.buf.get(..end).unwrap_or_default())?,
                None => {
                    self.scanned = self.buf.len();
                    return Ok(None);
                }
            },
        };
        let total = head.len + head.body_len;
        let Some(body) = self.buf.get(head.len..total) else {
            // Head complete, body still arriving.
            self.head = Some(head);
            return Ok(None);
        };
        let mut req = head.msg;
        req.body = body.to_vec();
        self.buf.drain(..total);
        self.scanned = 0;
        Ok(Some(req))
    }
}

/// Decide HTTP/1.0 connection persistence from a `Connection` header
/// value. The value is a comma-separated token list (RFC 7230 §6.1), so
/// `Connection: keep-alive, TE` requests keep-alive just as well as
/// `Connection: keep-alive` — and `close` anywhere in the list wins over
/// everything else. Absent header (or neither token) means close, the
/// HTTP/1.0 default.
pub fn wants_keep_alive(connection: Option<&str>) -> bool {
    let Some(value) = connection else {
        return false;
    };
    let mut keep = false;
    for token in value.split(',') {
        let token = token.trim();
        if token.eq_ignore_ascii_case("close") {
            return false;
        }
        if token.eq_ignore_ascii_case("keep-alive") {
            keep = true;
        }
    }
    keep
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status line code.
    pub status: Status,
    /// Headers in order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A 200 response with a body and content type.
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: Status::Ok,
            headers: vec![("Content-Type".into(), content_type.into())],
            body: body.into(),
        }
    }

    /// A 200 XML response (the common case for SOAP).
    pub fn xml(body: impl Into<Vec<u8>>) -> Response {
        Response::ok("text/xml; charset=utf-8", body)
    }

    /// A 200 HTML response (portlet content).
    pub fn html(body: impl Into<Vec<u8>>) -> Response {
        Response::ok("text/html; charset=utf-8", body)
    }

    /// An error response with a plain-text body.
    pub fn error(status: Status, msg: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain".into())],
            body: msg.into().into_bytes(),
        }
    }

    /// Builder: add a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// First header value matching `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Serialize into an existing buffer (appends; the caller owns
    /// clearing). The server's per-worker response scratch routes through
    /// this so a warm keep-alive connection serializes with zero
    /// allocations.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        self.head_to(out);
        out.extend_from_slice(&self.body);
    }

    /// Serialize to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_into(&mut out);
        out
    }

    /// Exact length of [`Response::to_bytes`] without serializing.
    pub fn wire_len(&self) -> usize {
        let mut n = 0;
        self.head_to(&mut n);
        n + self.body.len()
    }

    fn head_to(&self, out: &mut impl HeadSink) {
        let mut code = [0; 20];
        let code = decimal(self.status.code().into(), &mut code);
        let start = [b"HTTP/1.0", code, self.status.reason().as_bytes()];
        write_head(out, start, &self.headers, self.body.len());
    }

    /// Read one response from an existing buffered reader (the form for
    /// connections carrying several responses: a fresh `BufReader` per
    /// response could read ahead and drop the next frame's bytes).
    pub fn read_from_buffered(reader: &mut impl BufRead) -> Result<Response> {
        read_buffered(reader)
    }

    /// Read one response from a stream.
    pub fn read_from(stream: impl Read) -> Result<Response> {
        read_buffered(&mut BufReader::new(stream))
    }

    /// Write serialized bytes to a stream.
    pub fn write_to(&self, mut stream: impl Write) -> Result<()> {
        stream.write_all(&self.to_bytes())?;
        stream.flush()?;
        Ok(())
    }

    /// A `400 Bad Request` carrying a minimal SOAP fault envelope, written
    /// to a client whose bytes consumed off the wire failed to parse as a
    /// request. The wire crate cannot depend on the soap crate (the
    /// dependency runs the other way), so the envelope is assembled
    /// inline; it parses as a client fault through `soap::Envelope`.
    pub fn bad_request_fault(detail: &str) -> Response {
        let msg = xml_escape_text(detail);
        let body = format!(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
             <SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\">\
             <SOAP-ENV:Body><SOAP-ENV:Fault>\
             <faultcode>SOAP-ENV:Client</faultcode>\
             <faultstring>malformed HTTP request: {msg}</faultstring>\
             </SOAP-ENV:Fault></SOAP-ENV:Body></SOAP-ENV:Envelope>"
        );
        Response {
            status: Status::BadRequest,
            headers: vec![
                ("Content-Type".into(), "text/xml; charset=utf-8".into()),
                ("Connection".into(), "close".into()),
            ],
            body: body.into_bytes(),
        }
    }

    /// A `503 Service Unavailable` load-shed fault: the server refused the
    /// request at an admission boundary (accept/request queue full)
    /// without dispatching it. Carries both [`RETRY_AFTER_HEADER`] (whole
    /// seconds, HTTP-standard) and [`RETRY_AFTER_MS_HEADER`] (exact), and
    /// a SOAP fault envelope whose `<detail><portalError>` carries code
    /// `BUSY`, so `soap::Envelope::parse(...).as_fault()` yields the typed
    /// kind. Keep-alive is preserved: shedding defends capacity, and
    /// tearing down the connection would only force a redial on retry.
    pub fn shed_fault(detail: &str, retry_after_ms: u64) -> Response {
        Response::admission_fault("BUSY", "server at capacity", detail, retry_after_ms)
    }

    /// A `503` deadline-admission fault: the request's `X-Deadline-Ms`
    /// budget was already spent when the server got to it, so the handler
    /// never ran. Carries portal error code `DEADLINE_EXCEEDED` and no
    /// retry hint headers — the budget is gone; retrying is the caller's
    /// decision, not a pacing problem.
    pub fn deadline_fault(detail: &str) -> Response {
        Response::admission_fault("DEADLINE_EXCEEDED", "deadline budget spent", detail, 0)
    }

    /// Shared body builder for the admission faults. `retry_after_ms == 0`
    /// means "no retry hint" (the deadline case).
    fn admission_fault(code: &str, summary: &str, detail: &str, retry_after_ms: u64) -> Response {
        let msg = xml_escape_text(detail);
        let body = format!(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
             <SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\">\
             <SOAP-ENV:Body><SOAP-ENV:Fault>\
             <faultcode>SOAP-ENV:Server</faultcode>\
             <faultstring>{summary}: {msg}</faultstring>\
             <detail><portalError><code>{code}</code>\
             <message>{summary}: {msg}</message></portalError></detail>\
             </SOAP-ENV:Fault></SOAP-ENV:Body></SOAP-ENV:Envelope>"
        );
        let mut resp = Response {
            status: Status::ServiceUnavailable,
            headers: vec![("Content-Type".into(), "text/xml; charset=utf-8".into())],
            body: body.into_bytes(),
        };
        if retry_after_ms > 0 {
            resp = resp
                .with_header(
                    RETRY_AFTER_HEADER,
                    retry_after_ms.div_ceil(1000).to_string(),
                )
                .with_header(RETRY_AFTER_MS_HEADER, retry_after_ms.to_string());
        }
        resp
    }
}

/// Minimal XML text escaping for the inline fault bodies — these are cold
/// error paths assembling a full envelope string anyway, so the substrate
/// escaper (and its fast-path counters) stays out of them.
fn xml_escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

fn header_lookup<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Upper bound on a declared `Content-Length`. The portal frames SOAP
/// envelopes and portlet fragments, not bulk transfers; a peer declaring
/// more than this is sending a malformed (or hostile) frame, and honoring
/// it would turn one header into an arbitrary allocation.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// The one head writer: the start line's three words, every header but a
/// caller's `Content-Length` (the length is always the body's), then
/// `Content-Length` and the blank line. Into a `Vec` it serializes; into
/// a count it measures, so `wire_len` is what `write_into` writes.
// portalint: hot-path-entry
fn write_head(
    out: &mut impl HeadSink,
    [a, b, c]: [&[u8]; 3],
    headers: &[(String, String)],
    body_len: usize,
) {
    let mut digits = [0; 20];
    let len = decimal(body_len, &mut digits);
    out.put_head(&[a, b" ", b, b" ", c, b"\r\n"]);
    for (k, v) in headers {
        if !k.eq_ignore_ascii_case("content-length") {
            out.put_head(&[k.as_bytes(), b": ", v.as_bytes(), b"\r\n"]);
        }
    }
    out.put_head(&[b"Content-Length: ", len, b"\r\n\r\n"]);
}

/// Where [`write_head`] puts a head: a buffer keeps its bytes, a count
/// only their number.
trait HeadSink {
    fn put_head(&mut self, pieces: &[&[u8]]);
}

impl HeadSink for Vec<u8> {
    fn put_head(&mut self, pieces: &[&[u8]]) {
        pieces
            .iter()
            .for_each(|piece| self.extend_from_slice(piece));
    }
}

impl HeadSink for usize {
    fn put_head(&mut self, pieces: &[&[u8]]) {
        *self += pieces.iter().map(|piece| piece.len()).sum::<usize>();
    }
}

/// `n` in decimal, in `buf` (20 digits hold any `usize`).
fn decimal(n: usize, buf: &mut [u8; 20]) -> &[u8] {
    let mut rest = buf.as_mut_slice();
    let _ = write!(rest, "{n}");
    let len = 20 - rest.len();
    buf.split_at(len).0
}

/// What tells a request frame from a response frame: its start line.
/// Everything else in a head is [`parse_head`]'s one grammar.
pub(crate) trait Message: Sized {
    /// The message a head's start line and headers make, body still empty.
    fn from_head(start: &str, headers: Vec<(String, String)>) -> Result<Self>;
    /// Where the body goes.
    fn body_mut(&mut self) -> &mut Vec<u8>;
}

impl Message for Request {
    fn from_head(start: &str, headers: Vec<(String, String)>) -> Result<Request> {
        let mut words = start.split_whitespace();
        let method = words
            .next()
            .ok_or_else(|| bad_frame("empty request line"))?;
        let path = words
            .next()
            .ok_or_else(|| bad_frame("request line missing path"))?;
        Ok(Request {
            method: method.to_owned(),
            path: path.to_owned(),
            headers,
            body: Vec::new(),
        })
    }

    fn body_mut(&mut self) -> &mut Vec<u8> {
        &mut self.body
    }
}

impl Message for Response {
    fn from_head(start: &str, headers: Vec<(String, String)>) -> Result<Response> {
        let mut words = start.split_whitespace();
        words.next().ok_or_else(|| bad_frame("empty status line"))?;
        let code = words.next().and_then(|c| c.parse().ok());
        let code = code.ok_or_else(|| bad_frame("status line missing code"))?;
        Ok(Response {
            status: Status::from_code(code),
            headers,
            body: Vec::new(),
        })
    }

    fn body_mut(&mut self) -> &mut Vec<u8> {
        &mut self.body
    }
}

/// A parsed frame head.
#[derive(Debug)]
struct Head<M> {
    /// The message it makes, body still empty.
    msg: M,
    /// Bytes in the head, blank last line included: where the body starts.
    len: usize,
    /// Declared body length.
    body_len: usize,
}

/// Whether `prefix` ends a head: its last line is blank (`\n\n` or
/// `\n\r\n`). Bare `\n` line endings are accepted alongside `\r\n`.
fn ends_head(prefix: &[u8]) -> bool {
    prefix.ends_with(b"\n\n") || prefix.ends_with(b"\n\r\n")
}

/// Where the head at the front of `buf` ends, if `buf` holds all of it:
/// `Ok(None)` while the bytes could still become a head within
/// [`MAX_HEAD_BYTES`], an error once they cannot. The scan looks at line
/// endings from `from` on, the bytes before `from` holding none that ends
/// the head; each is checked against the bytes before it, so a blank line
/// split across two feeds is found whichever feed brought its `\n`.
fn head_end(buf: &[u8], from: usize) -> Result<Option<usize>> {
    let fresh = buf.iter().enumerate().skip(from);
    let line_ends = fresh.filter(|&(_, &b)| b == b'\n');
    let end = line_ends
        .map(|(i, _)| i + 1)
        .find(|&n| buf.get(..n).is_some_and(ends_head));
    if end.unwrap_or(buf.len()) > MAX_HEAD_BYTES {
        return Err(head_over_cap());
    }
    Ok(end)
}

fn head_over_cap() -> WireError {
    WireError::BadFrame(format!("frame head exceeds the {MAX_HEAD_BYTES}-byte cap"))
}

fn bad_frame(msg: &str) -> WireError {
    WireError::BadFrame(msg.into())
}

/// The one head grammar, for requests and responses alike. `head` is a
/// whole head ([`ends_head`]): UTF-8, split into lines at `\n` with
/// trailing `\r`s dropped; the start line first, then `name: value`
/// lines, each side trimmed (blank lines carry nothing); the body length
/// from [`declared_content_length`].
fn parse_head<M: Message>(head: &[u8]) -> Result<Head<M>> {
    let text = std::str::from_utf8(head).map_err(|_| bad_frame("frame head is not UTF-8"))?;
    let mut lines = text.split('\n').map(|l| l.trim_end_matches('\r'));
    let start = lines.next().unwrap_or_default();
    let mut headers = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| WireError::BadFrame(format!("malformed header line {line:?}")))?;
        headers.push((k.trim().to_owned(), v.trim().to_owned()));
    }
    let body_len = declared_content_length(&headers)?;
    Ok(Head {
        msg: M::from_head(start, headers)?,
        len: head.len(),
        body_len,
    })
}

/// The blocking front end: the head read a line at a time into one buffer,
/// never past [`MAX_HEAD_BYTES`] (so a peer that never ends a line cannot
/// grow it without bound); the body read into capacity reserved for its
/// declared length, with no zero-fill before the copy.
fn read_buffered<M: Message>(reader: &mut impl BufRead) -> Result<M> {
    // Room for a typical head; a longer one grows the buffer.
    let mut buf = Vec::with_capacity(256);
    while !ends_head(&buf) {
        // One byte past the room left, so a line that overruns the cap shows.
        let room = (MAX_HEAD_BYTES + 1).saturating_sub(buf.len()) as u64;
        if reader.by_ref().take(room).read_until(b'\n', &mut buf)? == 0 {
            return Err(bad_frame("eof before end of headers"));
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(head_over_cap());
        }
    }
    let mut head = parse_head::<M>(&buf)?;
    let body = head.msg.body_mut();
    body.reserve_exact(head.body_len);
    reader.take(head.body_len as u64).read_to_end(body)?;
    if body.len() < head.body_len {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(head.msg)
}

/// The whole-frame front end: `frame` holds one frame (bytes past its end
/// are dropped), parsed where it lies. The body moves to the front of the
/// same allocation, which the message keeps, so parsing a serialized
/// message leaves one copy of it, not two.
pub(crate) fn parse_frame<M: Message>(mut frame: Vec<u8>) -> Result<M> {
    let end = head_end(&frame, 0)?.ok_or_else(|| bad_frame("eof before end of headers"))?;
    let mut head = parse_head::<M>(frame.get(..end).unwrap_or_default())?;
    if frame.len() - end < head.body_len {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    frame.drain(..end);
    frame.truncate(head.body_len);
    *head.msg.body_mut() = frame;
    Ok(head.msg)
}

/// Validated body length from a parsed header list. Rejects duplicate
/// `Content-Length` headers outright (even when the values agree): taking
/// "the first match" while a peer or proxy takes the other is the
/// request-smuggling shape, and our own serializers never emit more than
/// one. Also rejects unparseable values and declarations over
/// [`MAX_BODY_BYTES`] *before* any allocation.
fn declared_content_length(headers: &[(String, String)]) -> Result<usize> {
    let mut declared: Option<&str> = None;
    for (k, v) in headers {
        if k.eq_ignore_ascii_case("content-length") {
            if let Some(prev) = declared {
                return Err(WireError::BadFrame(format!(
                    "duplicate Content-Length headers ({prev:?}, {v:?})"
                )));
            }
            declared = Some(v);
        }
    }
    let len: usize = match declared {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| WireError::BadFrame(format!("unparseable Content-Length {v:?}")))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(WireError::BadFrame(format!(
            "Content-Length {len} exceeds the {MAX_BODY_BYTES}-byte frame cap"
        )));
    }
    Ok(len)
}

/// Percent-decode one URL-encoded component.
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&cur) = bytes.get(i) {
        match cur {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                if let (Some(h), Some(l)) = (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    out.push((h * 16 + l) as u8);
                    i += 3;
                } else {
                    // Stray '%' without two hex digits: pass through.
                    out.push(b'%');
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encode one URL component.
pub fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Parse `application/x-www-form-urlencoded` content into pairs.
pub fn parse_form(s: &str) -> Vec<(String, String)> {
    s.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (url_decode(k), url_decode(v)),
            None => (url_decode(kv), String::new()),
        })
        .collect()
}

/// Encode pairs as `application/x-www-form-urlencoded` content.
pub fn encode_form(pairs: &[(String, String)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| format!("{}={}", url_encode(k), url_encode(v)))
        .collect::<Vec<_>>()
        .join("&")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = Request::post("/soap/jobsub", "<x/>").with_header("X-Session", "abc");
        let bytes = req.to_bytes();
        let parsed = Request::read_from(&bytes[..]).unwrap();
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.path, "/soap/jobsub");
        assert_eq!(parsed.header("x-session"), Some("abc"));
        assert_eq!(parsed.body_str(), "<x/>");
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::xml("<ok/>").with_header("X-Trace", "1");
        let parsed = Response::read_from(&resp.to_bytes()[..]).unwrap();
        assert_eq!(parsed.status, Status::Ok);
        assert_eq!(parsed.header("X-TRACE"), Some("1"));
        assert_eq!(parsed.body_str(), "<ok/>");
    }

    #[test]
    fn content_length_recomputed() {
        let req = Request::post("/p", "1234").with_header("Content-Length", "999");
        let parsed = Request::read_from(&req.to_bytes()[..]).unwrap();
        assert_eq!(parsed.body.len(), 4);
    }

    #[test]
    fn empty_body_get() {
        let req = Request::get("/wsdl/scriptgen?q=1");
        let parsed = Request::read_from(&req.to_bytes()[..]).unwrap();
        assert_eq!(parsed.path_only(), "/wsdl/scriptgen");
        assert_eq!(parsed.query_params(), vec![("q".into(), "1".into())]);
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn status_codes() {
        assert_eq!(Status::from_code(404), Status::NotFound);
        assert_eq!(Status::from_code(200).reason(), "OK");
        assert_eq!(Status::from_code(599), Status::InternalError);
    }

    #[test]
    fn url_codec_round_trip() {
        let s = "a b&c=d/100%";
        assert_eq!(url_decode(&url_encode(s)), s);
    }

    #[test]
    fn form_codec() {
        let pairs = vec![
            ("host".to_string(), "tg login".to_string()),
            ("cmd".to_string(), "qsub -q a&b".to_string()),
        ];
        assert_eq!(parse_form(&encode_form(&pairs)), pairs);
    }

    #[test]
    fn wire_len_matches_serialization_exactly() {
        let cases = [
            Request::get("/wsdl?svc=jobsub"),
            Request::post("/soap/jobsub", "<x/>").with_header("X-Session", "abc"),
            Request::post("/p", vec![0u8; 1000]).with_header("Content-Length", "999"),
            Request::post("/p", Vec::new()),
        ];
        for req in cases {
            assert_eq!(req.wire_len(), req.to_bytes().len(), "{req:?}");
        }
        let responses = [
            Response::xml("<ok/>").with_header("X-Trace", "1"),
            Response::error(Status::NotFound, "no route"),
            Response::ok("text/plain", vec![7u8; 12345]),
        ];
        for resp in responses {
            assert_eq!(resp.wire_len(), resp.to_bytes().len(), "{resp:?}");
        }
    }

    #[test]
    fn write_into_appends() {
        let req = Request::post("/a", "body").with_header("K", "v");
        let mut buf = b"prefix".to_vec();
        req.write_into(&mut buf);
        assert_eq!(&buf[..6], b"prefix");
        assert_eq!(&buf[6..], &req.to_bytes()[..]);

        let resp = Response::xml("<r/>");
        let mut buf = Vec::new();
        resp.write_into(&mut buf);
        buf.clear();
        resp.write_into(&mut buf); // reuse after clear: same bytes
        assert_eq!(buf, resp.to_bytes());
    }

    #[test]
    fn keep_alive_token_list_parsed() {
        // Regression: the value used to be matched as one case-insensitive
        // token, so a legal list like `keep-alive, TE` silently disabled
        // keep-alive and `close` was never recognized explicitly.
        assert!(wants_keep_alive(Some("keep-alive")));
        assert!(wants_keep_alive(Some("Keep-Alive")));
        assert!(wants_keep_alive(Some("keep-alive, TE")));
        assert!(wants_keep_alive(Some("TE , Keep-Alive")));
        assert!(!wants_keep_alive(Some("close")));
        assert!(!wants_keep_alive(Some("Close")));
        assert!(!wants_keep_alive(Some("keep-alive, close")));
        assert!(!wants_keep_alive(Some("close, keep-alive")));
        assert!(!wants_keep_alive(Some("TE")));
        assert!(!wants_keep_alive(Some("")));
        assert!(!wants_keep_alive(None));
    }

    #[test]
    fn every_split_of_a_pipelined_pair_yields_the_same_two_requests() {
        let first = Request::post("/soap/DataManagement", "<put>chunk one</put>")
            .with_header("Connection", "keep-alive");
        let second = Request::post("/soap/Authentication", "<verify/>").with_header("X-A", "b");
        let stream = [first.to_bytes(), second.to_bytes()].concat();
        let drain = |parser: &mut RequestParser, out: &mut Vec<Request>| {
            while let Some(req) = parser.try_next().unwrap() {
                out.push(req);
            }
        };
        let mut whole = RequestParser::new();
        let mut want = Vec::new();
        whole.feed(&stream);
        drain(&mut whole, &mut want);
        assert_eq!(want.len(), 2);
        for split in 0..=stream.len() {
            let mut parser = RequestParser::new();
            let mut got = Vec::new();
            parser.feed(&stream[..split]);
            drain(&mut parser, &mut got);
            parser.feed(&stream[split..]);
            drain(&mut parser, &mut got);
            assert_eq!(got, want, "split at {split}");
            assert!(parser.is_empty(), "split at {split}");
            // The blocking reader sees the first `split` bytes arrive, then
            // the rest.
            let mut reader = BufReader::new((&stream[..split]).chain(&stream[split..]));
            for want in &want {
                let got = Request::read_from_buffered(&mut reader).unwrap();
                assert_eq!(&got, want, "split at {split}");
            }
        }
        let responses = [
            Response::xml("<ok/>"),
            Response::error(Status::NotFound, "gone"),
        ];
        let stream = [responses[0].to_bytes(), responses[1].to_bytes()].concat();
        for split in 0..=stream.len() {
            let mut reader = BufReader::new((&stream[..split]).chain(&stream[split..]));
            for want in &responses {
                let got = Response::read_from_buffered(&mut reader).unwrap();
                assert_eq!((got.status, &got.body), (want.status, &want.body));
            }
        }
        // The whole-frame parse takes the first frame and drops the rest.
        assert_eq!(parse_frame::<Response>(stream).unwrap().body, b"<ok/>");
    }

    #[test]
    fn a_pipelined_pair_fed_a_byte_at_a_time_yields_the_same_two_requests() {
        // `\r\n` and bare `\n` heads, so every blank line is split across
        // feeds at each of its bytes.
        let crlf = [
            Request::post("/soap/DataManagement", "<put>one</put>").to_bytes(),
            Request::post("/soap/Authentication", "<verify/>").to_bytes(),
        ]
        .concat();
        let bare = b"POST /a HTTP/1.0\nContent-Length: 3\n\nonePOST /b HTTP/1.0\n\n".to_vec();
        for stream in [crlf, bare] {
            let mut whole = RequestParser::new();
            whole.feed(&stream);
            let want = [whole.try_next().unwrap(), whole.try_next().unwrap()];
            assert!(want.iter().all(Option::is_some));
            let mut parser = RequestParser::new();
            let mut got = Vec::new();
            for byte in &stream {
                parser.feed(std::slice::from_ref(byte));
                while let Some(req) = parser.try_next().unwrap() {
                    got.push(Some(req));
                }
            }
            assert_eq!(got, want);
            assert!(parser.is_empty());
        }
    }

    #[test]
    fn an_unterminated_head_fed_in_pieces_is_scanned_once() {
        // 60 KB of header lines, 4 bytes per feed: each call resumes where
        // the last left off, so each byte is examined once, not once per
        // later feed.
        let line = b"X-Filler: 0123456789abcdef0123456789abcdef0123456789abcdef\r\n";
        let head = [
            &b"POST /soap/x HTTP/1.0\r\n"[..],
            &line.repeat(60_000 / line.len()),
        ]
        .concat();
        let mut parser = RequestParser::new();
        let mut examined = 0;
        for piece in head.chunks(4) {
            let from = parser.scanned;
            parser.feed(piece);
            assert!(parser.try_next().unwrap().is_none());
            examined += parser.buffered() - from;
            assert_eq!(parser.scanned, parser.buffered());
        }
        assert_eq!(examined, head.len());
        // The blank line ends it, and the next head scans from its start.
        parser.feed(b"\r\n");
        let req = parser.try_next().unwrap().expect("head complete");
        assert_eq!(req.headers.len(), 60_000 / line.len());
        assert_eq!((parser.scanned, parser.buffered()), (0, 0));
    }

    #[test]
    fn head_end_looks_at_no_line_ending_before_where_it_resumes() {
        // The parser's `scanned` offset is only worth keeping if the scan
        // honours it: a blank line whose last `\n` lies before `from` is
        // not found again, one at or after it is, whichever bytes precede.
        for head in [&b"A\n\n"[..], b"POST / HTTP/1.0\r\nX: y\r\n\r\n"] {
            let last = head.len() - 1;
            assert_eq!(head_end(head, 0).unwrap(), Some(head.len()));
            assert_eq!(head_end(head, last).unwrap(), Some(head.len()));
            assert_eq!(head_end(head, last + 1).unwrap(), None);
        }
        // A line ending after `from` is checked against the bytes before
        // `from`, so a blank line split across two feeds is found.
        assert_eq!(head_end(b"A\r\n\r\nB", 4).unwrap(), Some(5));
        assert_eq!(head_end(b"A\r\n\r\nB", 5).unwrap(), None);
    }

    #[test]
    fn incremental_parser_single_request_byte_by_byte() {
        let req = Request::post("/soap/jobsub", "<x/>").with_header("X-Session", "abc");
        let bytes = req.to_bytes();
        let mut parser = RequestParser::new();
        for (i, b) in bytes.iter().enumerate() {
            parser.feed(std::slice::from_ref(b));
            let out = parser.try_next().unwrap();
            if i + 1 < bytes.len() {
                assert!(out.is_none(), "complete at byte {i} of {}", bytes.len());
            } else {
                let parsed = out.expect("complete at final byte");
                assert_eq!(parsed.method, "POST");
                assert_eq!(parsed.path, "/soap/jobsub");
                assert_eq!(parsed.header("x-session"), Some("abc"));
                assert_eq!(parsed.body_str(), "<x/>");
            }
        }
        assert!(parser.is_empty());
        assert!(parser.try_next().unwrap().is_none());
    }

    #[test]
    fn incremental_parser_reuses_buffer_capacity() {
        let req = Request::post("/x", "fixed-size-payload").to_bytes();
        let mut parser = RequestParser::new();
        parser.feed(&req);
        assert!(parser.try_next().unwrap().is_some());
        let warm = parser.capacity();
        for _ in 0..32 {
            parser.feed(&req);
            assert!(parser.try_next().unwrap().is_some());
        }
        assert_eq!(parser.capacity(), warm, "read scratch must not regrow");
    }

    #[test]
    fn bad_request_fault_is_a_soap_fault_on_400() {
        let resp = Response::bad_request_fault("bad frame: <garbage> & more");
        assert_eq!(resp.status, Status::BadRequest);
        assert_eq!(resp.header("Connection"), Some("close"));
        let body = resp.body_str();
        assert!(body.contains("SOAP-ENV:Fault"), "{body}");
        assert!(body.contains("&lt;garbage&gt; &amp; more"), "{body}");
        // It must survive its own framing round trip.
        let parsed = Response::read_from(&resp.to_bytes()[..]).unwrap();
        assert_eq!(parsed.status, Status::BadRequest);
    }

    #[test]
    fn shed_fault_carries_retry_hints_and_typed_detail() {
        let resp = Response::shed_fault("accept queue full (cap 8)", 250);
        assert_eq!(resp.status, Status::ServiceUnavailable);
        assert_eq!(resp.status.code(), 503);
        // Whole-second hint rounds up; the ms companion is exact.
        assert_eq!(resp.header(RETRY_AFTER_HEADER), Some("1"));
        assert_eq!(resp.header(RETRY_AFTER_MS_HEADER), Some("250"));
        // Keep-alive survives a shed: no forced close.
        assert_eq!(resp.header("Connection"), None);
        let body = resp.body_str();
        assert!(body.contains("SOAP-ENV:Fault"), "{body}");
        assert!(body.contains("<code>BUSY</code>"), "{body}");
        assert!(body.contains("accept queue full"), "{body}");
        let parsed = Response::read_from(&resp.to_bytes()[..]).unwrap();
        assert_eq!(parsed.status, Status::ServiceUnavailable);
        assert_eq!(parsed.header(RETRY_AFTER_MS_HEADER), Some("250"));
    }

    #[test]
    fn deadline_fault_has_no_retry_hint() {
        let resp = Response::deadline_fault("budget of 5 ms spent before dispatch");
        assert_eq!(resp.status, Status::ServiceUnavailable);
        assert_eq!(resp.header(RETRY_AFTER_HEADER), None);
        assert_eq!(resp.header(RETRY_AFTER_MS_HEADER), None);
        let body = resp.body_str();
        assert!(body.contains("<code>DEADLINE_EXCEEDED</code>"), "{body}");
        assert!(body.contains("budget of 5 ms spent"), "{body}");
    }

    /// A request's or a response's headers and body.
    type Parts = (Vec<(String, String)>, Vec<u8>);

    /// What every reader makes of `rest` after a request line and after a
    /// status line, both 15 bytes long: the parts it read, the parser's
    /// `None` for a prefix it waits on, or an error.
    fn read_all(rest: &[u8]) -> Vec<(&'static str, Result<Option<Parts>>)> {
        let req = [b"POST / HTTP/1.0", rest].concat();
        let resp = [b"HTTP/1.0 200 OK", rest].concat();
        let mut parser = RequestParser::new();
        parser.feed(&req);
        let req_parts = |r: Request| Some((r.headers, r.body));
        let resp_parts = |r: Response| Some((r.headers, r.body));
        vec![
            ("parser", parser.try_next().map(|r| r.and_then(req_parts))),
            (
                "request reader",
                Request::read_from(&req[..]).map(req_parts),
            ),
            ("request frame", parse_frame(req).map(req_parts)),
            (
                "response reader",
                Response::read_from(&resp[..]).map(resp_parts),
            ),
            ("response frame", parse_frame(resp).map(resp_parts)),
        ]
    }

    #[test]
    fn every_reader_frames_heads_by_the_one_grammar() {
        let pad = |len: usize, end: &str| format!("\r\nX-Pad: {}{end}", "a".repeat(len - 28));
        let length = |n: usize| format!("\r\nContent-Length: {n}\r\n\r\n");
        let (at_cap, over_cap) = (
            pad(MAX_HEAD_BYTES, "\r\n\r\n"),
            pad(MAX_HEAD_BYTES + 1, "\r\n\r\n"),
        );
        let (open_at_cap, open_over_cap) =
            (pad(MAX_HEAD_BYTES, "aaaa"), pad(MAX_HEAD_BYTES + 1, "aaaa"));
        let (body_at_cap, body_over_cap) = (length(MAX_BODY_BYTES), length(MAX_BODY_BYTES + 1));
        // The rest of a frame after its start line, and what every reader
        // makes of it; before a `|`, what the parser makes of it instead.
        let cases: [(&[u8], &str); 17] = [
            (b"\r\nContent-Length: 4\r\n\r\nbody", "body=body"),
            (b"\nContent-Length: 2\n\nhi", "body=hi"),
            // A line of carriage returns alone is a blank line inside the
            // head, not its end: the header after it still counts.
            (b"\r\n\r\r\nContent-Length: 2\r\n\r\nhi", "body=hi"),
            (b"\r\nX-A: \xff\r\n\r\n", "not UTF-8"),
            (b"\r\nbadheader\r\n\r\n", "malformed header"),
            (
                b"\r\nContent-Length: 4\r\nContent-Length: 9\r\n\r\nbodybytes",
                "duplicate Content-Length",
            ),
            (
                b"\r\ncontent-length: 4\r\nContent-Length: 4\r\n\r\nbody",
                "duplicate Content-Length",
            ),
            (
                b"\r\nContent-Length: abc\r\n\r\n",
                "unparseable Content-Length",
            ),
            (
                b"\r\nContent-Length: -1\r\n\r\n",
                "unparseable Content-Length",
            ),
            (
                b"\r\nContent-Length: 1e9\r\n\r\n",
                "unparseable Content-Length",
            ),
            (
                b"\r\nContent-Length: 18446744073709551616\r\n\r\n",
                "unparseable Content-Length",
            ),
            (body_over_cap.as_bytes(), "frame cap"),
            // At the cap the frame is honest, merely truncated.
            (body_at_cap.as_bytes(), "prefix|end of file"),
            (at_cap.as_bytes(), "body="),
            (open_at_cap.as_bytes(), "prefix|eof before end of headers"),
            (over_cap.as_bytes(), "head exceeds"),
            (open_over_cap.as_bytes(), "head exceeds"),
        ];
        for (rest, want) in cases {
            let (parser_sees, readers_see) = want.split_once('|').unwrap_or((want, want));
            for (reader, result) in read_all(rest) {
                let got = match result {
                    Ok(Some((_, body))) => format!("body={}", String::from_utf8_lossy(&body)),
                    Ok(None) => "prefix".into(),
                    Err(e) => e.to_string(),
                };
                let want = if reader == "parser" {
                    parser_sees
                } else {
                    readers_see
                };
                let matched = got == want || !want.starts_with("body=") && got.contains(want);
                let shown = String::from_utf8_lossy(&rest[..rest.len().min(48)]);
                assert!(matched, "{reader} on {shown:?}: {got}");
            }
        }
    }

    #[test]
    fn every_truncation_is_a_prefix_to_the_parser_and_an_error_to_the_readers() {
        let requests = [
            Request::post("/p", "full body"),
            Request::get("/wsdl/scriptgen?q=1"),
            Request::post("/bin", (0u8..=255).collect::<Vec<_>>()).with_header("X-K", "v"),
        ];
        for bytes in requests.iter().map(Request::to_bytes) {
            for cut in 0..bytes.len() {
                let mut parser = RequestParser::new();
                parser.feed(&bytes[..cut]);
                assert!(matches!(parser.try_next(), Ok(None)), "cut {cut}");
                assert!(Request::read_from(&bytes[..cut]).is_err(), "cut {cut}");
                assert!(parse_frame::<Request>(bytes[..cut].to_vec()).is_err());
            }
        }
        for bytes in [Response::xml("<ok>payload</ok>"), Response::xml("")].map(|r| r.to_bytes()) {
            for cut in 0..bytes.len() {
                assert!(Response::read_from(&bytes[..cut]).is_err(), "cut {cut}");
                assert!(parse_frame::<Response>(bytes[..cut].to_vec()).is_err());
            }
        }
    }

    #[test]
    fn whole_frame_parse_keeps_the_frame_allocation() {
        let frame = Request::post("/p", vec![7u8; 4096]).to_bytes();
        let at = frame.as_ptr();
        let req = parse_frame::<Request>(frame).unwrap();
        assert_eq!(req.body, vec![7u8; 4096]);
        assert_eq!(req.body.as_ptr(), at, "the body is the frame's own buffer");
    }

    mod framing_props {
        use super::*;
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn request_frames_round_trip(
                method in "[A-Z]{3,7}",
                path in "/[a-z0-9/]{0,20}",
                names in pvec("[A-Za-z][A-Za-z0-9-]{0,10}", 0..4),
                values in pvec("[ -~]{0,24}", 0..4),
                body in pvec(any::<u8>(), 0..512),
            ) {
                let mut req = Request { method, path, headers: Vec::new(), body };
                for (k, v) in names.iter().zip(values.iter()) {
                    // Header values are trimmed on read; keep them trimmed
                    // on write so equality is exact.
                    req.headers.push((k.clone(), v.trim().to_owned()));
                }
                prop_assert_eq!(req.wire_len(), req.to_bytes().len());
                let parsed = Request::read_from(&req.to_bytes()[..]).unwrap();
                prop_assert_eq!(parsed.method, req.method);
                prop_assert_eq!(parsed.path, req.path);
                // to_bytes appends the recomputed Content-Length; everything
                // the caller set must survive verbatim.
                let without_cl: Vec<_> = parsed
                    .headers
                    .into_iter()
                    .filter(|(k, _)| !k.eq_ignore_ascii_case("content-length"))
                    .collect();
                prop_assert_eq!(without_cl, req.headers);
                prop_assert_eq!(parsed.body, req.body);
            }

            #[test]
            fn response_frames_round_trip(
                code in prop_oneof![Just(200u16), Just(400), Just(401), Just(404), Just(500)],
                body in pvec(any::<u8>(), 0..512),
            ) {
                let resp = Response {
                    status: Status::from_code(code),
                    headers: vec![("Content-Type".into(), "text/xml".into())],
                    body,
                };
                let parsed = Response::read_from(&resp.to_bytes()[..]).unwrap();
                prop_assert_eq!(parsed.status, resp.status);
                prop_assert_eq!(parsed.body, resp.body);
            }

            #[test]
            fn url_codec_round_trips(s in "[ -~]{0,40}") {
                prop_assert_eq!(url_decode(&url_encode(&s)), s);
            }

        }
    }
}
