//! Minimal HTTP/1.0-style message framing.
//!
//! The portal servers of 2002 spoke plain HTTP/1.0 with `Content-Length`
//! bodies and one request per connection. This module implements exactly
//! that: enough HTTP for SOAP endpoints, WSDL fetches, and portlet content
//! proxying, with nothing speculative on top.

use std::io::{BufRead, BufReader, Read, Write};

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
    // portalint: hot-path-entry
    pub fn write_into(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        // Writes to a Vec<u8> cannot fail.
        let _ = write!(out, "{} {} HTTP/1.0\r\n", self.method, self.path);
        for (k, v) in &self.headers {
            if k.eq_ignore_ascii_case("content-length") {
                continue; // always recomputed
            }
            let _ = write!(out, "{k}: {v}\r\n");
        }
        let _ = write!(out, "Content-Length: {}\r\n\r\n", self.body.len());
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
        let mut n = self.method.len() + 1 + self.path.len() + " HTTP/1.0\r\n".len();
        for (k, v) in &self.headers {
            if k.eq_ignore_ascii_case("content-length") {
                continue;
            }
            n += k.len() + 2 + v.len() + 2;
        }
        n + "Content-Length: ".len() + decimal_digits(self.body.len()) + 4 + self.body.len()
    }

    /// Read one request from an existing buffered reader. Keep-alive
    /// serving uses this with one [`BufReader`] per connection, so the
    /// read buffer (and any pipelined bytes it holds) survives across
    /// requests.
    pub fn read_from_buffered(reader: &mut impl BufRead) -> Result<Request> {
        let (line, headers, body) = read_frame(reader)?;
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| WireError::BadFrame("empty request line".into()))?
            .to_owned();
        let path = parts
            .next()
            .ok_or_else(|| WireError::BadFrame("request line missing path".into()))?
            .to_owned();
        Ok(Request {
            method,
            path,
            headers,
            body,
        })
    }

    /// Read one request from a stream.
    pub fn read_from(stream: impl Read) -> Result<Request> {
        Request::read_from_buffered(&mut BufReader::new(stream))
    }
}

/// Upper bound on a frame head (start line + headers + the blank line
/// that ends them). A peer that sends more is not speaking the protocol:
/// the blocking reader and the incremental parser both refuse the frame
/// instead of buffering further.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Resumable, incremental HTTP request parser for nonblocking readers.
///
/// The blocking server reads a request with [`Request::read_from_buffered`]
/// and simply waits inside `read_line`; a reactor worker cannot wait, so it
/// [`feed`](RequestParser::feed)s whatever bytes the socket had and asks
/// [`try_next`](RequestParser::try_next) whether a complete request has
/// accumulated. The internal buffer is the connection's *read scratch*: it
/// moves with the connection state (not the worker thread) and keeps its
/// capacity across keep-alive requests, so a warm connection parses without
/// reallocating. Pipelined bytes beyond the first request simply remain
/// buffered for the next `try_next` call. A head is parsed once: while its
/// body is still arriving, the parsed head waits in the parser, so the
/// calls between "head complete" and "body complete" allocate nothing.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// The head at the front of `buf`, once complete, until its body is.
    head: Option<Head>,
}

/// A parsed request head and where its body lies in the buffer.
#[derive(Debug)]
struct Head {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    /// Offset of the first body byte.
    body_at: usize,
    /// Declared body length.
    body_len: usize,
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
            None => {
                let head_end = find_head_end(&self.buf);
                if head_end.unwrap_or(self.buf.len()) > MAX_HEAD_BYTES {
                    return Err(head_over_cap());
                }
                let Some(head_end) = head_end else {
                    return Ok(None);
                };
                parse_head(&self.buf, head_end)?
            }
        };
        let total = head.body_at + head.body_len;
        if self.buf.len() < total {
            // Head complete, body still arriving.
            self.head = Some(head);
            return Ok(None);
        }
        let body = self
            .buf
            .get(head.body_at..total)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| WireError::BadFrame("body span out of range".into()))?;
        self.buf.drain(..total);
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            headers: head.headers,
            body,
        }))
    }
}

/// Parse the complete head in `buf[..head_end]`: the request line, every
/// header, and the declared body length.
fn parse_head(buf: &[u8], head_end: usize) -> Result<Head> {
    let head = buf
        .get(..head_end)
        .ok_or_else(|| WireError::BadFrame("header span out of range".into()))?;
    let head = std::str::from_utf8(head)
        .map_err(|_| WireError::BadFrame("request head is not UTF-8".into()))?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines
        .next()
        .ok_or_else(|| WireError::BadFrame("empty request line".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| WireError::BadFrame("empty request line".into()))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| WireError::BadFrame("request line missing path".into()))?
        .to_owned();
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator line
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| WireError::BadFrame(format!("malformed header line {line:?}")))?;
        headers.push((k.trim().to_owned(), v.trim().to_owned()));
    }
    let body_len = declared_content_length(&headers)?;
    Ok(Head {
        method,
        path,
        headers,
        body_at: head_end,
        body_len,
    })
}

/// Offset one past the header-block terminator (`\n\n` or `\n\r\n`), if
/// the buffer holds a complete head. Line endings match the blocking
/// reader's tolerance: bare `\n` is accepted alongside `\r\n`.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while let Some(&b) = buf.get(i) {
        if b == b'\n' {
            match (buf.get(i + 1), buf.get(i + 2)) {
                (Some(&b'\n'), _) => return Some(i + 2),
                (Some(&b'\r'), Some(&b'\n')) => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
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
    // portalint: hot-path-entry
    pub fn write_into(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        // Writes to a Vec<u8> cannot fail.
        let _ = write!(
            out,
            "HTTP/1.0 {} {}\r\n",
            self.status.code(),
            self.status.reason()
        );
        for (k, v) in &self.headers {
            if k.eq_ignore_ascii_case("content-length") {
                continue;
            }
            let _ = write!(out, "{k}: {v}\r\n");
        }
        let _ = write!(out, "Content-Length: {}\r\n\r\n", self.body.len());
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
        let mut n = "HTTP/1.0 ".len()
            + decimal_digits(self.status.code() as usize)
            + 1
            + self.status.reason().len()
            + 2;
        for (k, v) in &self.headers {
            if k.eq_ignore_ascii_case("content-length") {
                continue;
            }
            n += k.len() + 2 + v.len() + 2;
        }
        n + "Content-Length: ".len() + decimal_digits(self.body.len()) + 4 + self.body.len()
    }

    /// Read one response from an existing buffered reader (the form for
    /// connections carrying several responses: a fresh `BufReader` per
    /// response could read ahead and drop the next frame's bytes).
    pub fn read_from_buffered(reader: &mut impl BufRead) -> Result<Response> {
        let (line, headers, body) = read_frame(reader)?;
        let mut parts = line.split_whitespace();
        let _version = parts
            .next()
            .ok_or_else(|| WireError::BadFrame("empty status line".into()))?;
        let code: u16 = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| WireError::BadFrame("status line missing code".into()))?;
        Ok(Response {
            status: Status::from_code(code),
            headers,
            body,
        })
    }

    /// Read one response from a stream.
    pub fn read_from(stream: impl Read) -> Result<Response> {
        Response::read_from_buffered(&mut BufReader::new(stream))
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

/// Number of decimal digits in `n` (1 for 0).
fn decimal_digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
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

/// Start line, headers and body, as read off the wire.
type Frame = (String, Vec<(String, String)>, Vec<u8>);

/// Read one frame for either direction. The head is capped at
/// [`MAX_HEAD_BYTES`], counted line by line, so a peer that never ends a
/// line cannot grow the reader's buffer without bound. The body is read
/// into capacity reserved for its declared length, with no zero-fill
/// before the copy.
fn read_frame(reader: &mut impl BufRead) -> Result<Frame> {
    let mut head_bytes = 0;
    let start = read_head_line(reader, &mut head_bytes)?;
    let mut headers = Vec::new();
    loop {
        let line = read_head_line(reader, &mut head_bytes)?;
        if line.is_empty() {
            return Err(WireError::BadFrame("eof before end of headers".into()));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| WireError::BadFrame(format!("malformed header line {line:?}")))?;
        headers.push((k.trim().to_owned(), v.trim().to_owned()));
    }
    let len = declared_content_length(&headers)?;
    let mut body = Vec::with_capacity(len);
    if len > 0 {
        // What the head's reads already buffered, then the rest straight
        // from the reader.
        let buffered = reader.fill_buf()?;
        let n = buffered.len().min(len);
        body.extend_from_slice(buffered.get(..n).unwrap_or_default());
        reader.consume(n);
    }
    if body.len() < len {
        reader
            .take((len - body.len()) as u64)
            .read_to_end(&mut body)?;
    }
    if body.len() < len {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    Ok((start, headers, body))
}

/// Read one head line, terminator included (empty at EOF), and add it to
/// `head_bytes`; fails once the head passes [`MAX_HEAD_BYTES`].
fn read_head_line(reader: &mut impl BufRead, head_bytes: &mut usize) -> Result<String> {
    let mut line = String::new();
    // One byte past the room left, so a line that overruns the cap shows.
    let room = MAX_HEAD_BYTES.saturating_sub(*head_bytes) as u64 + 1;
    reader.take(room).read_line(&mut line)?;
    *head_bytes += line.len();
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(head_over_cap());
    }
    Ok(line)
}

fn head_over_cap() -> WireError {
    WireError::BadFrame(format!("frame head exceeds the {MAX_HEAD_BYTES}-byte cap"))
}

/// Validated body length from a parsed header list. Rejects duplicate
/// `Content-Length` headers outright (even when the values agree): taking
/// "the first match" while a peer or proxy takes the other is the
/// request-smuggling shape, and our own serializers never emit more than
/// one. Also rejects unparseable values and declarations over
/// [`MAX_BODY_BYTES`] *before* any allocation. Shared by the blocking
/// reader and the incremental [`RequestParser`], so both server arms
/// enforce identical framing rules.
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
    fn truncated_frame_is_error() {
        let req = Request::post("/p", "full body");
        let bytes = req.to_bytes();
        assert!(Request::read_from(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn malformed_header_rejected() {
        let raw = b"GET / HTTP/1.0\r\nbadheader\r\n\r\n";
        assert!(matches!(
            Request::read_from(&raw[..]),
            Err(WireError::BadFrame(_))
        ));
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
    fn binary_body_survives() {
        let body: Vec<u8> = (0u8..=255).collect();
        let req = Request::post("/bin", body.clone());
        let parsed = Request::read_from(&req.to_bytes()[..]).unwrap();
        assert_eq!(parsed.body, body);
    }

    #[test]
    fn oversized_content_length_is_bad_frame_not_allocation() {
        // A peer declaring a multi-gigabyte body must be rejected before
        // the body buffer is allocated.
        let raw = format!(
            "POST /p HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match Request::read_from(raw.as_bytes()) {
            Err(WireError::BadFrame(msg)) => assert!(msg.contains("frame cap"), "{msg}"),
            other => panic!("expected BadFrame, got {other:?}"),
        }
        // At the cap itself the frame is honest, merely truncated here.
        let raw = format!("POST /p HTTP/1.0\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
        assert!(matches!(
            Request::read_from(raw.as_bytes()),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn unparseable_content_length_is_bad_frame_not_empty_body() {
        for bad in ["abc", "-1", "1e9", "18446744073709551616"] {
            let raw = format!("POST /p HTTP/1.0\r\nContent-Length: {bad}\r\n\r\nbody");
            match Request::read_from(raw.as_bytes()) {
                Err(WireError::BadFrame(msg)) => {
                    assert!(msg.contains("Content-Length"), "{msg}")
                }
                other => panic!("{bad}: expected BadFrame, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        // Regression (request-smuggling shape): two Content-Length headers
        // used to resolve to "the first match"; a peer or intermediary
        // honoring the second would disagree about where the body ends.
        let conflicting =
            "POST /p HTTP/1.0\r\nContent-Length: 4\r\nContent-Length: 9\r\n\r\nbodybytes";
        match Request::read_from(conflicting.as_bytes()) {
            Err(WireError::BadFrame(msg)) => {
                assert!(msg.contains("duplicate Content-Length"), "{msg}")
            }
            other => panic!("expected BadFrame, got {other:?}"),
        }
        // Even agreeing duplicates are malformed: strictness beats guessing.
        let agreeing = "POST /p HTTP/1.0\r\ncontent-length: 4\r\nContent-Length: 4\r\n\r\nbody";
        assert!(matches!(
            Request::read_from(agreeing.as_bytes()),
            Err(WireError::BadFrame(_))
        ));
        // Responses go through the same reader.
        let resp = "HTTP/1.0 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc";
        assert!(matches!(
            Response::read_from(resp.as_bytes()),
            Err(WireError::BadFrame(_))
        ));
        // A single Content-Length still parses as before.
        let ok = "POST /p HTTP/1.0\r\nContent-Length: 4\r\n\r\nbody";
        assert_eq!(
            Request::read_from(ok.as_bytes()).unwrap().body_str(),
            "body"
        );
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
    fn buffered_reader_survives_pipelined_requests() {
        let mut bytes = Request::post("/one", "1").to_bytes();
        bytes.extend_from_slice(&Request::post("/two", "22").to_bytes());
        let mut reader = BufReader::new(&bytes[..]);
        let first = Request::read_from_buffered(&mut reader).unwrap();
        let second = Request::read_from_buffered(&mut reader).unwrap();
        assert_eq!(first.path, "/one");
        assert_eq!(second.path, "/two");
        assert_eq!(second.body_str(), "22");
    }

    #[test]
    fn truncated_response_is_error() {
        let resp = Response::xml("<ok>payload</ok>");
        let bytes = resp.to_bytes();
        for cut in [bytes.len() - 1, bytes.len() - 8, bytes.len() - 16] {
            assert!(Response::read_from(&bytes[..cut]).is_err(), "cut={cut}");
        }
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
        }
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
    fn incremental_parser_pipelined_requests_in_one_feed() {
        let mut bytes = Request::post("/one", "1").to_bytes();
        bytes.extend_from_slice(&Request::post("/two", "22").to_bytes());
        let mut parser = RequestParser::new();
        parser.feed(&bytes);
        let first = parser.try_next().unwrap().expect("first");
        assert_eq!(first.path, "/one");
        assert!(!parser.is_empty(), "second request still buffered");
        let second = parser.try_next().unwrap().expect("second");
        assert_eq!(second.path, "/two");
        assert_eq!(second.body_str(), "22");
        assert!(parser.try_next().unwrap().is_none());
    }

    #[test]
    fn incremental_parser_matches_blocking_reader_on_errors() {
        // The incremental parser enforces the same framing rules as the
        // blocking reader: duplicate/unparseable/oversized Content-Length
        // and malformed header lines are hard errors, not "need more".
        let cases: &[&str] = &[
            "POST /p HTTP/1.0\r\nContent-Length: 4\r\nContent-Length: 9\r\n\r\nbodybytes",
            "POST /p HTTP/1.0\r\nContent-Length: abc\r\n\r\n",
            "GET / HTTP/1.0\r\nbadheader\r\n\r\n",
            &format!(
                "POST /p HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            ),
        ];
        for raw in cases {
            let mut parser = RequestParser::new();
            parser.feed(raw.as_bytes());
            assert!(parser.try_next().is_err(), "{raw:?}");
            assert!(Request::read_from(raw.as_bytes()).is_err(), "{raw:?}");
        }
        // Bare-LF line endings parse in both, as do missing bodies.
        let lf = "POST /p HTTP/1.0\nContent-Length: 2\n\nhi";
        let mut parser = RequestParser::new();
        parser.feed(lf.as_bytes());
        assert_eq!(parser.try_next().unwrap().unwrap().body_str(), "hi");
        assert_eq!(Request::read_from(lf.as_bytes()).unwrap().body_str(), "hi");
    }

    #[test]
    fn incremental_parser_caps_unterminated_heads() {
        let mut parser = RequestParser::new();
        parser.feed(b"POST /p HTTP/1.0\r\nX-Pad: ");
        parser.feed(&vec![b'a'; MAX_HEAD_BYTES]);
        match parser.try_next() {
            Err(WireError::BadFrame(msg)) => assert!(msg.contains("head exceeds"), "{msg}"),
            other => panic!("expected BadFrame, got {other:?}"),
        }
    }

    #[test]
    fn heads_over_the_cap_are_refused_even_when_terminated() {
        // A head of exactly the cap parses on both readers; one byte more
        // is refused by both, though it arrives whole.
        let frame = |head_len: usize| {
            let mut raw = b"POST /p HTTP/1.0\r\nX-Pad: ".to_vec();
            raw.resize(head_len - 4, b'a');
            raw.extend_from_slice(b"\r\n\r\n");
            raw
        };
        let mut parser = RequestParser::new();
        parser.feed(&frame(MAX_HEAD_BYTES));
        assert!(matches!(parser.try_next(), Ok(Some(_))));
        assert!(Request::read_from(&frame(MAX_HEAD_BYTES)[..]).is_ok());
        let mut parser = RequestParser::new();
        parser.feed(&frame(MAX_HEAD_BYTES + 1));
        for result in [
            parser.try_next().map(|_| ()),
            Request::read_from(&frame(MAX_HEAD_BYTES + 1)[..]).map(|_| ()),
            Response::read_from(&frame(MAX_HEAD_BYTES + 1)[..]).map(|_| ()),
        ] {
            match result {
                Err(WireError::BadFrame(msg)) => assert!(msg.contains("head exceeds"), "{msg}"),
                other => panic!("expected BadFrame, got {other:?}"),
            }
        }
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
            fn any_truncation_of_a_valid_frame_errors(
                body in pvec(any::<u8>(), 0..128),
                frac in 0.0f64..1.0,
            ) {
                // Regression: the cut arithmetic used `bytes.len() - 2`,
                // which underflows on frames shorter than two bytes; use
                // saturating arithmetic and include empty bodies.
                let req = Request::post("/soap/x", body);
                let bytes = req.to_bytes();
                // Cut strictly inside the frame: every prefix must fail to
                // parse rather than yield a short body.
                let cut = 1 + (bytes.len().saturating_sub(2) as f64 * frac) as usize;
                prop_assert!(Request::read_from(&bytes[..cut]).is_err());
            }

            #[test]
            fn url_codec_round_trips(s in "[ -~]{0,40}") {
                prop_assert_eq!(url_decode(&url_encode(&s)), s);
            }

            #[test]
            fn incremental_parser_agrees_with_blocking_reader(
                body in pvec(any::<u8>(), 0..512),
                split in 0usize..64,
            ) {
                // Differential: any valid frame, fed in two arbitrary
                // chunks, parses to exactly what the blocking reader sees.
                let req = Request::post("/soap/x", body).with_header("X-K", "v");
                let bytes = req.to_bytes();
                let blocking = Request::read_from(&bytes[..]).unwrap();
                let mut parser = RequestParser::new();
                let cut = split.min(bytes.len());
                parser.feed(&bytes[..cut]);
                let early = parser.try_next().unwrap();
                parser.feed(&bytes[cut..]);
                let parsed = match early {
                    Some(req) => req,
                    None => parser.try_next().unwrap().expect("complete after full feed"),
                };
                prop_assert_eq!(parsed, blocking);
                prop_assert!(parser.is_empty());
            }
        }
    }
}
