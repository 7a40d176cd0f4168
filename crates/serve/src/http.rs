//! Minimal HTTP/1.1 over any `Read`/`Write` stream, plus the one server
//! skeleton both serving tiers run on.
//!
//! The server speaks the smallest useful HTTP subset, std-only:
//! `Content-Length` bodies only (no chunked transfer), a bounded header
//! section, and **persistent connections**: requests are read through a
//! caller-held carry buffer ([`read_request_buffered`]) so bytes that
//! arrive beyond one request's body (a pipelined next request) are kept
//! for the next read instead of being dropped, and responses advertise
//! `Connection: keep-alive` whenever the request allows it. Responses are
//! always JSON.
//!
//! **The server skeleton.** [`HttpServer`] owns the transport half of
//! `ri-serve` and `ri-router` alike: the acceptor (connection cap with a
//! structured `503`, `503 draining` during shutdown, one thread per
//! connection), the keep-alive read loop (socket timeouts, `413` after a
//! bounded drain, `400` on malformed framing, `Connection: close` while
//! draining), and shutdown. A tier supplies only a [`Service`]: its
//! route table and its error writer. Each connection holds an RAII
//! slot, and each request's dispatch runs under `catch_unwind`, so a
//! handler panic is answered with a structured `500 internal` plus
//! `Connection: close` and the slot is always given back.
//!
//! Client side: [`request`] performs a one-shot request (connect, send
//! with `Connection: close`, read, close) and [`ClientConn`] holds one
//! keep-alive connection open across requests — what the router's
//! backend proxying uses so a proxied solve does not pay a TCP connect.

use std::any::Any;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ri_core::engine::envelope::{ServeError, ServeErrorKind};

/// Hard cap on the request head (request line + headers): a head this
/// large is never legitimate for this API.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any query string stripped.
    pub path: String,
    /// The HTTP version token (`HTTP/1.1`, `HTTP/1.0`).
    pub version: String,
    /// Header `(name, value)` pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Case-insensitive header lookup (names are stored lower-cased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client allows the connection to stay open after the
    /// response: an explicit `Connection` header wins; absent one,
    /// HTTP/1.1 defaults to keep-alive and HTTP/1.0 to close.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(c) if c.eq_ignore_ascii_case("close") => false,
            Some(c) if c.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly before sending any byte of
    /// a (next) request — the normal end of a keep-alive connection, not
    /// a protocol error.
    Closed,
    /// The bytes were not a well-formed HTTP/1.1 request (or used an
    /// unsupported feature such as chunked transfer encoding).
    BadRequest(String),
    /// The declared body length exceeds the server's limit.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The server's limit.
        limit: usize,
        /// Body bytes that had already arrived with the head (the caller
        /// must not re-read them when draining the remainder).
        buffered: usize,
    },
    /// The underlying stream failed (including read timeouts).
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ReadError::BodyTooLarge {
                declared, limit, ..
            } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Read and parse one HTTP/1.1 request from `stream` (one-shot form: no
/// carry buffer, so any pipelined bytes beyond the first request are
/// dropped). See [`read_request_buffered`] for the keep-alive form.
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<HttpRequest, ReadError> {
    let mut carry = Vec::new();
    read_request_buffered(stream, &mut carry, max_body)
}

/// Read and parse one HTTP/1.1 request, carrying excess bytes between
/// calls: `carry` holds bytes already read from the stream but beyond the
/// previous request's body (a pipelined next request). The head is capped
/// at [`MAX_HEAD_BYTES`]; the declared body length is checked against
/// `max_body` *before* the body is read, so an oversized upload is
/// rejected without buffering it.
pub fn read_request_buffered(
    stream: &mut impl Read,
    carry: &mut Vec<u8>,
    max_body: usize,
) -> Result<HttpRequest, ReadError> {
    // Accumulate until the blank line that ends the head, starting from
    // whatever the previous request left behind.
    let mut buf = std::mem::take(carry);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(ReadError::BadRequest(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                // Clean close between requests: the keep-alive peer is
                // simply done.
                return Err(ReadError::Closed);
            }
            return Err(ReadError::BadRequest(
                "connection closed before the request head completed".into(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ReadError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::BadRequest("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::BadRequest("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::BadRequest(format!(
            "unsupported protocol `{version}`"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::BadRequest(format!("malformed header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = HttpRequest {
        method,
        path,
        version: version.to_string(),
        headers,
        body: Vec::new(),
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ReadError::BadRequest(
            "chunked transfer encoding is not supported; send Content-Length".into(),
        ));
    }

    let content_length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::BadRequest(format!("bad Content-Length `{v}`")))?,
    };
    let body_start = (head_end + 4).min(buf.len());
    if content_length > max_body {
        return Err(ReadError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
            buffered: buf.len() - body_start,
        });
    }

    // The body may have arrived partly (or wholly) with the head; bytes
    // beyond it belong to the next pipelined request and go back into the
    // carry buffer.
    let available = buf.len() - body_start;
    if available >= content_length {
        request.body = buf[body_start..body_start + content_length].to_vec();
        carry.extend_from_slice(&buf[body_start + content_length..]);
    } else {
        let mut body = buf[body_start..].to_vec();
        body.resize(content_length, 0);
        stream.read_exact(&mut body[available..])?;
        request.body = body;
    }
    Ok(request)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The standard reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write one JSON response with `Connection: close` semantics (the
/// one-shot form; keep-alive servers use [`write_response_opts`]).
pub fn write_response(stream: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    write_response_opts(stream, status, false, &[], body)
}

/// Write one JSON response, advertising `Connection: keep-alive` when
/// `keep_alive` is set (the connection stays usable for the next
/// request) and emitting any `extra` headers (e.g. `Retry-After` on a
/// 503, or the router's shard/cache annotations).
pub fn write_response_opts(
    stream: &mut (impl Write + ?Sized),
    status: u16,
    keep_alive: bool,
    extra: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The transport settings a tier hands the server skeleton, derived
/// from its own config (`ServeConfig` / `RouterConfig`).
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Thread-name prefix: the acceptor is `<name>-accept`, connection
    /// threads are `<name>-conn`.
    pub name: &'static str,
    /// Maximum simultaneous connection threads; the acceptor answers
    /// `503` past it.
    pub max_connections: usize,
    /// Maximum accepted request body; larger bodies are answered `413`.
    pub max_body_bytes: usize,
    /// Read and write timeout on every accepted socket.
    pub io_timeout: Duration,
    /// The `503` message for connections that arrive during shutdown.
    pub drain_message: &'static str,
}

/// The skeleton's per-server state: its settings, the draining flag,
/// and the count of open connection slots. A tier embeds one in its
/// shared state and reads [`Transport::draining`] from its handlers.
#[derive(Debug)]
pub struct Transport {
    cfg: TransportConfig,
    draining: AtomicBool,
    connections: AtomicUsize,
}

impl Transport {
    /// A transport under `cfg`, not draining, with no open connections.
    pub fn new(cfg: TransportConfig) -> Self {
        Transport {
            cfg,
            draining: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        }
    }

    /// Whether shutdown has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// What a tier plugs into the skeleton: its route table and its error
/// writer. Everything else — accepting, connection caps, keep-alive
/// reads, request-level errors, panic isolation, shutdown — is
/// [`HttpServer`]'s.
pub trait Service: Send + Sync + 'static {
    /// The skeleton state this tier embeds.
    fn transport(&self) -> &Transport;

    /// Answer one request on `stream`. `keep_alive` is already forced
    /// off while draining. Returns whether the connection is still
    /// usable (a fault that severs it returns `false`).
    fn handle(
        self: &Arc<Self>,
        stream: &mut TcpStream,
        request: &HttpRequest,
        keep_alive: bool,
    ) -> bool;

    /// Write one error envelope and count it in the tier's counters.
    fn respond_error(&self, out: &mut dyn Write, err: &ServeError, keep_alive: bool);

    /// Whether the tier has gone dark: each connection is then severed
    /// before another request is read, without a byte.
    fn dark(&self) -> bool {
        false
    }
}

/// The envelope for a request no route matched: `405` when the path is
/// one of the tier's `known` paths (so only the method is wrong), else
/// `404` suggesting the endpoints in `hint`.
pub fn unmatched(request: &HttpRequest, known: &[&str], hint: &str) -> ServeError {
    let path = request.path.as_str();
    if known.contains(&path) {
        ServeError::new(
            ServeErrorKind::MethodNotAllowed,
            format!("{} is not supported on {path}", request.method),
        )
    } else {
        ServeError::new(
            ServeErrorKind::NotFound,
            format!("no such path `{path}`; try {hint}"),
        )
    }
}

/// Split a `/stream/<id>` or `/stream/<id>/batch` path into the session
/// id and whether it names the batch endpoint. Any other shape under
/// `/stream/` is a `404` envelope.
pub fn stream_path(path: &str) -> Result<(&str, bool), ServeError> {
    let rest = path.strip_prefix("/stream/").unwrap_or_default();
    let (id, batch) = match rest.strip_suffix("/batch") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    if id.is_empty() || id.contains('/') {
        return Err(ServeError::new(
            ServeErrorKind::NotFound,
            format!("no such path `{path}`; try /stream/<id> or /stream/<id>/batch"),
        ));
    }
    Ok((id, batch))
}

/// A request body as UTF-8 text, or the `400` envelope saying it is not.
pub fn body_text(body: &[u8]) -> Result<&str, ServeError> {
    std::str::from_utf8(body).map_err(|_| ServeError::bad_request("request body is not UTF-8"))
}

/// The text of a caught panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".into())
}

/// A running server skeleton: one acceptor thread, one thread per
/// connection, over a tier's [`Service`].
pub struct HttpServer<S: Service> {
    service: Arc<S>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl<S: Service> HttpServer<S> {
    /// Start accepting on `listener` for `service`.
    pub fn start(service: Arc<S>, listener: TcpListener) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let acceptor = {
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name(format!("{}-accept", service.transport().cfg.name))
                .spawn(move || acceptor_loop(&service, listener))?
        };
        Ok(HttpServer {
            service,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The tier's shared state.
    pub fn service(&self) -> &Arc<S> {
        &self.service
    }

    /// Graceful shutdown: set draining, wake and join the acceptor, run
    /// the tier's own `quiesce` step (joining its worker threads), then
    /// wait up to 5 s for open connections to finish.
    pub fn shutdown(mut self, quiesce: impl FnOnce()) {
        let transport = self.service.transport();
        transport.draining.store(true, Ordering::SeqCst);
        // Wake the acceptor's blocking accept with a throwaway
        // connection (it answers a quick `503` and exits). Only join if
        // a wake attempt landed — otherwise the acceptor may still be
        // parked in accept(), and joining would hang forever; leaving it
        // detached is safe (it exits on the next connection).
        let woken =
            (0..3).any(|_| TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)).is_ok());
        if let Some(acceptor) = self.acceptor.take() {
            if woken {
                let _ = acceptor.join();
            }
        }
        quiesce();
        let t0 = Instant::now();
        while transport.connections.load(Ordering::SeqCst) > 0
            && t0.elapsed() < Duration::from_secs(5)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// One claimed connection slot; dropping it (normal exit, panic, or a
/// failed thread spawn) gives the slot back.
struct ConnSlot<S: Service>(Arc<S>);

impl<S: Service> Drop for ConnSlot<S> {
    fn drop(&mut self) {
        self.0
            .transport()
            .connections
            .fetch_sub(1, Ordering::SeqCst);
    }
}

fn acceptor_loop<S: Service>(service: &Arc<S>, listener: TcpListener) {
    let transport = service.transport();
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(_) => {
                if transport.draining() {
                    break;
                }
                continue;
            }
        };
        if transport.draining() {
            // Whether this is the shutdown wake-up or a real client that
            // raced the drain flag: answer, don't drop.
            reject_connection(&**service, stream, transport.cfg.drain_message);
            break;
        }
        // Cap handler threads: admission gates cannot protect
        // thread/memory budgets from connections that never send a
        // request, so the acceptor itself sheds beyond the limit.
        if transport.connections.load(Ordering::SeqCst) >= transport.cfg.max_connections {
            reject_connection(&**service, stream, "connection limit reached; retry later");
            continue;
        }
        transport.connections.fetch_add(1, Ordering::SeqCst);
        let slot = ConnSlot(Arc::clone(service));
        // A failed spawn drops the closure, and with it the slot: thread
        // exhaustion sheds the connection instead of killing the server.
        let _ = std::thread::Builder::new()
            .name(format!("{}-conn", transport.cfg.name))
            .spawn(move || {
                let mut stream = stream;
                handle_connection(&slot.0, &mut stream);
                // Free the slot before the socket closes, so a client
                // that reconnects on EOF never races this connection's
                // release.
                drop(slot);
            });
    }
}

/// Answer a connection the acceptor cannot hand to a handler thread with
/// a quick `503` envelope (short write timeout — the acceptor must never
/// block on a slow peer).
fn reject_connection(service: &impl Service, mut stream: TcpStream, why: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let err = ServeError::new(ServeErrorKind::Overloaded, why);
    service.respond_error(&mut stream, &err, false);
}

/// Per-connection protocol: read requests off the connection for as long
/// as the client keeps it alive (the carry buffer keeps pipelined bytes
/// between reads) and hand each to the tier. Read errors become
/// structured envelopes — never silent drops — and close the connection,
/// since framing beyond a malformed request is unknowable. A panic in
/// the tier's handler becomes a `500 internal` and closes the connection.
fn handle_connection<S: Service>(service: &Arc<S>, stream: &mut TcpStream) {
    let transport = service.transport();
    let _ = stream.set_read_timeout(Some(transport.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(transport.cfg.io_timeout));
    let _ = stream.set_nodelay(true);

    let mut carry = Vec::new();
    loop {
        if service.dark() {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let request = match read_request_buffered(stream, &mut carry, transport.cfg.max_body_bytes)
        {
            Ok(r) => r,
            Err(e) => {
                let err = match e {
                    // The client finished and closed between requests
                    // (the normal end of a keep-alive connection), or a
                    // socket error — including the idle timeout — left no
                    // client to answer.
                    ReadError::Closed | ReadError::Io(_) => return,
                    ReadError::BodyTooLarge {
                        declared,
                        limit,
                        buffered,
                    } => {
                        // Drain (bounded) what the client is still sending
                        // so the 413 is not lost to a connection reset
                        // mid-write. Body bytes that arrived with the head
                        // are already consumed — re-requesting them would
                        // stall until the read timeout.
                        drain(stream, declared.saturating_sub(buffered).min(4 << 20));
                        ServeError::new(
                            ServeErrorKind::BodyTooLarge,
                            format!("body of {declared} bytes exceeds the {limit}-byte limit"),
                        )
                    }
                    ReadError::BadRequest(msg) => ServeError::bad_request(msg),
                };
                service.respond_error(stream, &err, false);
                return;
            }
        };

        // Honor the client's keep-alive preference, but force the final
        // response of a draining server to close.
        let keep_alive = request.keep_alive() && !transport.draining();
        match catch_unwind(AssertUnwindSafe(|| {
            service.handle(stream, &request, keep_alive)
        })) {
            Ok(usable) if usable && keep_alive => {}
            Ok(_) => return,
            Err(panic) => {
                let err = ServeError::new(
                    ServeErrorKind::Internal,
                    format!(
                        "{} {} panicked: {}",
                        request.method,
                        request.path,
                        panic_message(&*panic)
                    ),
                );
                service.respond_error(stream, &err, false);
                return;
            }
        }
    }
}

/// Read and discard up to `limit` bytes (stops on error or EOF).
fn drain(stream: &mut impl Read, limit: usize) {
    let mut remaining = limit;
    let mut buf = [0u8; 8192];
    while remaining > 0 {
        let take = remaining.min(8192);
        match stream.read(&mut buf[..take]) {
            Ok(0) | Err(_) => break,
            Ok(n) => remaining -= n,
        }
    }
}

/// A client-side response: status code, headers and body text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// The response status code.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl HttpResponse {
    /// Case-insensitive header lookup (names are stored lower-cased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server will keep the connection open after this
    /// response (`Connection: keep-alive`).
    pub fn keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|c| c.eq_ignore_ascii_case("keep-alive"))
    }
}

/// Perform one HTTP request against `addr` (connect, send with
/// `Connection: close`, read the full response, close), with `timeout`
/// applied to connect and to each read. The one-shot client; for
/// connection reuse see [`ClientConn`].
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<HttpResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // A server may reject mid-upload (e.g. 413 on the declared length)
    // and close its read side; keep any write error aside and try to read
    // the response anyway — it is only fatal if no response arrived.
    let written = stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body.as_bytes()))
        .and_then(|_| stream.flush());

    let mut raw = Vec::new();
    let read = stream.read_to_end(&mut raw);
    if raw.is_empty() {
        written?;
        read?;
    }
    parse_response(&raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn parse_response_head(head: &str) -> Result<(u16, Vec<(String, String)>), String> {
    let mut lines = head.lines();
    let status_line = lines.next().ok_or("empty response")?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed response header `{line}`"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((status, headers))
}

fn parse_response(raw: &[u8]) -> Result<HttpResponse, String> {
    let head_end = find_head_end(raw).ok_or("response head never completed")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head not UTF-8")?;
    let (status, headers) = parse_response_head(head)?;
    let body = std::str::from_utf8(&raw[head_end + 4..])
        .map_err(|_| "response body not UTF-8")?
        .to_string();
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Read one `Content-Length`-framed response from a keep-alive stream
/// (cannot read to EOF — the connection stays open). Bytes read beyond
/// this response stay in `carry` for the next read.
fn read_response(stream: &mut impl Read, carry: &mut Vec<u8>) -> io::Result<HttpResponse> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut buf = std::mem::take(carry);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(invalid("response head too large".into()));
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response head completed",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| invalid("response head not UTF-8".into()))?;
    let (status, headers) = parse_response_head(head).map_err(invalid)?;
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .ok_or_else(|| invalid("keep-alive response without Content-Length".into()))?;
    let body_start = (head_end + 4).min(buf.len());
    let available = buf.len() - body_start;
    let body = if available >= content_length {
        carry.extend_from_slice(&buf[body_start + content_length..]);
        buf[body_start..body_start + content_length].to_vec()
    } else {
        let mut body = buf[body_start..].to_vec();
        body.resize(content_length, 0);
        stream.read_exact(&mut body[available..])?;
        body
    };
    let body = String::from_utf8(body).map_err(|_| invalid("response body not UTF-8".into()))?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// One keep-alive client connection: requests sent through it reuse the
/// TCP connection as long as the server allows, reconnecting lazily when
/// the server closed it in between (an idle-timeout race every keep-alive
/// client must tolerate). The stale-connection retry re-sends at most
/// once, and only when the failed attempt ran on a *reused* connection —
/// a fresh connection's failure is reported, not retried. Safe for
/// idempotent requests (deterministic solves, reads); **non-idempotent**
/// requests — a stream batch advances session state — must go through
/// [`ClientConn::request_with`] with `retry_stale: false`, so a failure
/// surfaces as a transport error the caller recovers from by
/// close-and-replay instead of a blind re-send that could execute twice.
#[derive(Debug)]
pub struct ClientConn {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    carry: Vec<u8>,
}

impl ClientConn {
    /// A (not yet connected) keep-alive client for `addr`; `timeout`
    /// applies to connect, each read, and each write.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        ClientConn {
            addr,
            timeout,
            stream: None,
            carry: Vec::new(),
        }
    }

    /// The target address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a live connection is currently held.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Update the timeout for subsequent requests: applied to the held
    /// stream immediately and to any future reconnect. This is what lets
    /// a *pooled* connection honor a per-request deadline budget instead
    /// of the timeout it was created with (zero is clamped up to 1 ms —
    /// `set_read_timeout(Some(0))` is an error).
    pub fn set_timeout(&mut self, timeout: Duration) {
        let timeout = timeout.max(Duration::from_millis(1));
        self.timeout = timeout;
        if let Some(stream) = &self.stream {
            if stream.set_read_timeout(Some(timeout)).is_err()
                || stream.set_write_timeout(Some(timeout)).is_err()
            {
                self.stream = None;
            }
        }
    }

    /// Perform one request, reusing the held connection when possible
    /// (idempotent form: a stale reused connection is retried once).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        self.request_with(method, path, body, &[], true)
    }

    /// [`ClientConn::request`] with extra request headers (e.g. the
    /// propagated `X-RI-Deadline-Ms` budget) and explicit stale-retry
    /// control: pass `retry_stale: false` for non-idempotent requests
    /// (stream batches), so a mid-request connection failure is
    /// reported instead of blindly re-sent — the request may already
    /// have executed server-side even though no response arrived.
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra: &[(&str, &str)],
        retry_stale: bool,
    ) -> io::Result<HttpResponse> {
        let reused = self.stream.is_some();
        match self.request_once(method, path, body, extra) {
            Ok(resp) => Ok(resp),
            Err(e) if reused && retry_stale => {
                // The held connection was stale (server idle-closed it);
                // retry exactly once on a fresh one.
                self.stream = None;
                let _ = e;
                self.request_once(method, path, body, extra)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra: &[(&str, &str)],
    ) -> io::Result<HttpResponse> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.carry.clear();
            self.stream = Some(stream);
        }
        let result = {
            let stream = self.stream.as_mut().expect("connected above");
            let body = body.unwrap_or("");
            use std::fmt::Write as _;
            let mut head = format!(
                "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n",
                self.addr,
                body.len()
            );
            for (name, value) in extra {
                let _ = write!(head, "{name}: {value}\r\n");
            }
            head.push_str("\r\n");
            stream
                .write_all(head.as_bytes())
                .and_then(|_| stream.write_all(body.as_bytes()))
                .and_then(|_| stream.flush())
                .and_then(|_| read_response(stream, &mut self.carry))
        };
        match result {
            Ok(resp) => {
                if !resp.keep_alive() {
                    self.stream = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy tier on the skeleton: `/panic` panics, `/ok` answers 200.
    struct Toy {
        transport: Transport,
        errors: AtomicUsize,
    }

    impl Service for Toy {
        fn transport(&self) -> &Transport {
            &self.transport
        }

        fn handle(
            self: &Arc<Self>,
            stream: &mut TcpStream,
            request: &HttpRequest,
            keep_alive: bool,
        ) -> bool {
            match (request.method.as_str(), request.path.as_str()) {
                ("GET", "/panic") => panic!("toy handler exploded"),
                ("GET", "/ok") => {
                    let _ = write_response_opts(stream, 200, keep_alive, &[], "{}");
                }
                _ => {
                    let err = unmatched(request, &["/ok", "/panic"], "GET /ok");
                    self.respond_error(stream, &err, keep_alive);
                }
            }
            true
        }

        fn respond_error(&self, out: &mut dyn Write, err: &ServeError, keep_alive: bool) {
            self.errors.fetch_add(1, Ordering::SeqCst);
            let _ = write_response_opts(out, err.http_status(), keep_alive, &[], &err.to_json());
        }
    }

    #[test]
    fn handler_panics_answer_500_and_release_the_slot() {
        let toy = Arc::new(Toy {
            transport: Transport::new(TransportConfig {
                name: "toy",
                max_connections: 1,
                max_body_bytes: 64,
                io_timeout: Duration::from_secs(5),
                drain_message: "toy is draining",
            }),
            errors: AtomicUsize::new(0),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = HttpServer::start(Arc::clone(&toy), listener).unwrap();
        let addr = server.local_addr();
        let timeout = Duration::from_secs(5);

        // The one-shot client reads to EOF, which the skeleton sends only
        // after the slot is free: each next request may reconnect at once.
        let resp = request(addr, "GET", "/panic", None, timeout).unwrap();
        assert_eq!(resp.status, 500, "{}", resp.body);
        assert!(!resp.keep_alive(), "a panic closes the connection");
        let err = ServeError::from_json(&resp.body).unwrap();
        assert_eq!(err.kind, ServeErrorKind::Internal);
        assert!(
            err.message.contains("toy handler exploded"),
            "{}",
            err.message
        );
        assert_eq!(
            request(addr, "GET", "/ok", None, timeout).unwrap().status,
            200
        );

        // Request-level failures are the skeleton's, answered through the
        // tier's error writer.
        let big = "x".repeat(100);
        let resp = request(addr, "GET", "/ok", Some(&big), timeout).unwrap();
        assert_eq!(resp.status, 413, "{}", resp.body);
        assert_eq!(
            request(addr, "PUT", "/ok", None, timeout).unwrap().status,
            405
        );
        assert_eq!(
            request(addr, "GET", "/nope", None, timeout).unwrap().status,
            404
        );
        assert_eq!(toy.errors.load(Ordering::SeqCst), 4);

        server.shutdown(|| {});
        assert!(toy.transport.draining());
        assert_eq!(toy.transport.connections.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn stream_paths_parse_to_id_and_endpoint() {
        assert_eq!(stream_path("/stream/s-1").unwrap(), ("s-1", false));
        assert_eq!(stream_path("/stream/s-1/batch").unwrap(), ("s-1", true));
        for bad in [
            "/stream/",
            "/stream//batch",
            "/stream/a/b",
            "/stream/a/nope",
        ] {
            let err = stream_path(bad).unwrap_err();
            assert_eq!(err.kind, ServeErrorKind::NotFound, "{bad}");
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /solve?x=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut &raw[..], 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/solve");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_get_without_body() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &raw[..], 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn keep_alive_honors_connection_header_and_version() {
        let close = b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!read_request(&mut &close[..], 64).unwrap().keep_alive());
        let ka10 = b"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
        assert!(read_request(&mut &ka10[..], 64).unwrap().keep_alive());
        let plain10 = b"GET /x HTTP/1.0\r\n\r\n";
        assert!(!read_request(&mut &plain10[..], 64).unwrap().keep_alive());
    }

    #[test]
    fn carry_buffer_preserves_pipelined_requests() {
        let raw =
            b"POST /solve HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /healthz HTTP/1.1\r\n\r\n";
        let mut stream = &raw[..];
        let mut carry = Vec::new();
        let first = read_request_buffered(&mut stream, &mut carry, 1024).unwrap();
        assert_eq!(first.body, b"abc");
        assert!(!carry.is_empty(), "pipelined bytes stay in the carry");
        let second = read_request_buffered(&mut stream, &mut carry, 1024).unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(carry.is_empty());
        // A clean close after the last request reads as Closed.
        assert!(matches!(
            read_request_buffered(&mut stream, &mut carry, 1024),
            Err(ReadError::Closed)
        ));
    }

    #[test]
    fn rejects_oversized_bodies_before_reading_them() {
        let raw = b"POST /solve HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        match read_request(&mut &raw[..], 1024) {
            Err(ReadError::BodyTooLarge {
                declared,
                limit,
                buffered,
            }) => {
                assert_eq!(declared, 999999);
                assert_eq!(limit, 1024);
                assert_eq!(buffered, 0);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }

        // Body bytes that arrived with the head are reported so the
        // caller's drain does not re-request (and stall on) them.
        let coalesced = b"POST /solve HTTP/1.1\r\nContent-Length: 999999\r\n\r\nabcdefgh";
        match read_request(&mut &coalesced[..], 1024) {
            Err(ReadError::BodyTooLarge { buffered, .. }) => assert_eq!(buffered, 8),
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_and_unsupported_features() {
        for raw in [
            &b"NOT A REQUEST\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
        ] {
            assert!(
                matches!(
                    read_request(&mut &raw[..], 1024),
                    Err(ReadError::BadRequest(_))
                ),
                "input: {}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn response_writer_and_parser_agree() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}").unwrap();
        let resp = parse_response(&out).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"ok\":true}");
        assert!(!resp.keep_alive());
        assert!(String::from_utf8_lossy(&out).contains("Connection: close"));
    }

    #[test]
    fn keep_alive_responses_carry_extra_headers_and_frame_by_length() {
        let mut out = Vec::new();
        write_response_opts(&mut out, 503, true, &[("Retry-After", "1")], "{}").unwrap();
        let mut carry = Vec::new();
        let resp = read_response(&mut &out[..], &mut carry).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(resp.keep_alive());
        assert_eq!(resp.body, "{}");

        // Two framed responses on one stream read back one at a time
        // (the over-read second response survives in the carry).
        let mut two = Vec::new();
        write_response_opts(&mut two, 200, true, &[], "{\"a\":1}").unwrap();
        write_response_opts(&mut two, 200, true, &[], "{\"b\":2}").unwrap();
        let mut stream = &two[..];
        let mut carry = Vec::new();
        let first = read_response(&mut stream, &mut carry).unwrap();
        assert_eq!(first.body, "{\"a\":1}");
        let second = read_response(&mut stream, &mut carry).unwrap();
        assert_eq!(second.body, "{\"b\":2}");
        assert!(carry.is_empty());
    }
}
