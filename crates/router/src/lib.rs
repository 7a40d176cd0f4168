//! # `ri-router` — the sharded front tier over `ri-serve` backends
//!
//! A std-only, `#![forbid(unsafe_code)]` HTTP router that turns N
//! `ri-serve` processes into one deterministic serving surface:
//!
//! * **Consistent-hash routing** — `POST /solve` hashes the request's
//!   determinism key (problem, workload, seed, mode — the witness key)
//!   onto a virtual-node ring ([`ring::HashRing`]); the walk order from
//!   that point is both the home-shard assignment and the failover
//!   sequence.
//! * **Health-checked backends** — a poller aggregates per-shard
//!   `GET /healthz` (verifying each shard answers with the expected
//!   `shard_id`) into the cluster view the router's own `/healthz`
//!   serves.
//! * **Retry with breakers, backoff, and deadlines** — a shard that
//!   answers a *retryable* error (`503`/`504`: the solve never ran) or
//!   fails at the transport level is failed over to the next distinct
//!   shard on the ring. Safe by construction: every solve is
//!   deterministic and side-effect-free, so a retry can never
//!   double-apply anything. Each shard sits behind a per-shard
//!   [`breaker::CircuitBreaker`] (closed → open on a failure-rate
//!   window → half-open probe), so a misbehaving shard is shed from the
//!   walk instead of burning a timeout per request; retry attempts are
//!   spaced by exponential backoff with deterministic jitter (floored
//!   by the shard's own `Retry-After` hint); and every request carries
//!   a deadline budget — `X-RI-Deadline-Ms` at ingress (defaulting to
//!   `request_timeout_ms`), decremented per hop and per retry and
//!   forwarded to the shards, answering a structured `504` when
//!   exhausted instead of burning a full timeout per attempt.
//! * **Sticky streaming sessions** — `POST /stream` assigns the session
//!   an id (`rs-<seq>` unless the client names one), consistent-hashes
//!   *the id* onto the ring, and pins every later `/stream/<id>/...`
//!   request to that shard. Because sessions are deterministic replayable
//!   state (a fixed [`StreamSpec`] plus the batch counts served so far),
//!   a dead or draining shard is survivable: the router *migrates* the
//!   session — close on the old shard (best-effort), reopen under the
//!   same id on the next routable shard, re-feed the recorded batch
//!   counts — and the rebuilt session is bit-identical to the lost one.
//!   Re-fed batches are never re-witnessed; only client-served batches
//!   land in the log.
//! * **Drain** — `POST /admin/drain {"shard_id": ...}` stops routing to
//!   a shard, waits out its in-flight requests, migrates its streaming
//!   sessions to surviving shards, then stops it (killing the child when
//!   the router spawned it).
//! * **The witness log + result cache** — every 200 routed is persisted
//!   as a [`WitnessRecord`] (`{request, seed, shard, answer, trace}`)
//!   and its body cached under the witness key. `ri witness replay`
//!   re-executes the log anywhere and asserts bit-identical answers and
//!   round traces — the cross-shard determinism gate; the cache serves
//!   repeat keys without compute (`X-RI-Cache: hit`), sound for exactly
//!   the same reason replay is.
//!
//! The router itself is thread-per-connection with keep-alive, no solve
//! queue of its own — admission control lives in the backends, whose
//! `503 overloaded` the router converts into failover rather than
//! client-visible failure (until every shard has shed it). Its transport
//! is `ri-serve`'s server skeleton ([`ri_serve::http::HttpServer`]): this
//! crate supplies only the route table and handlers, so the connection
//! cap, `413`/`400` handling, shutdown, and panic isolation (a handler
//! panic answers `500 internal` and releases the connection slot) are the
//! same code as on the shards.

#![forbid(unsafe_code)]

pub mod backend;
pub mod breaker;
pub mod cache;
pub mod ring;

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ri_core::engine::envelope::{ServeError, ServeErrorKind, ServeRequest, ServeResponse};
use ri_core::engine::faults::{backoff_jitter_ms, DEADLINE_HEADER, RETRY_AFTER_MS_HEADER};
use ri_core::engine::json::{self, Value};
use ri_core::engine::session::{BatchDelta, BatchRequest, StreamSpec};
use ri_core::engine::witness::{witness_key, StreamBatchRecord, WitnessLog, WitnessRecord};
use ri_serve::http::{
    body_text, stream_path, unmatched, write_response_opts, ClientConn, HttpRequest, HttpResponse,
    HttpServer, Service, Transport, TransportConfig,
};

pub use backend::{Backend, BackendSpec, BackendState, BackendTarget};
pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::ResultCache;
pub use ring::HashRing;

/// Router tuning knobs; every field defaults to something sensible for
/// a small local fleet.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address, `host:port` (`port` 0 = ephemeral).
    pub addr: String,
    /// Virtual points per shard on the hash ring.
    pub replicas: usize,
    /// Maximum *distinct shards* tried per `/solve` before answering
    /// `503` (clamped to the shard count).
    pub max_attempts: usize,
    /// Health-poll period.
    pub health_interval_ms: u64,
    /// Timeout for connect + each read/write on a proxied request. This
    /// bounds a whole backend solve, so it is generous by default.
    pub request_timeout_ms: u64,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Append witness records here (`None` disables witnessing).
    pub witness_path: Option<PathBuf>,
    /// Maximum accepted request body size in bytes.
    pub max_body_bytes: usize,
    /// Maximum simultaneous connection-handler threads.
    pub max_connections: usize,
    /// Per-shard circuit breaker: sliding-window size in outcomes.
    pub breaker_window: usize,
    /// Per-shard circuit breaker: minimum failures in the window before
    /// it may open (failures must also be ≥ half the window).
    pub breaker_min_failures: usize,
    /// Per-shard circuit breaker: cooldown (ms) an open breaker sheds
    /// traffic before allowing a half-open probe.
    pub breaker_open_ms: u64,
    /// Backoff before retry attempt k: `base · 2^(k-1)` plus
    /// deterministic jitter in `[0, base)`, capped at `backoff_cap_ms`.
    pub backoff_base_ms: u64,
    /// Upper bound (ms) on any single inter-retry backoff sleep.
    pub backoff_cap_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 32,
            max_attempts: 3,
            health_interval_ms: 500,
            request_timeout_ms: 120_000,
            cache_capacity: 256,
            witness_path: None,
            max_body_bytes: 1 << 20,
            max_connections: 256,
            breaker_window: 16,
            breaker_min_failures: 5,
            breaker_open_ms: 500,
            backoff_base_ms: 25,
            backoff_cap_ms: 1_000,
        }
    }
}

/// The router's record of one pinned streaming session: which shard owns
/// it, the exact open body to replay it from, and the batch counts served
/// so far. Together these rebuild the session bit-identically anywhere —
/// the whole basis of close-and-replay migration.
struct StickySession {
    /// Index into `Shared::backends` of the shard holding the session.
    shard: usize,
    /// The forwarded open body (client's spec + the assigned
    /// `session_id`), replayed verbatim on migration.
    open_body: String,
    /// Counts of the batches served to the client, in order.
    batches: Vec<usize>,
    /// Shard-side state is unknown: a batch's response was lost in
    /// transit, so the batch may or may not have executed on the shard.
    /// The session must be rebuilt (close-and-replay, restoring exactly
    /// `batches`) before another batch may run — proxying to a dirty
    /// session could double-execute the lost batch and skew the delta
    /// sequence the client observes.
    dirty: bool,
}

struct Shared {
    cfg: RouterConfig,
    backends: Vec<Backend>,
    ring: HashRing,
    cache: ResultCache,
    witness: Option<WitnessLog>,
    /// Open streaming sessions pinned to shards. The per-session mutex
    /// serializes batches (and migration) within a session; distinct
    /// sessions never contend past the brief map lookup.
    sticky: Mutex<HashMap<String, Arc<Mutex<StickySession>>>>,
    /// Sequence for router-assigned session ids (`rs-<seq>`).
    session_seq: AtomicU64,
    /// Sessions rebuilt on another shard via close-and-replay.
    sessions_migrated: AtomicU64,
    /// Stream batches answered 200 to clients (migration re-feeds are
    /// internal and not counted).
    stream_batches: AtomicU64,
    /// `/solve` requests answered 200 (cache hits included).
    routed: AtomicU64,
    /// Failover attempts: a shard was tried and the request moved on.
    retries: AtomicU64,
    /// `/solve` requests answered with an error envelope.
    errored: AtomicU64,
    /// Requests answered `504` because their deadline budget ran out.
    deadline_expired: AtomicU64,
    /// Inter-retry backoff sleeps taken.
    backoff_sleeps: AtomicU64,
    /// Total milliseconds spent in inter-retry backoff sleeps.
    backoff_total_ms: AtomicU64,
    /// The server skeleton's state (draining flag, connection slots).
    transport: Transport,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running router: owns the acceptor and health-poller threads plus
/// every backend handle (spawned children die with it).
pub struct Router {
    http: HttpServer<Shared>,
    health: std::thread::JoinHandle<()>,
}

impl Router {
    /// Resolve every backend spec (spawning children where asked), build
    /// the ring, bind, and start the acceptor + health poller.
    pub fn start(cfg: RouterConfig, specs: Vec<BackendSpec>) -> io::Result<Router> {
        if specs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one backend",
            ));
        }
        let mut ids: Vec<&str> = specs.iter().map(|s| s.shard_id.as_str()).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "backend shard ids must be unique",
            ));
        }

        let mut backends = Vec::with_capacity(specs.len());
        for spec in &specs {
            let backend = match &spec.target {
                BackendTarget::Attach(addr) => Backend::attach(&spec.shard_id, *addr),
                BackendTarget::Spawn {
                    serve_bin,
                    threads,
                    executors,
                } => Backend::spawn(&spec.shard_id, serve_bin, *threads, *executors)?,
            };
            backends.push(backend);
        }

        let shard_ids: Vec<String> = backends.iter().map(|b| b.shard_id().to_string()).collect();
        let ring = HashRing::new(&shard_ids, cfg.replicas);
        let witness = match &cfg.witness_path {
            Some(path) => Some(WitnessLog::open(path)?),
            None => None,
        };

        let listener = TcpListener::bind(&cfg.addr)?;
        let transport = Transport::new(TransportConfig {
            name: "ri-router",
            max_connections: cfg.max_connections,
            max_body_bytes: cfg.max_body_bytes,
            // Socket timeouts are derived from the configured request
            // budget (floored at 10 s for idle keep-alive reads) — a fleet
            // tuned for long solves must not have the router's own
            // sockets cut them short.
            io_timeout: Duration::from_millis(cfg.request_timeout_ms.max(10_000)),
            drain_message: "router is draining",
        });
        let shared = Arc::new(Shared {
            cache: ResultCache::new(cfg.cache_capacity),
            witness,
            ring,
            backends,
            sticky: Mutex::new(HashMap::new()),
            session_seq: AtomicU64::new(0),
            sessions_migrated: AtomicU64::new(0),
            stream_batches: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            errored: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            backoff_sleeps: AtomicU64::new(0),
            backoff_total_ms: AtomicU64::new(0),
            transport,
            cfg,
        });

        // Backends are built with default breaker tunables; apply the
        // router's configured ones now that cfg is settled.
        let breaker_cfg = BreakerConfig {
            window: shared.cfg.breaker_window.max(1),
            min_failures: shared.cfg.breaker_min_failures.max(1),
            open_ms: shared.cfg.breaker_open_ms,
        };
        for backend in &shared.backends {
            backend.breaker().reconfigure(breaker_cfg.clone());
        }

        // Prime the health view synchronously once, so requests arriving
        // right after start() don't race an all-Unknown fleet.
        poll_health_once(&shared);

        let http = HttpServer::start(Arc::clone(&shared), listener)?;
        let health = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ri-router-health".into())
                .spawn(move || health_loop(&shared))
                .expect("spawning the health thread")
        };
        Ok(Router { http, health })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// The live backend handles, in spec order.
    pub fn backends(&self) -> &[Backend] {
        &self.http.service().backends
    }

    /// Failover attempts so far.
    pub fn retries(&self) -> u64 {
        self.http.service().retries.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, join the poller, detach every
    /// backend (killing spawned children).
    pub fn shutdown(self) {
        let shared = Arc::clone(self.http.service());
        let health = self.health;
        self.http.shutdown(|| {
            let _ = health.join();
        });
        for backend in &shared.backends {
            backend.detach();
        }
    }
}

fn health_loop(shared: &Arc<Shared>) {
    let interval = Duration::from_millis(shared.cfg.health_interval_ms.max(10));
    while !shared.transport.draining() {
        std::thread::sleep(interval);
        if shared.transport.draining() {
            break;
        }
        poll_health_once(shared);
    }
}

/// One health sweep: `GET /healthz` against every still-routable shard.
/// A response only counts as healthy if it parses and, when the shard
/// advertises an id, that id matches what the router expects — catching
/// port reuse and misconfigured fleets, not just dead sockets.
fn poll_health_once(shared: &Shared) {
    // Health checks use a short timeout: /healthz is served off the
    // connection thread and never waits behind solves.
    let timeout = Duration::from_millis(shared.cfg.health_interval_ms.clamp(10, 2_000));
    for backend in &shared.backends {
        if matches!(
            backend.state(),
            BackendState::Draining | BackendState::Detached
        ) {
            continue;
        }
        let mut conn = ClientConn::new(backend.addr(), timeout);
        let healthy = match conn.request("GET", "/healthz", None) {
            Ok(resp) if resp.status == 200 => match json::parse(&resp.body) {
                Ok(v) => {
                    // Fold the shard's self-reported session stats into
                    // the router's cluster view while we're here.
                    let stat = |key: &str| {
                        v.get(key).and_then(Value::as_f64).unwrap_or(0.0).max(0.0) as u64
                    };
                    backend.record_session_stats(stat("sessions_open"), stat("batches_served"));
                    match v.get("shard_id").and_then(Value::as_str) {
                        Some(id) if !id.is_empty() => id == backend.shard_id(),
                        _ => true, // a shard that doesn't name itself is trusted
                    }
                }
                Err(_) => false,
            },
            _ => false,
        };
        backend.observe(healthy);
    }
}

impl Service for Shared {
    fn transport(&self) -> &Transport {
        &self.transport
    }

    fn respond_error(&self, out: &mut dyn Write, err: &ServeError, keep_alive: bool) {
        respond_error(self, out, err, keep_alive, &[]);
    }

    /// The router's route table.
    fn handle(
        self: &Arc<Self>,
        stream: &mut TcpStream,
        request: &HttpRequest,
        keep_alive: bool,
    ) -> bool {
        // The end-to-end deadline budget for this request: the client's
        // `X-RI-Deadline-Ms` when present (clamped to the router's own
        // ceiling), else the configured request timeout. Decremented
        // across retries and forwarded to the shards.
        let budget_ms = request
            .header(DEADLINE_HEADER)
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map_or(self.cfg.request_timeout_ms, |b| {
                b.min(self.cfg.request_timeout_ms)
            });
        let body = &request.body;
        let out = &mut Reply { stream, keep_alive };
        let answered = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/solve") => handle_solve(self, out, body, budget_ms),
            ("POST", "/stream") => handle_stream_open(self, out, body, budget_ms),
            (method, path) if path.strip_prefix("/stream/").is_some_and(|r| !r.is_empty()) => {
                handle_stream_session(self, out, method, path, body, budget_ms)
            }
            ("GET", "/healthz") => out.send(200, &[], &health_value(self).write()),
            ("GET", "/problems") => handle_problems(self, out),
            ("POST", "/admin/drain") => handle_drain(self, out, body),
            _ => Err(unmatched(
                request,
                &["/solve", "/stream", "/healthz", "/problems", "/admin/drain"],
                "POST /solve, POST /stream, GET /problems, GET /healthz, POST /admin/drain",
            )),
        };
        if let Err(err) = answered {
            respond_error(self, out.stream, &err, keep_alive, &[]);
        }
        true
    }
}

/// Where one request's response goes: the client connection, and whether
/// it stays open afterwards. Handlers answer through it and return `Ok`,
/// or return the error envelope for the dispatcher to answer.
struct Reply<'a> {
    stream: &'a mut TcpStream,
    keep_alive: bool,
}

impl Reply<'_> {
    /// Write one response with `extra` headers.
    fn send(&mut self, status: u16, extra: &[(&str, &str)], body: &str) -> Result<(), ServeError> {
        let _ = write_response_opts(self.stream, status, self.keep_alive, extra, body);
        Ok(())
    }
}

/// `POST /solve`: validate, check the cache, then walk the ring under
/// breaker gating, backoff, and the request's deadline budget.
fn handle_solve(
    shared: &Shared,
    out: &mut Reply,
    body: &[u8],
    budget_ms: u64,
) -> Result<(), ServeError> {
    // Parse with the same envelope code the backends use, so the router
    // rejects malformed requests itself instead of burning a backend
    // attempt on them (and so error shapes match shard-direct calls).
    let text = body_text(body)?;
    let request = ServeRequest::from_json(text)?;
    let key = witness_key(&request.problem, &request.workload, &request.config);

    if let Some(cached) = shared.cache.get(&key) {
        shared.routed.fetch_add(1, Ordering::SeqCst);
        return out.send(200, &[("X-RI-Cache", "hit")], &cached);
    }

    let outcome = walk_ring(shared, &key, "POST", "/solve", Some(text), budget_ms);
    respond_walk(
        shared,
        out,
        outcome,
        budget_ms,
        "the request",
        |out, index, resp| {
            let backend = &shared.backends[index];
            record_witness(shared, backend.shard_id(), &key, &resp.body);
            backend.count_served();
            shared.routed.fetch_add(1, Ordering::SeqCst);
            let shard = backend.shard_id();
            out.send(
                200,
                &[("X-RI-Shard", shard), ("X-RI-Cache", "miss")],
                &resp.body,
            )
        },
    )
}

/// Answer a ring walk's outcome: `served` answers the 200 (it differs per
/// endpoint); every failure outcome is answered the same way for all of
/// them, with `what` naming the request in the exhausted-walk message.
fn respond_walk(
    shared: &Shared,
    out: &mut Reply,
    outcome: WalkOutcome,
    budget_ms: u64,
    what: &str,
    served: impl FnOnce(&mut Reply, usize, HttpResponse) -> Result<(), ServeError>,
) -> Result<(), ServeError> {
    match outcome {
        WalkOutcome::Served { index, resp } => served(out, index, resp),
        WalkOutcome::Forward { index, resp } => forward_response(shared, out, index, &resp),
        WalkOutcome::Exhausted { sent, hint_ms } => {
            respond_exhausted(shared, out, sent, hint_ms, what)
        }
        WalkOutcome::DeadlineExpired => Err(deadline_expired(budget_ms)),
        WalkOutcome::NoCandidates => Err(ServeError::new(
            ServeErrorKind::Overloaded,
            "no routable shard (all draining or detached); retry later",
        )),
    }
}

/// Outcome of one breaker-gated, deadline-bounded ring walk.
enum WalkOutcome {
    /// A shard answered 200.
    Served {
        /// Index into `Shared::backends` of the serving shard.
        index: usize,
        /// The shard's response.
        resp: HttpResponse,
    },
    /// A shard answered a structured error the client must see: either
    /// non-retryable, or retryable but the walk ran out of attempts —
    /// forward the shard's own envelope rather than synthesizing one.
    Forward { index: usize, resp: HttpResponse },
    /// Every admitted attempt failed at the transport level (or every
    /// routable shard's breaker shed the request: `sent == 0`).
    Exhausted {
        /// Attempts actually proxied.
        sent: usize,
        /// The freshest shard `Retry-After` hint (ms), when one arrived.
        hint_ms: Option<u64>,
    },
    /// The deadline budget ran out before any shard answered.
    DeadlineExpired,
    /// No routable backend exists at all.
    NoCandidates,
}

/// Walk the ring from `ring_key`'s home shard: skip unroutable shards
/// and open breakers, space retry attempts by deterministic backoff
/// (floored by shard `Retry-After` hints), bound everything by the
/// deadline budget, and forward the *remaining* budget to each shard so
/// the whole chain shares one clock. Records every admitted attempt's
/// outcome into the shard's breaker.
fn walk_ring(
    shared: &Shared,
    ring_key: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    budget_ms: u64,
) -> WalkOutcome {
    let t0 = Instant::now();
    let budget = Duration::from_millis(budget_ms);
    let jitter_key = ring::fnv1a(ring_key.as_bytes());
    let max_attempts = shared.cfg.max_attempts.max(1);
    let mut sent = 0usize;
    let mut hint_ms: Option<u64> = None;
    let mut saw_routable = false;
    let mut last_retryable: Option<(usize, HttpResponse)> = None;

    for &index in &shared.ring.order(ring_key) {
        if sent >= max_attempts {
            break;
        }
        let backend = &shared.backends[index];
        if !backend.routable() {
            continue;
        }
        saw_routable = true;
        if sent > 0 {
            // Space this retry out instead of hammering the next shard
            // the instant the previous one failed; the sleep never
            // overruns the remaining budget.
            let delay = backoff_delay_ms(&shared.cfg, jitter_key, sent as u32, hint_ms);
            let remaining = budget.saturating_sub(t0.elapsed());
            if remaining.is_zero() {
                return WalkOutcome::DeadlineExpired;
            }
            let sleep = Duration::from_millis(delay).min(remaining);
            if !sleep.is_zero() {
                shared.backoff_sleeps.fetch_add(1, Ordering::SeqCst);
                shared
                    .backoff_total_ms
                    .fetch_add(sleep.as_millis() as u64, Ordering::SeqCst);
                std::thread::sleep(sleep);
            }
        }
        let remaining = budget.saturating_sub(t0.elapsed());
        if remaining < Duration::from_millis(1) {
            return WalkOutcome::DeadlineExpired;
        }
        // Admission is checked *after* the deadline so a half-open
        // probe slot is never claimed and then abandoned unsent.
        if backend.breaker().admit() == Admission::Shed {
            continue;
        }
        if sent > 0 {
            shared.retries.fetch_add(1, Ordering::SeqCst);
        }
        let outcome = proxy_attempt(shared, backend, method, path, body, remaining, true);
        sent += 1;
        match outcome {
            Ok(resp) if resp.status == 200 => {
                backend.breaker().record(true);
                return WalkOutcome::Served { index, resp };
            }
            Ok(resp) if retryable_response(&resp) => {
                // The shard shed the request without running it: note
                // its retry hint and fail over along the ring.
                backend.breaker().record(false);
                backend.count_failed();
                hint_ms = retry_hint_ms(&resp).or(hint_ms);
                last_retryable = Some((index, resp));
            }
            Ok(resp) => {
                // A non-retryable error: the shard is responsive (the
                // breaker sees success) and the client must see it.
                backend.breaker().record(true);
                return WalkOutcome::Forward { index, resp };
            }
            Err(_) => {
                // Transport failure: the shard is gone or wedged. Mark
                // it so routing avoids it until a health poll clears it.
                backend.breaker().record(false);
                backend.observe(false);
                backend.count_failed();
            }
        }
    }
    if let Some((index, resp)) = last_retryable {
        // Out of attempts with a structured retryable envelope in hand:
        // forward the shard's own answer (it carries the best hint).
        return WalkOutcome::Forward { index, resp };
    }
    if !saw_routable {
        return WalkOutcome::NoCandidates;
    }
    WalkOutcome::Exhausted { sent, hint_ms }
}

/// The deterministic inter-retry backoff: `base · 2^(k-1)` plus seeded
/// jitter in `[0, base)`, capped at `backoff_cap_ms`, then floored by
/// the shard's own `Retry-After` hint (itself capped, so a pathological
/// hint cannot eat the whole budget sleeping).
fn backoff_delay_ms(
    cfg: &RouterConfig,
    jitter_key: u64,
    attempt: u32,
    hint_ms: Option<u64>,
) -> u64 {
    let base = cfg.backoff_base_ms;
    let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
    let jitter = backoff_jitter_ms(jitter_key, attempt, base);
    let hint = hint_ms.unwrap_or(0).min(cfg.backoff_cap_ms);
    exp.saturating_add(jitter).min(cfg.backoff_cap_ms).max(hint)
}

/// A shard's retry hint in milliseconds: the ms-precision
/// `X-RI-Retry-After-Ms` when present, else `Retry-After` seconds.
fn retry_hint_ms(resp: &HttpResponse) -> Option<u64> {
    if let Some(ms) = resp
        .header(RETRY_AFTER_MS_HEADER)
        .and_then(|v| v.trim().parse::<u64>().ok())
    {
        return Some(ms);
    }
    resp.header("retry-after")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|secs| secs.saturating_mul(1000))
}

/// Forward a shard's own error envelope to the client, preserving its
/// retry hints (or supplying the legacy `Retry-After: 1` when the shard
/// sent none) and naming the shard.
fn forward_response(
    shared: &Shared,
    out: &mut Reply,
    index: usize,
    resp: &HttpResponse,
) -> Result<(), ServeError> {
    shared.errored.fetch_add(1, Ordering::SeqCst);
    if resp.status == 504 {
        shared.deadline_expired.fetch_add(1, Ordering::SeqCst);
    }
    let mut extra = vec![("X-RI-Shard", shared.backends[index].shard_id())];
    if resp.status == 503 {
        extra.push(("Retry-After", resp.header("retry-after").unwrap_or("1")));
        if let Some(ms) = resp.header(RETRY_AFTER_MS_HEADER) {
            extra.push((RETRY_AFTER_MS_HEADER, ms));
        }
    }
    out.send(resp.status, &extra, &resp.body)
}

/// Answer the synthesized 503 for a walk that ran dry: either every
/// admitted attempt failed at the transport level, or (with `sent == 0`)
/// every routable shard's breaker was open.
fn respond_exhausted(
    shared: &Shared,
    out: &mut Reply,
    sent: usize,
    hint_ms: Option<u64>,
    what: &str,
) -> Result<(), ServeError> {
    let err = if sent == 0 {
        ServeError::new(
            ServeErrorKind::Overloaded,
            format!("every routable shard's circuit breaker is open for {what}; retry later"),
        )
    } else {
        ServeError::new(
            ServeErrorKind::Overloaded,
            format!("every candidate shard failed {what} (tried {sent}); retry later"),
        )
    };
    let hint = hint_ms.unwrap_or(1_000);
    let secs = hint.div_ceil(1000).max(1).to_string();
    let ms = hint.to_string();
    respond_error(
        shared,
        out.stream,
        &err,
        out.keep_alive,
        &[("Retry-After", &secs), (RETRY_AFTER_MS_HEADER, &ms)],
    );
    Ok(())
}

/// The structured 504 for an exhausted deadline budget.
fn deadline_expired(budget_ms: u64) -> ServeError {
    ServeError::new(
        ServeErrorKind::DeadlineExceeded,
        format!("deadline budget of {budget_ms} ms exhausted before any shard answered"),
    )
}

/// One client-facing attempt against `backend` with `remaining` budget:
/// the per-attempt timeout is the budget capped by the request timeout,
/// the budget itself is forwarded as `X-RI-Deadline-Ms`, and the attempt
/// counts in the backend's in-flight gauge (what a drain waits out).
fn proxy_attempt(
    shared: &Shared,
    backend: &Backend,
    method: &str,
    path: &str,
    body: Option<&str>,
    remaining: Duration,
    retry_stale: bool,
) -> io::Result<HttpResponse> {
    let timeout = remaining.min(Duration::from_millis(
        shared.cfg.request_timeout_ms.max(100),
    ));
    let deadline_hdr = (remaining.as_millis().min(u64::MAX as u128) as u64).to_string();
    backend.begin_request();
    let outcome = proxy_request_opts(
        backend,
        method,
        path,
        body,
        timeout,
        &[(DEADLINE_HEADER, &deadline_hdr)],
        retry_stale,
    );
    backend.end_request();
    outcome
}

/// The timeout for the router's own control-plane calls to a shard
/// (stream info and close, `/problems`): the request timeout, clamped
/// so one of them never waits as long as a whole solve may.
fn control_timeout(cfg: &RouterConfig) -> Duration {
    Duration::from_millis(cfg.request_timeout_ms.clamp(100, 10_000))
}

/// Proxy one idempotent request to a backend over its pooled keep-alive
/// connection (stale-connection retry enabled).
fn proxy_request(
    backend: &Backend,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<HttpResponse> {
    proxy_request_opts(backend, method, path, body, timeout, &[], true)
}

/// Proxy one request to a backend over its pooled keep-alive connection,
/// with extra headers (the forwarded deadline budget) and explicit
/// stale-retry control — `retry_stale: false` for non-idempotent
/// requests (stream batches), where a blind re-send on a half-written
/// pooled connection could execute the batch twice.
fn proxy_request_opts(
    backend: &Backend,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
    extra: &[(&str, &str)],
    retry_stale: bool,
) -> io::Result<HttpResponse> {
    let mut conn = backend.checkout(timeout);
    let result = conn.request_with(method, path, body, extra, retry_stale);
    if result.is_ok() {
        backend.checkin(conn);
    }
    result
}

/// `POST /stream`: assign the session id, pick its home shard by
/// consistent-hashing *the id*, and open it there (failing over along
/// the ring like `/solve` — an open has no state to lose yet, so it
/// shares the breaker/backoff/deadline walk).
fn handle_stream_open(
    shared: &Shared,
    out: &mut Reply,
    body: &[u8],
    budget_ms: u64,
) -> Result<(), ServeError> {
    // Validate with the same envelope code the backends use, and take
    // over id assignment: the router must know the id *before* the
    // session exists anywhere, because the id is the routing key.
    let mut spec = StreamSpec::from_json(body_text(body)?)?;
    let id = spec.session_id.clone().unwrap_or_else(|| {
        format!(
            "rs-{}",
            shared.session_seq.fetch_add(1, Ordering::SeqCst) + 1
        )
    });
    if lock(&shared.sticky).contains_key(&id) {
        return Err(ServeError::bad_request(format!(
            "session `{id}` is already open"
        )));
    }
    spec.session_id = Some(id.clone());
    let open_body = spec.to_json();

    let outcome = walk_ring(shared, &id, "POST", "/stream", Some(&open_body), budget_ms);
    respond_walk(
        shared,
        out,
        outcome,
        budget_ms,
        "the session open",
        |out, index, resp| {
            lock(&shared.sticky).insert(
                id.clone(),
                Arc::new(Mutex::new(StickySession {
                    shard: index,
                    open_body,
                    batches: Vec::new(),
                    dirty: false,
                })),
            );
            let shard = shared.backends[index].shard_id();
            out.send(200, &[("X-RI-Shard", shard)], &resp.body)
        },
    )
}

/// `/stream/<id>[/batch]`: sticky-route to the session's pinned shard,
/// migrating the session first when that shard is gone.
fn handle_stream_session(
    shared: &Shared,
    out: &mut Reply,
    method: &str,
    path: &str,
    body: &[u8],
    budget_ms: u64,
) -> Result<(), ServeError> {
    let (id, batch) = stream_path(path)?;
    match (method, batch) {
        ("POST", true) => handle_stream_batch(shared, out, id, body, budget_ms),
        ("GET", false) => handle_stream_info(shared, out, id),
        ("DELETE", false) => handle_stream_close(shared, out, id),
        _ => Err(ServeError::new(
            ServeErrorKind::MethodNotAllowed,
            format!("{method} is not supported on {path}"),
        )),
    }
}

/// Look up a session's sticky entry (shared so the per-session mutex
/// outlives the map lock).
fn sticky_entry(shared: &Shared, id: &str) -> Result<Arc<Mutex<StickySession>>, ServeError> {
    lock(&shared.sticky)
        .get(id)
        .cloned()
        .ok_or_else(|| no_session(id))
}

fn no_session(id: &str) -> ServeError {
    ServeError::new(
        ServeErrorKind::NotFound,
        format!("no open session `{id}` (closed, evicted, or never opened here)"),
    )
}

/// `POST /stream/<id>/batch`: serve the batch from the pinned shard. The
/// per-session lock is held across the proxy, so batches within a session
/// are strictly ordered and migration never races a batch. On transport
/// failure (or an unroutable pin) the session is migrated via
/// close-and-replay and the batch retried once on its new home.
///
/// A batch is **non-idempotent** (it advances session state), so it is
/// proxied with the stale-connection retry disabled: a half-written
/// request on a stale pooled connection surfaces as a transport error
/// and recovery goes through close-and-replay migration — which rebuilds
/// the *pre-batch* state, making the router-level retry safe — never
/// through a blind re-send that could execute the batch twice.
fn handle_stream_batch(
    shared: &Shared,
    out: &mut Reply,
    id: &str,
    body: &[u8],
    budget_ms: u64,
) -> Result<(), ServeError> {
    let request = BatchRequest::from_json(body_text(body)?)?;
    let entry = sticky_entry(shared, id)?;
    let mut sess = lock(&entry);
    let t0 = Instant::now();
    let budget = Duration::from_millis(budget_ms);
    let batch_path = format!("/stream/{id}/batch");
    let batch_body = request.to_json();
    let unavailable = |why: &str| {
        ServeError::new(
            ServeErrorKind::Overloaded,
            format!("session `{id}` {why}; retry later"),
        )
    };

    // Two tries: the pinned shard, then (after one migration) the new
    // home. A second failure answers 503 — the batch is retryable from
    // the client's side because a failed attempt never advanced state.
    for attempt in 0..2 {
        let remaining = budget.saturating_sub(t0.elapsed());
        if remaining < Duration::from_millis(1) {
            return Err(deadline_expired(budget_ms));
        }
        // A dirty session's shard-side state is unknown (a previous
        // batch's response was lost in transit and may have executed):
        // rebuilding from the recorded history is the only safe way to
        // serve another batch, so migration is mandatory — not optional —
        // before proxying anything.
        if (sess.dirty || !shared.backends[sess.shard].routable())
            && !migrate_session(shared, id, &mut sess)
        {
            return Err(unavailable("has no routable shard"));
        }
        let backend = &shared.backends[sess.shard];
        let outcome = proxy_attempt(
            shared,
            backend,
            "POST",
            &batch_path,
            Some(&batch_body),
            remaining,
            false, // non-idempotent: never blind-retry a stale connection
        );
        match outcome {
            Ok(resp) if resp.status == 200 => {
                backend.breaker().record(true);
                sess.batches.push(request.count);
                backend.count_served();
                shared.stream_batches.fetch_add(1, Ordering::SeqCst);
                record_stream_witness(shared, &sess, id, backend.shard_id(), &resp.body);
                return out.send(200, &[("X-RI-Shard", backend.shard_id())], &resp.body);
            }
            Ok(resp) if attempt == 0 && retryable_response(&resp) => {
                // The shard shed the batch without running it (draining
                // or overloaded): session state did not advance, so
                // close-and-replay on another shard is safe.
                backend.breaker().record(false);
                backend.count_failed();
                shared.retries.fetch_add(1, Ordering::SeqCst);
                if migrate_session(shared, id, &mut sess) {
                    continue;
                }
                return Err(unavailable("has no routable shard"));
            }
            Ok(resp) if resp.status == 404 => {
                // The shard is responsive but has no such session: it was
                // evicted there (TTL sweep, a restart, or a migration
                // whose close outlived its reopen). The router still holds
                // the full history, so rebuild instead of forwarding a
                // terminal 404 for a session that is recoverable.
                backend.breaker().record(true);
                if attempt == 0 {
                    shared.retries.fetch_add(1, Ordering::SeqCst);
                    if migrate_session(shared, id, &mut sess) {
                        continue;
                    }
                }
                return Err(unavailable("was evicted and could not be rebuilt"));
            }
            Ok(resp) => {
                // The shard answered: a structured error the client must
                // see (bad count, overfeed, ...). Never migrate on these —
                // the session is alive and its state did not advance.
                backend.breaker().record(true);
                return forward_response(shared, out, sess.shard, &resp);
            }
            Err(_) => {
                // The batch was sent but no response came back: it may or
                // may not have executed, so the shard-side state is now
                // unknown. Mark the session dirty — if migration fails
                // here, the flag forces a rebuild before any later client
                // retry can touch the (possibly advanced) old state.
                sess.dirty = true;
                backend.breaker().record(false);
                backend.observe(false);
                backend.count_failed();
                if attempt == 0 {
                    shared.retries.fetch_add(1, Ordering::SeqCst);
                    if migrate_session(shared, id, &mut sess) {
                        continue;
                    }
                }
                return Err(unavailable("lost its shard and could not migrate"));
            }
        }
    }
    unreachable!("every second attempt returns")
}

/// `GET /stream/<id>`: proxy the info read to the pinned shard.
fn handle_stream_info(shared: &Shared, out: &mut Reply, id: &str) -> Result<(), ServeError> {
    let entry = sticky_entry(shared, id)?;
    let sess = lock(&entry);
    let backend = &shared.backends[sess.shard];
    let path = format!("/stream/{id}");
    let Ok(resp) = proxy_request(backend, "GET", &path, None, control_timeout(&shared.cfg)) else {
        backend.observe(false);
        return Err(ServeError::new(
            ServeErrorKind::Overloaded,
            format!("session `{id}`'s shard did not answer; retry later"),
        ));
    };
    out.send(
        resp.status,
        &[("X-RI-Shard", backend.shard_id())],
        &resp.body,
    )
}

/// `DELETE /stream/<id>`: drop the sticky pin and close on the shard.
/// The pin is dropped even when the shard is unreachable — the client
/// wants the session gone, and the shard's own idle TTL will reap the
/// orphan if the shard is merely slow rather than dead.
fn handle_stream_close(shared: &Shared, out: &mut Reply, id: &str) -> Result<(), ServeError> {
    let entry = lock(&shared.sticky)
        .remove(id)
        .ok_or_else(|| no_session(id))?;
    let sess = lock(&entry);
    let backend = &shared.backends[sess.shard];
    let shard = [("X-RI-Shard", backend.shard_id())];
    let path = format!("/stream/{id}");
    match proxy_request(backend, "DELETE", &path, None, control_timeout(&shared.cfg)) {
        Ok(resp) => out.send(resp.status, &shard, &resp.body),
        Err(_) => {
            backend.observe(false);
            let body = Value::Obj(vec![
                ("session".into(), Value::Str(id.into())),
                ("closed".into(), Value::Bool(true)),
                ("shard_lost".into(), Value::Bool(true)),
            ]);
            out.send(200, &shard, &body.write())
        }
    }
}

/// Close-and-replay migration: best-effort close on the old shard, reopen
/// under the same id on the next routable shard along the session's ring
/// walk, and re-feed the recorded batch counts. Determinism makes the
/// rebuilt session bit-identical to the lost one, so re-feeds are
/// internal bookkeeping: they are neither witnessed nor counted as
/// client-served batches. The old shard itself is the last-resort rebuild
/// target (its copy was just closed, so reopening there is clean) —
/// without it, a single-survivor fleet could strand a session forever.
/// Returns false when no shard could take it (stickiness is kept, so a
/// later batch retries migration); on success the rebuilt state is known
/// exactly, so the session's dirty flag is cleared.
fn migrate_session(shared: &Shared, id: &str, sess: &mut StickySession) -> bool {
    let timeout = Duration::from_millis(shared.cfg.request_timeout_ms.max(100));
    let old = sess.shard;
    let path = format!("/stream/{id}");
    // The old shard may be draining rather than dead: free its slot.
    let _ = proxy_request(&shared.backends[old], "DELETE", &path, None, timeout);
    let mut candidates: Vec<usize> = shared
        .ring
        .order(id)
        .iter()
        .copied()
        .filter(|&index| index != old && shared.backends[index].routable())
        .collect();
    if shared.backends[old].routable() {
        candidates.push(old);
    }
    for index in candidates {
        let backend = &shared.backends[index];
        // A previous migration attempt may have left an orphan copy here
        // (its open succeeded but the response was lost): close it first
        // so the reopen never collides with a half-built ghost.
        let _ = proxy_request(backend, "DELETE", &path, None, timeout);
        match proxy_request(backend, "POST", "/stream", Some(&sess.open_body), timeout) {
            Ok(resp) if resp.status == 200 => {}
            Ok(_) => continue, // admission-full or draining mid-open: next shard
            Err(_) => {
                backend.observe(false);
                continue;
            }
        }
        // Re-feeds advance session state and are therefore proxied
        // without the stale-connection retry, like client batches.
        let refed = sess.batches.iter().all(|&count| {
            let body = format!("{{\"count\":{count}}}");
            matches!(
                proxy_request_opts(
                    backend,
                    "POST",
                    &format!("{path}/batch"),
                    Some(&body),
                    timeout,
                    &[],
                    false,
                ),
                Ok(r) if r.status == 200
            )
        });
        if !refed {
            // Leave the half-rebuilt session to the shard's TTL sweep.
            let _ = proxy_request(backend, "DELETE", &path, None, timeout);
            backend.observe(false);
            continue;
        }
        sess.shard = index;
        sess.dirty = false;
        shared.sessions_migrated.fetch_add(1, Ordering::SeqCst);
        return true;
    }
    false
}

/// Migrate every session pinned to `index` (drain integration): called
/// after the shard's in-flight requests settle, before it is detached.
fn migrate_shard_sessions(shared: &Shared, index: usize) {
    let pinned: Vec<(String, Arc<Mutex<StickySession>>)> = lock(&shared.sticky)
        .iter()
        .map(|(k, v)| (k.clone(), Arc::clone(v)))
        .collect();
    for (id, entry) in pinned {
        let mut sess = lock(&entry);
        if sess.shard == index {
            let _ = migrate_session(shared, &id, &mut sess);
        }
    }
}

/// Persist one client-served stream batch to the witness log: session id,
/// the opening spec (parsed back from the replay body, so it carries the
/// client's own config), the serving shard, and the full delta. `ri
/// witness replay` re-feeds these per session and compares with `==`.
fn record_stream_witness(
    shared: &Shared,
    sess: &StickySession,
    id: &str,
    shard_id: &str,
    body: &str,
) {
    let Some(log) = &shared.witness else { return };
    let (Ok(spec), Ok(delta)) = (
        StreamSpec::from_json(&sess.open_body),
        json::parse(body)
            .map_err(|e| e.to_string())
            .and_then(|v| BatchDelta::from_value(&v).map_err(|e| e.to_string())),
    ) else {
        return; // an unparseable 200 is a backend bug; never witnessed
    };
    let _ = log.append_stream(&StreamBatchRecord {
        session: id.to_string(),
        spec,
        shard: shard_id.to_string(),
        delta,
    });
}

/// Whether a backend's non-200 answer means "never ran, try elsewhere".
/// Trust the envelope's `retryable` field when the body parses; fall
/// back to the status code (503/504) when it does not.
fn retryable_response(resp: &HttpResponse) -> bool {
    match ServeError::from_json(&resp.body) {
        Ok(err) => err.retryable,
        Err(_) => matches!(resp.status, 503 | 504),
    }
}

/// Persist a routed 200 to the witness log (when enabled) and the cache.
/// A body the router cannot parse is a backend bug; it is still returned
/// to the client verbatim but never witnessed or cached.
fn record_witness(shared: &Shared, shard_id: &str, key: &str, body: &str) {
    if let Ok(resp) = ServeResponse::from_json(body) {
        if let Some(log) = &shared.witness {
            let _ = log.append(&WitnessRecord::from_response(&resp, shard_id));
        }
        shared.cache.insert(key, body);
    }
}

/// `GET /problems`: proxied from the first shard that answers — the
/// registry is identical across the fleet by construction.
fn handle_problems(shared: &Shared, out: &mut Reply) -> Result<(), ServeError> {
    let timeout = control_timeout(&shared.cfg);
    for backend in shared.backends.iter().filter(|b| b.routable()) {
        if let Ok(resp) = proxy_request(backend, "GET", "/problems", None, timeout) {
            return out.send(resp.status, &[], &resp.body);
        }
        backend.observe(false);
    }
    Err(ServeError::new(
        ServeErrorKind::Overloaded,
        "no shard answered /problems",
    ))
}

/// `POST /admin/drain {"shard_id": "..."}`: stop routing to the shard,
/// then (off-thread) wait out its in-flight requests and stop it.
fn handle_drain(shared: &Arc<Shared>, out: &mut Reply, body: &[u8]) -> Result<(), ServeError> {
    let parsed = std::str::from_utf8(body)
        .ok()
        .and_then(|t| json::parse(t).ok());
    let shard_id = parsed
        .as_ref()
        .and_then(|v| v.get("shard_id"))
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::bad_request("drain body must be {\"shard_id\": \"...\"}"))?
        .to_string();
    let index = shared
        .backends
        .iter()
        .position(|b| b.shard_id() == shard_id)
        .ok_or_else(|| {
            ServeError::new(
                ServeErrorKind::NotFound,
                format!("no shard named `{shard_id}`"),
            )
        })?;

    let already = !shared.backends[index].begin_drain();
    if !already {
        // Finish the drain off-thread: new requests already avoid the
        // shard; once its in-flight count hits zero it is detached (and
        // a spawned child killed).
        let drain_shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name(format!("ri-router-drain-{shard_id}"))
            .spawn(move || {
                let backend = &drain_shared.backends[index];
                let t0 = Instant::now();
                while backend.inflight() > 0 && t0.elapsed() < Duration::from_secs(300) {
                    std::thread::sleep(Duration::from_millis(10));
                }
                // The shard is quiet and unroutable but still up: move
                // its streaming sessions somewhere routable while the
                // old copies can still be closed gracefully.
                migrate_shard_sessions(&drain_shared, index);
                backend.detach();
            });
    }
    let body = Value::Obj(vec![
        ("status".into(), Value::Str("draining".into())),
        ("shard_id".into(), Value::Str(shard_id)),
        ("already_draining".into(), Value::Bool(already)),
    ]);
    out.send(200, &[], &body.write())
}

fn respond_error(
    shared: &Shared,
    stream: &mut (impl Write + ?Sized),
    err: &ServeError,
    keep_alive: bool,
    extra: &[(&str, &str)],
) {
    shared.errored.fetch_add(1, Ordering::SeqCst);
    if err.kind == ServeErrorKind::DeadlineExceeded {
        shared.deadline_expired.fetch_add(1, Ordering::SeqCst);
    }
    let status = err.http_status();
    let mut headers: Vec<(&str, &str)> = extra.to_vec();
    // Callers with a real pressure hint pass their own Retry-After via
    // `extra`; the constant is only the fallback.
    if status == 503
        && !headers
            .iter()
            .any(|(k, _)| k.eq_ignore_ascii_case("retry-after"))
    {
        headers.push(("Retry-After", "1"));
    }
    let _ = write_response_opts(stream, status, keep_alive, &headers, &err.to_json());
}

/// The router's `/healthz`: the cluster view. `status` is `ok` when every
/// routable shard is healthy, `degraded` when at least one healthy shard
/// remains, `down` when none does (draining reports `draining`).
fn health_value(shared: &Shared) -> Value {
    let mut shards = Vec::with_capacity(shared.backends.len());
    let mut healthy = 0usize;
    let mut routable = 0usize;
    for backend in &shared.backends {
        let state = backend.state();
        if backend.routable() {
            routable += 1;
        }
        if state == BackendState::Healthy {
            healthy += 1;
        }
        let (opened, half_opened, reclosed, rejected) = backend.breaker().counters();
        shards.push(Value::Obj(vec![
            ("shard_id".into(), Value::Str(backend.shard_id().into())),
            ("addr".into(), Value::Str(backend.addr().to_string())),
            ("state".into(), Value::Str(state.as_str().into())),
            ("inflight".into(), Value::Num(backend.inflight() as f64)),
            ("served".into(), Value::Num(backend.served() as f64)),
            ("failed".into(), Value::Num(backend.failed() as f64)),
            (
                "sessions_open".into(),
                Value::Num(backend.sessions_open() as f64),
            ),
            (
                "batches_served".into(),
                Value::Num(backend.batches_served() as f64),
            ),
            (
                "breaker".into(),
                Value::Obj(vec![
                    (
                        "state".into(),
                        Value::Str(backend.breaker().state().as_str().into()),
                    ),
                    ("opened".into(), Value::Num(opened as f64)),
                    ("half_opened".into(), Value::Num(half_opened as f64)),
                    ("reclosed".into(), Value::Num(reclosed as f64)),
                    ("rejected".into(), Value::Num(rejected as f64)),
                ]),
            ),
        ]));
    }
    let status = if shared.transport.draining() {
        "draining"
    } else if healthy == routable && routable > 0 {
        "ok"
    } else if healthy > 0 {
        "degraded"
    } else {
        "down"
    };
    let witness = match &shared.witness {
        Some(log) => Value::Obj(vec![
            ("path".into(), Value::Str(log.path().display().to_string())),
            ("appended".into(), Value::Num(log.appended() as f64)),
        ]),
        None => Value::Null,
    };
    Value::Obj(vec![
        ("status".into(), Value::Str(status.into())),
        (
            "version".into(),
            Value::Str(env!("CARGO_PKG_VERSION").into()),
        ),
        ("shards".into(), Value::Arr(shards)),
        (
            "routed".into(),
            Value::Num(shared.routed.load(Ordering::SeqCst) as f64),
        ),
        (
            "retries".into(),
            Value::Num(shared.retries.load(Ordering::SeqCst) as f64),
        ),
        (
            "errored".into(),
            Value::Num(shared.errored.load(Ordering::SeqCst) as f64),
        ),
        (
            "robustness".into(),
            Value::Obj(vec![
                (
                    "deadline_expired".into(),
                    Value::Num(shared.deadline_expired.load(Ordering::SeqCst) as f64),
                ),
                (
                    "backoff_sleeps".into(),
                    Value::Num(shared.backoff_sleeps.load(Ordering::SeqCst) as f64),
                ),
                (
                    "backoff_total_ms".into(),
                    Value::Num(shared.backoff_total_ms.load(Ordering::SeqCst) as f64),
                ),
                (
                    "breakers_open".into(),
                    Value::Num(
                        shared
                            .backends
                            .iter()
                            .filter(|b| b.breaker().state() != BreakerState::Closed)
                            .count() as f64,
                    ),
                ),
            ]),
        ),
        (
            "sessions".into(),
            Value::Obj(vec![
                ("open".into(), Value::Num(lock(&shared.sticky).len() as f64)),
                (
                    "migrated".into(),
                    Value::Num(shared.sessions_migrated.load(Ordering::SeqCst) as f64),
                ),
                (
                    "stream_batches".into(),
                    Value::Num(shared.stream_batches.load(Ordering::SeqCst) as f64),
                ),
            ]),
        ),
        (
            "cache".into(),
            Value::Obj(vec![
                ("hits".into(), Value::Num(shared.cache.hits() as f64)),
                ("misses".into(), Value::Num(shared.cache.misses() as f64)),
                ("size".into(), Value::Num(shared.cache.len() as f64)),
            ]),
        ),
        ("witness".into(), witness),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(status: u16, headers: &[(&str, &str)], body: &str) -> HttpResponse {
        HttpResponse {
            status,
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
                .collect(),
            body: body.to_string(),
        }
    }

    #[test]
    fn retryable_classification_trusts_the_envelope() {
        // A parseable envelope decides retryability regardless of status.
        let shed = ServeError::new(ServeErrorKind::Overloaded, "queue full");
        assert!(retryable_response(&resp(503, &[], &shed.to_json())));
        let expired = ServeError::new(ServeErrorKind::DeadlineExceeded, "too slow");
        assert!(retryable_response(&resp(504, &[], &expired.to_json())));
        // An envelope explicitly marked non-retryable wins even on 503.
        let pinned = ServeError::new(ServeErrorKind::Overloaded, "nope").retryable(false);
        assert!(!retryable_response(&resp(503, &[], &pinned.to_json())));
        // A non-retryable kind stays non-retryable.
        let bad = ServeError::bad_request("unknown problem");
        assert!(!retryable_response(&resp(400, &[], &bad.to_json())));
    }

    #[test]
    fn retryable_classification_falls_back_to_the_status_code() {
        assert!(retryable_response(&resp(503, &[], "not json at all")));
        assert!(retryable_response(&resp(504, &[], "")));
        assert!(!retryable_response(&resp(500, &[], "not json")));
        assert!(!retryable_response(&resp(200, &[], "{}")));
    }

    #[test]
    fn retry_hints_prefer_the_ms_header() {
        let both = resp(
            503,
            &[("Retry-After", "2"), (RETRY_AFTER_MS_HEADER, "350")],
            "{}",
        );
        assert_eq!(retry_hint_ms(&both), Some(350));
        let secs_only = resp(503, &[("Retry-After", "2")], "{}");
        assert_eq!(retry_hint_ms(&secs_only), Some(2_000));
        assert_eq!(retry_hint_ms(&resp(503, &[], "{}")), None);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_hint_floored() {
        let cfg = RouterConfig::default();
        let key = ring::fnv1a(b"some-witness-key");
        // Deterministic: the same (key, attempt) always yields the same
        // delay, and jitter stays under one base step.
        for attempt in 1..=4u32 {
            let a = backoff_delay_ms(&cfg, key, attempt, None);
            let b = backoff_delay_ms(&cfg, key, attempt, None);
            assert_eq!(a, b);
            let exp = cfg.backoff_base_ms << (attempt - 1);
            assert!(
                a >= exp && a < exp + cfg.backoff_base_ms,
                "attempt {attempt}: {a}"
            );
        }
        // Capped.
        assert!(backoff_delay_ms(&cfg, key, 12, None) <= cfg.backoff_cap_ms);
        // A shard's Retry-After hint floors the delay (capped too).
        assert!(backoff_delay_ms(&cfg, key, 1, Some(400)) >= 400);
        assert!(backoff_delay_ms(&cfg, key, 1, Some(60_000)) <= cfg.backoff_cap_ms);
    }
}
