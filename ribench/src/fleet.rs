//! The HTTP fleet (one `ri-router` in front of `ri-serve` shards, all in
//! this process) and the unloaded probes that split a request's latency
//! into layers by re-issuing it at each entry point.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use parallel_ri::registry;
use ri_core::engine::json::{self, Value};
use ri_core::engine::session::{BatchDelta, StreamSpec};
use ri_core::engine::{Registry, RoundTrace, RunConfig, ServeRequest, ServeResponse};
use ri_router::{BackendSpec, BackendTarget, Router, RouterConfig};
use ri_serve::http::{ClientConn, HttpResponse};
use ri_serve::{ServeConfig, Server};

use crate::solver::{fingerprint, spec, References, CONFIG_SEED};
use crate::trace::SpanBuf;
use crate::workloads::{REQUEST_N, STREAM_BATCH, STREAM_CAPACITY};

/// Shards behind the router.
pub const SHARDS: usize = 2;
/// Client-side timeout for any one request.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Fleet {
    pub router: Router,
    pub shards: Vec<Server>,
}

impl Fleet {
    /// Boot `SHARDS` shards with pool width `nproc` and a router over them.
    pub fn start(nproc: usize) -> Result<Fleet, String> {
        let shards: Vec<Server> = (0..SHARDS)
            .map(|i| {
                Server::start(
                    registry(),
                    ServeConfig {
                        threads: nproc,
                        shard_id: format!("s{i}"),
                        ..ServeConfig::default()
                    },
                )
                .map_err(|e| format!("starting shard s{i}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let specs = shards
            .iter()
            .enumerate()
            .map(|(i, s)| BackendSpec {
                shard_id: format!("s{i}"),
                target: BackendTarget::Attach(s.local_addr()),
            })
            .collect();
        let router = Router::start(
            RouterConfig {
                health_interval_ms: 200,
                ..RouterConfig::default()
            },
            specs,
        )
        .map_err(|e| format!("starting router: {e}"))?;
        Ok(Fleet { router, shards })
    }

    pub fn addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    /// The address of the shard the router named in `X-RI-Shard`.
    pub fn shard_addr(&self, shard_id: &str) -> Option<SocketAddr> {
        let i: usize = shard_id.strip_prefix('s')?.parse().ok()?;
        self.shards.get(i).map(Server::local_addr)
    }

    /// The router's `/healthz` cluster view.
    pub fn health(&self) -> Result<Value, String> {
        let resp = ClientConn::new(self.addr(), CLIENT_TIMEOUT)
            .request("GET", "/healthz", None)
            .map_err(|e| format!("router healthz: {e}"))?;
        json::parse(&resp.body).map_err(|e| format!("router healthz: {e}"))
    }

    pub fn shutdown(self) {
        self.router.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

/// A `/solve` body for `problem` on `workload`, parallel at the shard's
/// width with the fixed run seed.
pub fn solve_body(problem: &str, workload: ri_core::engine::WorkloadSpec) -> String {
    let mut req = ServeRequest::new(problem);
    req.workload = workload;
    req.config = RunConfig::new().seed(CONFIG_SEED);
    req.to_json()
}

/// Check a `/solve` 200 body against the in-process reference of its key.
pub fn check_served(
    reg: &Registry,
    refs: &mut References,
    body: &str,
) -> Result<ServeResponse, String> {
    let resp = ServeResponse::from_json(body).map_err(|e| format!("unparseable response: {e}"))?;
    let want = refs.get(reg, &resp.problem, &resp.workload, &resp.config)?;
    if fingerprint(&resp.summary) != want.answer {
        return Err(format!(
            "{}: answer differs from the reference",
            resp.problem
        ));
    }
    if RoundTrace::from_report(&resp.report) != want.trace {
        return Err(format!(
            "{}: round trace differs from the reference",
            resp.problem
        ));
    }
    Ok(resp)
}

/// A stream-open body for `problem` over `workload` (capacity = `n`).
pub fn stream_body(problem: &str, workload: ri_core::engine::WorkloadSpec) -> String {
    let mut s = StreamSpec::new(problem);
    s.workload = workload;
    s.config = RunConfig::new().seed(CONFIG_SEED);
    s.to_json()
}

/// Open a session, feed `batches` batches of `count`, close it. Returns
/// each batch's latency (ms) and the final answer fingerprint; fails on
/// any non-200, an out-of-sequence batch index or a short final count.
pub fn stream_session(
    conn: &mut ClientConn,
    open_body: &str,
    batches: usize,
    count: usize,
) -> Result<(Vec<f64>, String), String> {
    let open = conn.request_with("POST", "/stream", Some(open_body), &[], false);
    let opened = ok_body(open, "open")?;
    let id = json::parse(&opened)
        .ok()
        .and_then(|v| v.get("session").and_then(Value::as_str).map(str::to_string))
        .ok_or("open response names no session")?;
    let path = format!("/stream/{id}/batch");
    let body = format!("{{\"count\":{count}}}");
    let mut times = Vec::new();
    let mut last = None;
    for j in 0..batches {
        let t = Instant::now();
        let resp = conn.request_with("POST", &path, Some(&body), &[], false);
        times.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some(check_batch(&ok_body(resp, "batch")?, j, count, batches)?);
    }
    ok_body(
        conn.request("DELETE", &format!("/stream/{id}"), None),
        "close",
    )?;
    Ok((times, last.unwrap_or_default()))
}

/// Check one batch delta: gapless index, cumulative count, completion on
/// the last batch. Returns the answer fingerprint.
pub fn check_batch(body: &str, j: usize, count: usize, batches: usize) -> Result<String, String> {
    let d = BatchDelta::from_json(body).map_err(|e| format!("unparseable delta: {e}"))?;
    if d.batch != j || d.cumulative != (j + 1) * count {
        return Err(format!(
            "batch {j}: got index {} at cumulative {}",
            d.batch, d.cumulative
        ));
    }
    if (j + 1 == batches) != d.complete {
        return Err(format!("batch {j}: complete flag is {}", d.complete));
    }
    Ok(Value::Obj(d.answer).write())
}

/// The body of a 200 response, or why there was none.
pub fn ok_body(resp: std::io::Result<HttpResponse>, what: &str) -> Result<String, String> {
    match resp {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(format!("{what}: status {}: {}", r.status, r.body)),
        Err(e) => Err(format!("{what}: transport: {e}")),
    }
}

/// What the unloaded probes measured.
#[derive(Debug, Default)]
pub struct LayerProbe {
    pub attempted: u64,
    pub failed: u64,
    pub router_ms: Vec<f64>,
    pub shard_ms: Vec<f64>,
    pub inproc_ms: Vec<f64>,
    pub hop_ms: Vec<f64>,
    pub overhead_ms: Vec<f64>,
    pub shard_solve_ms: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub response_bytes: Vec<f64>,
    pub native_batch_ms: Vec<f64>,
    pub fallback_batch_ms: Vec<f64>,
}

/// Fresh keys per problem the probes re-send.
const PROBE_KEYS_PER_PROBLEM: usize = 6;

/// Re-send `PROBE_KEYS_PER_PROBLEM` fresh n=`REQUEST_N` keys per problem
/// one at a time at each entry point — the router first, then the shard
/// the router named and the in-process solve in alternating order — and
/// stream one unloaded session per problem through the router.
pub fn layer_probe(
    reg: &Registry,
    fleet: &Fleet,
    seed: u64,
    nproc: usize,
    spans: &mut SpanBuf,
) -> LayerProbe {
    let mut out = LayerProbe::default();
    let mut refs = References::default();
    let mut router = ClientConn::new(fleet.addr(), CLIENT_TIMEOUT);
    let mut shards: Vec<ClientConn> = fleet
        .shards
        .iter()
        .map(|s| ClientConn::new(s.local_addr(), CLIENT_TIMEOUT))
        .collect();
    let names = reg.names();
    let fail = |out: &mut LayerProbe, msg: String| {
        out.failed += 1;
        eprintln!("ribench: probe failed: {msg}");
    };
    // Warm each connection so no probe pays a connect.
    for conn in std::iter::once(&mut router).chain(shards.iter_mut()) {
        let _ = conn.request("GET", "/healthz", None);
    }
    for k in 0..PROBE_KEYS_PER_PROBLEM {
        for (p, name) in names.iter().enumerate() {
            let slot = 1_000_000 + k * names.len() + p;
            let workload = spec(seed, slot, REQUEST_N);
            let body = solve_body(name, workload.clone());
            let request = slot as u64;
            // Router first, so the shard it names is known; the shard and
            // the in-process solve follow in alternating order.
            out.attempted += 1;
            let s = spans.start("probe.router", request, None);
            let t = Instant::now();
            let resp = router.request("POST", "/solve", Some(&body));
            let router_ms = t.elapsed().as_secs_f64() * 1e3;
            spans.end(s);
            let shard_id = match &resp {
                Ok(r) => r.header("X-RI-Shard").map(str::to_string),
                Err(_) => None,
            };
            let served = match ok_body(resp, "probe router")
                .and_then(|b| check_served(reg, &mut refs, &b).map(|r| (r, b)))
            {
                Ok(x) => x,
                Err(e) => {
                    fail(&mut out, e);
                    continue;
                }
            };
            let Some(shard) = shard_id
                .as_deref()
                .and_then(|id| fleet.shard_addr(id))
                .and_then(|a| shards.iter().position(|c| c.addr() == a))
            else {
                fail(&mut out, "router response names no known shard".into());
                continue;
            };
            let mut shard_ms = f64::NAN;
            let mut inproc_ms = f64::NAN;
            let mut shard_ok = true;
            for step in 0..2 {
                if (step + k) % 2 == 0 {
                    out.attempted += 1;
                    let s = spans.start("probe.shard", request, None);
                    let t = Instant::now();
                    let resp = shards[shard].request("POST", "/solve", Some(&body));
                    shard_ms = t.elapsed().as_secs_f64() * 1e3;
                    spans.end(s);
                    if let Err(e) =
                        ok_body(resp, "probe shard").and_then(|b| check_served(reg, &mut refs, &b))
                    {
                        shard_ok = false;
                        fail(&mut out, e);
                    }
                } else {
                    out.attempted += 1;
                    let s = spans.start("probe.inprocess", request, None);
                    let t = Instant::now();
                    let solved = reg.solve(
                        name,
                        &workload,
                        &RunConfig::new().seed(CONFIG_SEED).threads(nproc),
                    );
                    inproc_ms = t.elapsed().as_secs_f64() * 1e3;
                    spans.end(s);
                    let ok = match &solved {
                        Ok((summary, _)) => refs
                            .get(reg, name, &workload, &RunConfig::new().seed(CONFIG_SEED))
                            .map(|r| r.answer == fingerprint(summary))
                            .unwrap_or(false),
                        Err(_) => false,
                    };
                    if !ok {
                        fail(&mut out, format!("{name}: in-process answer differs"));
                    }
                }
            }
            if !shard_ok {
                continue;
            }
            let (resp, body) = served;
            let wall_ms = resp.report.wall_seconds * 1e3;
            out.router_ms.push(router_ms);
            out.shard_ms.push(shard_ms);
            out.inproc_ms.push(inproc_ms);
            out.hop_ms.push(router_ms - shard_ms);
            out.overhead_ms.push(shard_ms - wall_ms);
            out.shard_solve_ms.push(wall_ms);
            out.response_bytes.push(body.len() as f64);
            let t = Instant::now();
            let encoded = std::hint::black_box(resp.to_json());
            out.encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let decoded = std::hint::black_box(ServeResponse::from_json(&encoded));
            out.decode_us.push(t.elapsed().as_secs_f64() * 1e6);
            if decoded.is_err() {
                fail(
                    &mut out,
                    format!("{name}: re-encoded response does not parse"),
                );
            }
        }
    }
    for (p, name) in names.iter().enumerate() {
        let workload = spec(seed, 2_000_000 + p, STREAM_CAPACITY);
        out.attempted += 1;
        let s = spans.start("probe.stream", p as u64, None);
        let result = stream_session(
            &mut router,
            &stream_body(name, workload.clone()),
            STREAM_CAPACITY / STREAM_BATCH,
            STREAM_BATCH,
        );
        spans.end(s);
        match result.and_then(|(times, answer)| {
            let want = refs.get(reg, name, &workload, &RunConfig::new().seed(CONFIG_SEED))?;
            if want.answer == answer {
                Ok(times)
            } else {
                Err(format!(
                    "{name}: final stream answer differs from the one-shot answer"
                ))
            }
        }) {
            Ok(times) => {
                let dst = if reg.has_incremental(name) {
                    &mut out.native_batch_ms
                } else {
                    &mut out.fallback_batch_ms
                };
                dst.extend(times);
            }
            Err(e) => fail(&mut out, e),
        }
    }
    out
}
