//! The loaded phases: one type per workload turns a rate and a
//! duration into an open-loop phase of checked operations.

use std::net::SocketAddr;
use std::time::Instant;

use ri_core::engine::{Registry, RunConfig, WorkloadSpec};
use ri_serve::http::ClientConn;

use crate::fleet::{
    check_batch, check_served, ok_body, solve_body, stream_body, Fleet, CLIENT_TIMEOUT,
};
use crate::load::{derive, run_open_loop, Dispatch, KeyDraw, KeySampler, OpRecord, SplitMix};
use crate::solver::{fingerprint, spec, Mode, References, CONFIG_SEED};
use crate::trace::{Span, SpanBuf};

/// Instance size of every `serve` request and in-process request.
pub const REQUEST_N: usize = 512;
/// Share of requests that repeat a key still in the router's cache.
pub const REPEAT_SHARE: f64 = 0.25;
/// Share of requests sent on a freshly opened connection.
pub const FRESH_CONN_SHARE: f64 = 0.25;
/// Repeats draw from this many most recent fresh keys: well inside the
/// router's 256-entry FIFO cache.
pub const REPEAT_WINDOW: usize = 64;
/// Fresh keys per problem before the key walk wraps; the universe
/// (9 × 64 = 576 keys) outgrows the cache, so a wrapped key is evicted.
pub const KEYS_PER_PROBLEM: usize = 64;
/// Stream sessions: capacity and batch size.
pub const STREAM_CAPACITY: usize = 1024;
pub const STREAM_BATCH: usize = 128;
/// Distinct session specs per problem before the session walk wraps.
pub const SESSIONS_PER_PROBLEM: usize = 8;
/// Fewest operations in one phase: enough for a p99 with ten samples
/// beyond it.
pub const MIN_OPS: usize = 1000;

/// One loaded phase's outcome. `records[i].ok` is false for every
/// operation that failed in transport, status or checking.
pub struct PhaseOut {
    pub records: Vec<OpRecord>,
    /// The problem (registry index) each operation exercised.
    pub problem_of: Vec<usize>,
    /// Operations that skip the path the unloaded probes time: router
    /// cache hits on `serve`, session opens and closes on `stream`.
    pub bypass: Vec<bool>,
    pub spans: Vec<Span>,
    pub connects: u64,
}

impl PhaseOut {
    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64
    }
}

pub trait Workload {
    /// Run `secs` seconds of load at `rate` operations per second (at
    /// least [`MIN_OPS`] operations), recording spans when `tracing`.
    fn phase(&mut self, rate: f64, secs: f64, tracing: bool) -> PhaseOut;
}

fn op_count(rate: f64, secs: f64) -> usize {
    ((rate * secs).round() as usize).max(MIN_OPS)
}

/// Key draws and connection choices for one phase, fixed before it runs.
fn schedule(sampler: &mut KeySampler, conn_rng: &mut SplitMix, ops: usize) -> Vec<(KeyDraw, bool)> {
    (0..ops)
        .map(|_| (sampler.next_draw(), conn_rng.unit() < FRESH_CONN_SHARE))
        .collect()
}

fn new_sampler(seed: u64, lag: usize, problems: usize) -> KeySampler {
    KeySampler::new(
        derive(seed, 11),
        REPEAT_SHARE,
        REPEAT_WINDOW,
        lag,
        KEYS_PER_PROBLEM * problems,
    )
}

/// Key universe slot → (problem index, workload spec at `REQUEST_N`).
fn key(seed: u64, names: &[&'static str], slot: usize) -> (usize, WorkloadSpec) {
    (slot % names.len(), spec(seed, slot, REQUEST_N))
}

/// The `solve` workload's loaded phase: the `serve` request mix solved
/// in-process (construct + solve, as a shard does), with no HTTP.
pub struct LocalWorkload<'a> {
    reg: &'a Registry,
    names: Vec<&'static str>,
    seed: u64,
    nproc: usize,
    sampler: KeySampler,
    refs: References,
    epoch: Instant,
}

impl<'a> LocalWorkload<'a> {
    pub fn new(reg: &'a Registry, seed: u64, nproc: usize, epoch: Instant) -> Self {
        let names = reg.names();
        LocalWorkload {
            reg,
            sampler: new_sampler(seed, nproc, names.len()),
            names,
            seed,
            nproc,
            refs: References::default(),
            epoch,
        }
    }
}

impl Workload for LocalWorkload<'_> {
    fn phase(&mut self, rate: f64, secs: f64, tracing: bool) -> PhaseOut {
        let ops = op_count(rate, secs);
        let draws: Vec<KeyDraw> = (0..ops).map(|_| self.sampler.next_draw()).collect();
        let (reg, names, seed) = (self.reg, &self.names, self.seed);
        let cfg = RunConfig::new().seed(CONFIG_SEED).threads(self.nproc);
        type Solved = (usize, Result<String, String>);
        let (mut records, states) = run_open_loop(
            self.nproc,
            rate,
            ops,
            Dispatch::Shared,
            |t| {
                (
                    SpanBuf::new(tracing, self.epoch, t as u64 + 1),
                    Vec::<Solved>::new(),
                )
            },
            |(spans, solved), i| {
                let (p, workload) = key(seed, names, draws[i].slot);
                let root = spans.start("op", i as u64, None);
                let s = spans.start("registry.construct", i as u64, root.as_ref());
                let built = reg.construct(names[p], &workload);
                spans.end(s);
                let out = built.map_err(|e| e.to_string()).map(|problem| {
                    let s = spans.start("solve_erased", i as u64, root.as_ref());
                    let (summary, _) = problem.solve_erased(&cfg);
                    spans.end(s);
                    fingerprint(&summary)
                });
                spans.end(root);
                let ok = out.is_ok();
                solved.push((i, out));
                ok
            },
        );
        let mut spans_out = Vec::new();
        for (spans, solved) in states {
            spans_out.extend(spans.into_spans());
            for (i, out) in solved {
                let (p, workload) = key(seed, names, draws[i].slot);
                let ok = out.and_then(|answer| {
                    let want = self
                        .refs
                        .get(reg, names[p], &workload, &Mode::Seq.config(1))?;
                    if want.answer == answer {
                        Ok(())
                    } else {
                        Err(format!("{}: answer differs from sequential", names[p]))
                    }
                });
                if let Err(e) = ok {
                    eprintln!("ribench: op {i} failed: {e}");
                    records[i].ok = false;
                }
            }
        }
        PhaseOut {
            problem_of: draws.iter().map(|d| d.slot % names.len()).collect(),
            bypass: vec![false; ops],
            records,
            spans: spans_out,
            connects: 0,
        }
    }
}

/// The `serve` workload's loaded phase: `POST /solve` through the router.
pub struct ServeWorkload<'a> {
    reg: &'a Registry,
    names: Vec<&'static str>,
    addr: SocketAddr,
    nproc: usize,
    bodies: Vec<String>,
    sampler: KeySampler,
    conn_rng: SplitMix,
    refs: References,
    epoch: Instant,
}

impl<'a> ServeWorkload<'a> {
    pub fn new(reg: &'a Registry, fleet: &Fleet, seed: u64, nproc: usize, epoch: Instant) -> Self {
        let names = reg.names();
        let universe = KEYS_PER_PROBLEM * names.len();
        let bodies = (0..universe)
            .map(|slot| {
                let (p, workload) = key(seed, &names, slot);
                solve_body(names[p], workload)
            })
            .collect();
        ServeWorkload {
            reg,
            sampler: new_sampler(seed, nproc, names.len()),
            names,
            addr: fleet.addr(),
            nproc,
            bodies,
            conn_rng: SplitMix::new(derive(seed, 12)),
            refs: References::default(),
            epoch,
        }
    }
}

struct ServeClient {
    conn: ClientConn,
    spans: SpanBuf,
    connects: u64,
    /// (op index, 200 body or failure, cache hit)
    served: Vec<(usize, Result<String, String>, bool)>,
}

impl Workload for ServeWorkload<'_> {
    fn phase(&mut self, rate: f64, secs: f64, tracing: bool) -> PhaseOut {
        let ops = op_count(rate, secs);
        let plan = schedule(&mut self.sampler, &mut self.conn_rng, ops);
        let (addr, bodies) = (self.addr, &self.bodies);
        let (mut records, states) = run_open_loop(
            self.nproc,
            rate,
            ops,
            Dispatch::Shared,
            |t| ServeClient {
                conn: ClientConn::new(addr, CLIENT_TIMEOUT),
                spans: SpanBuf::new(tracing, self.epoch, t as u64 + 1),
                connects: 0,
                served: Vec::new(),
            },
            |c, i| {
                let (draw, fresh) = plan[i];
                let body = &bodies[draw.slot];
                let root = c.spans.start("op", i as u64, None);
                let s = c.spans.start("client.request", i as u64, root.as_ref());
                let resp = if fresh {
                    c.connects += 1;
                    ClientConn::new(addr, CLIENT_TIMEOUT).request("POST", "/solve", Some(body))
                } else {
                    c.connects += u64::from(!c.conn.is_connected());
                    c.conn.request("POST", "/solve", Some(body))
                };
                c.spans.end(s);
                c.spans.end(root);
                let hit = matches!(&resp, Ok(r) if r.header("X-RI-Cache") == Some("hit"));
                let out = ok_body(resp, "solve");
                let ok = out.is_ok();
                c.served.push((i, out, hit));
                ok
            },
        );
        let mut out = PhaseOut {
            problem_of: plan
                .iter()
                .map(|(d, _)| d.slot % self.names.len())
                .collect(),
            bypass: vec![false; ops],
            records: Vec::new(),
            spans: Vec::new(),
            connects: 0,
        };
        for c in states {
            out.spans.extend(c.spans.into_spans());
            out.connects += c.connects;
            for (i, body, hit) in c.served {
                out.bypass[i] = hit;
                if let Err(e) = body.and_then(|b| check_served(self.reg, &mut self.refs, &b)) {
                    eprintln!("ribench: request {i} failed: {e}");
                    records[i].ok = false;
                }
            }
        }
        out.records = records;
        out
    }
}

/// The `stream` workload's loaded phase: at most `nproc` sessions at a
/// time, each opened through the router, fed `STREAM_CAPACITY /
/// STREAM_BATCH` batches and closed. Every open, batch and close is one
/// scheduled operation.
pub struct StreamWorkload<'a> {
    reg: &'a Registry,
    names: Vec<&'static str>,
    seed: u64,
    addr: SocketAddr,
    nproc: usize,
    /// Sessions started in earlier phases: the session walk continues.
    sessions: usize,
    refs: References,
    epoch: Instant,
}

impl<'a> StreamWorkload<'a> {
    pub fn new(reg: &'a Registry, fleet: &Fleet, seed: u64, nproc: usize, epoch: Instant) -> Self {
        StreamWorkload {
            reg,
            names: reg.names(),
            seed,
            addr: fleet.addr(),
            nproc,
            sessions: 0,
            refs: References::default(),
            epoch,
        }
    }

    pub const BATCHES: usize = STREAM_CAPACITY / STREAM_BATCH;
    /// Scheduled operations per session: open, the batches, close.
    pub const STEPS: usize = Self::BATCHES + 2;
    const LAST_STEP: usize = Self::STEPS - 1;

    fn session_spec(&self, session: usize) -> (usize, WorkloadSpec) {
        let slot = session % (SESSIONS_PER_PROBLEM * self.names.len());
        (
            slot % self.names.len(),
            spec(self.seed, 3_000_000 + slot, STREAM_CAPACITY),
        )
    }
}

struct StreamClient {
    conn: ClientConn,
    spans: SpanBuf,
    connects: u64,
    id: Option<String>,
    /// Whether the current session has failed (its later steps are skipped).
    broken: bool,
    /// (op index, final answer or failure) per finished session.
    finals: Vec<(usize, Result<String, String>)>,
    last_answer: Option<String>,
}

impl Workload for StreamWorkload<'_> {
    fn phase(&mut self, rate: f64, secs: f64, tracing: bool) -> PhaseOut {
        let threads = self.nproc;
        let per_round = threads * Self::STEPS;
        let ops = op_count(rate, secs).div_ceil(per_round) * per_round;
        let first = self.sessions;
        // Operation i belongs to thread i % threads; that thread's m-th
        // operation is step m % STEPS of its (m / STEPS)-th session.
        let locate = |i: usize| {
            let (t, m) = (i % threads, i / threads);
            (first + (m / Self::STEPS) * threads + t, m % Self::STEPS)
        };
        let sessions: Vec<(usize, WorkloadSpec)> = (first..first + ops / Self::STEPS)
            .map(|k| self.session_spec(k))
            .collect();
        let (addr, names) = (self.addr, &self.names);
        let (mut records, states) = run_open_loop(
            threads,
            rate,
            ops,
            Dispatch::PerThread,
            |t| StreamClient {
                conn: ClientConn::new(addr, CLIENT_TIMEOUT),
                spans: SpanBuf::new(tracing, self.epoch, t as u64 + 1),
                connects: 0,
                id: None,
                broken: false,
                finals: Vec::new(),
                last_answer: None,
            },
            |c, i| {
                let (session, step) = locate(i);
                let (p, workload) = &sessions[session - first];
                let root = c.spans.start("op", i as u64, None);
                if !c.broken || step == 0 {
                    c.connects += u64::from(!c.conn.is_connected());
                }
                let result: Result<(), String> = if step == 0 {
                    c.broken = false;
                    c.last_answer = None;
                    let s = c.spans.start("client.open", i as u64, root.as_ref());
                    // Never re-sent blindly: a duplicate open leaks a session.
                    let body = stream_body(names[*p], workload.clone());
                    let resp = c
                        .conn
                        .request_with("POST", "/stream", Some(&body), &[], false);
                    c.spans.end(s);
                    ok_body(resp, "open").and_then(|b| {
                        let v = ri_core::engine::json::parse(&b).map_err(|e| e.to_string())?;
                        let id = v
                            .get("session")
                            .and_then(|s| s.as_str())
                            .ok_or("open names no session")?;
                        c.id = Some(id.to_string());
                        Ok(())
                    })
                } else if c.broken {
                    Err("session already failed".into())
                } else if step <= Self::BATCHES {
                    let j = step - 1;
                    let path = format!("/stream/{}/batch", c.id.as_deref().unwrap_or(""));
                    let body = format!("{{\"count\":{STREAM_BATCH}}}");
                    let s = c.spans.start("client.batch", i as u64, root.as_ref());
                    let resp = c.conn.request_with("POST", &path, Some(&body), &[], false);
                    c.spans.end(s);
                    ok_body(resp, "batch")
                        .and_then(|b| check_batch(&b, j, STREAM_BATCH, Self::BATCHES))
                        .map(|answer| c.last_answer = Some(answer))
                } else {
                    let path = format!("/stream/{}", c.id.take().unwrap_or_default());
                    let s = c.spans.start("client.close", i as u64, root.as_ref());
                    let resp = c.conn.request("DELETE", &path, None);
                    c.spans.end(s);
                    ok_body(resp, "close").map(|_| ())
                };
                c.spans.end(root);
                if let Err(e) = &result {
                    if !c.broken {
                        eprintln!("ribench: stream op {i} failed: {e}");
                    }
                    c.broken = true;
                }
                if step == Self::LAST_STEP {
                    let last = c.last_answer.take();
                    let fin = match (c.broken, last) {
                        (false, Some(a)) => Ok(a),
                        _ => Err("session did not complete".to_string()),
                    };
                    c.finals.push((i, fin));
                }
                result.is_ok()
            },
        );
        self.sessions += ops / Self::STEPS;
        let (mut spans, mut connects) = (Vec::new(), 0);
        for c in states {
            spans.extend(c.spans.into_spans());
            connects += c.connects;
            for (i, fin) in c.finals {
                let (session, _) = locate(i);
                let (p, workload) = &sessions[session - first];
                let cfg = RunConfig::new().seed(CONFIG_SEED);
                let checked = fin.and_then(|answer| {
                    let want = self.refs.get(self.reg, names[*p], workload, &cfg)?;
                    if want.answer == answer {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}: final delta differs from the one-shot answer",
                            names[*p]
                        ))
                    }
                });
                if let Err(e) = checked {
                    eprintln!("ribench: session ending at op {i} failed: {e}");
                    records[i].ok = false;
                }
            }
        }
        PhaseOut {
            problem_of: (0..ops).map(|i| sessions[locate(i).0 - first].0).collect(),
            bypass: (0..ops)
                .map(|i| matches!(locate(i).1, 0 | Self::LAST_STEP))
                .collect(),
            records,
            spans,
            connects,
        }
    }
}
