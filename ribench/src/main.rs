//! `ribench` — the repository's end-to-end benchmark.
//!
//! ```text
//! ribench --workload solve|serve|stream --seed N --seconds S --trace 0|1
//! ```
//!
//! Three workloads, each driving the system only through its public
//! entry points (`Registry::construct` / `ErasedProblem::solve_erased`,
//! the `ServeRequest`/`ServeResponse` JSON envelope, `Server::start`,
//! `Router::start`, `http::ClientConn::request`, `rayon::join`):
//!
//! * `solve` — the nine registry problems at their `speedup` sizes,
//!   timed sequential, parallel at width 1 and parallel at width
//!   `nproc`, plus the `serve` request mix solved in-process;
//! * `serve` — open-loop `POST /solve` at n=512 through an in-process
//!   router in front of two shards, a quarter of the keys repeating a
//!   cached one and a quarter of the requests on fresh connections;
//! * `stream` — at most `nproc` concurrent streaming sessions through
//!   the same fleet, each opened, fed in fixed batches and closed on an
//!   open-loop schedule.
//!
//! Every operation is checked (solve answers against the sequential
//! answer, served answers against an in-process reference solve of the
//! same key, streams for gapless batches and a final answer equal to
//! the one-shot answer). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs with spans on and prints the per-layer metrics. The
//! last line of standard output is one JSON object; the host record,
//! phase details and spans go to `ribench/results/`.

mod fleet;
mod host;
mod load;
mod solver;
mod stats;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use parallel_ri::registry;
use ri_core::engine::json::Value;
use ri_core::engine::Registry;

use fleet::{layer_probe, Fleet};
use load::{backlog_growth_ms, Ladder};
use solver::{Instances, Mode, SolveTiming, SOLVE_SIZES, WITH_SPECIALS};
use stats::{median, percentile, sorted};
use workloads::{
    LocalWorkload, PhaseOut, ServeWorkload, StreamWorkload, Workload, REQUEST_N, STREAM_CAPACITY,
};

/// Where results, host records and spans are written.
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

/// Rounds in an untraced run. Every round times the solves and runs one
/// nominal slice, and every other round sets up once more; the ladder
/// probes fall evenly between rounds. Each metric is a median
/// over rounds, so a stretch in which a shared host runs slow moves it
/// only if it covers most of the run.
const ROUNDS: usize = 10;

/// Per-workload load plan. `nominal_rps` is the fixed rate latency is
/// reported at; the ladder's staircase of `probes` probes starts at
/// `ladder_start_rps` and holds p99 to `p99_limit_ms`. A round of
/// `round_s` seconds splits between timed solves, the nominal slice and
/// the ladder probes by the shares.
#[derive(Debug, Clone, Copy)]
struct Plan {
    nominal_rps: f64,
    ladder_start_rps: f64,
    p99_limit_ms: f64,
    probes: usize,
    solve_share: f64,
    slice_share: f64,
    probe_share: f64,
}

/// Rungs 5% apart from 50/s: the ladder's rates are fixed for good.
const LADDER: Ladder = Ladder {
    base: 50.0,
    ratio: 1.05,
    rungs: 160,
};

fn plan(workload: &str) -> Plan {
    match workload {
        "solve" => Plan {
            nominal_rps: 1200.0,
            ladder_start_rps: 3000.0,
            p99_limit_ms: 20.0,
            probes: 20,
            solve_share: 0.5,
            slice_share: 0.2,
            probe_share: 0.3,
        },
        "serve" => Plan {
            nominal_rps: 800.0,
            ladder_start_rps: 2500.0,
            p99_limit_ms: 20.0,
            probes: 24,
            solve_share: 0.1,
            slice_share: 0.45,
            probe_share: 0.45,
        },
        _ => Plan {
            nominal_rps: 400.0,
            ladder_start_rps: 2500.0,
            p99_limit_ms: 50.0,
            probes: 16,
            solve_share: 0.1,
            slice_share: 0.74,
            probe_share: 0.16,
        },
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Pool width the pinned child times (its own affinity shows one CPU).
    inflation_child: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        inflation_child: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--inflation-child" => {
                args.inflation_child = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad --inflation-child: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !["solve", "serve", "stream"].contains(&args.workload.as_str()) {
        return Err("--workload must be solve, serve or stream".into());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The instances each workload times in-process: the `speedup` sizes
/// for `solve`, the served size for `serve`, the session capacity for
/// `stream`.
fn solve_sizes(workload: &str) -> Vec<(&'static str, usize)> {
    let n = match workload {
        "solve" => return SOLVE_SIZES.to_vec(),
        "serve" => REQUEST_N,
        _ => STREAM_CAPACITY,
    };
    SOLVE_SIZES.iter().map(|&(p, _)| (p, n)).collect()
}

/// One metric as printed: name, value, unit.
struct Metric(String, f64, &'static str);

/// Everything one run produces.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Metrics that could not be measured, with the reason.
    missing: Vec<(String, String)>,
    details: Vec<(String, Value)>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        let name = name.into();
        match value {
            Some(v) if v.is_finite() => self.metrics.push(Metric(name, v, unit)),
            _ => self
                .missing
                .push((name, "not measurable in this run".into())),
        }
    }

    fn count_phase(&mut self, phase: &PhaseOut) {
        self.attempted += phase.records.len() as u64;
        self.failed += phase.failed();
    }
}

/// Latencies of a phase in ms, failures counted as infinitely late.
fn latencies(phase: &PhaseOut, keep: impl Fn(usize) -> bool) -> Vec<f64> {
    sorted(
        phase
            .records
            .iter()
            .filter(|r| keep(r.index))
            .map(|r| if r.ok { r.latency_ms() } else { f64::INFINITY })
            .collect(),
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("ribench: {e}");
        std::process::exit(2);
    });
    let reg = registry();
    if let Some(width) = args.inflation_child {
        let inst =
            solver::construct(&reg, &solve_sizes(&args.workload), args.seed).unwrap_or_else(|e| {
                eprintln!("ribench: {e}");
                std::process::exit(1);
            });
        let reps = if args.workload == "solve" { 3 } else { 15 };
        print!("{}", solver::inflation_child(&inst, width, reps));
        return;
    }
    let noise_start = host::Noise::sample();
    let started = Instant::now();
    let result = run(&args, &reg);
    let noise_end = host::Noise::sample();
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("ribench: {e}");
            std::process::exit(1);
        }
    };
    let steal = match (noise_start.steal_ticks, noise_end.steal_ticks) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a) as f64),
        _ => None,
    };
    if args.trace {
        out.metric("host.steal_ticks", steal, "ticks");
        out.metric("host.loadavg", noise_end.loadavg, "load");
    }
    let host_record: Vec<(String, Value)> = host::record()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::Str(v)))
        .chain([
            (
                "steal_ticks".to_string(),
                steal.map_or(Value::Null, Value::Num),
            ),
            (
                "loadavg_start".to_string(),
                noise_start.loadavg.map_or(Value::Null, Value::Num),
            ),
            (
                "loadavg_end".to_string(),
                noise_end.loadavg.map_or(Value::Null, Value::Num),
            ),
            (
                "wall_s".to_string(),
                Value::Num(started.elapsed().as_secs_f64()),
            ),
        ])
        .collect();
    for (name, why) in &out.missing {
        eprintln!("ribench: metric {name} missing: {why}");
    }
    let metrics = Value::Obj(
        out.metrics
            .iter()
            .map(|Metric(n, v, u)| {
                (
                    n.clone(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(*v)),
                        ("unit".into(), Value::Str((*u).into())),
                    ]),
                )
            })
            .collect(),
    );
    let correct = out.failed == 0 && out.attempted > 0;
    let result = [
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", metrics),
    ]
    .map(|(k, v)| (k.to_string(), v));
    let line = Value::Obj(result.to_vec()).write();
    let missing = out.missing.into_iter().map(|(n, w)| (n, Value::Str(w)));
    let record = Value::Obj(
        [
            ("workload", Value::Str(args.workload.clone())),
            ("seed", Value::Num(args.seed as f64)),
            ("seconds", Value::Num(args.seconds)),
            ("trace", Value::Bool(args.trace)),
            ("host", Value::Obj(host_record)),
            ("details", Value::Obj(out.details)),
            ("missing", Value::Obj(missing.collect())),
        ]
        .map(|(k, v)| (k.to_string(), v))
        .into_iter()
        .chain(result)
        .collect(),
    );
    let path = format!(
        "{RESULTS_DIR}/{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|_| std::fs::write(&path, record.write() + "\n"))
    {
        eprintln!("ribench: writing {path}: {e}");
    }
    println!("{line}");
}

/// The set-up a run keeps: the timed instances and, for the HTTP
/// workloads, a warm fleet.
fn set_up(
    args: &Args,
    reg: &Registry,
    sizes: &[(&'static str, usize)],
) -> Result<(Instances, Option<Fleet>), String> {
    let inst = solver::construct(reg, sizes, args.seed)?;
    let fleet = if args.workload == "solve" {
        None
    } else {
        let fleet = Fleet::start(host::nproc())?;
        warm(reg, &fleet, args.seed)?;
        Some(fleet)
    };
    Ok((inst, fleet))
}

fn run(args: &Args, reg: &Registry) -> Result<Outcome, String> {
    let nproc = host::nproc();
    let plan = plan(&args.workload);
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let sizes = solve_sizes(&args.workload);

    let t = Instant::now();
    let (inst, mut fleet) = set_up(args, reg, &sizes)?;
    let setup_s = t.elapsed().as_secs_f64();
    // The traced `solve` run needs a fleet for its entry-point probes.
    if args.trace && fleet.is_none() {
        fleet = Some(Fleet::start(nproc)?);
    }
    let mut target: Box<dyn Workload + '_> = match (&args.workload[..], &fleet) {
        ("solve", _) => Box::new(LocalWorkload::new(reg, args.seed, nproc, epoch)),
        ("serve", Some(f)) => Box::new(ServeWorkload::new(reg, f, args.seed, nproc, epoch)),
        (_, Some(f)) => Box::new(StreamWorkload::new(reg, f, args.seed, nproc, epoch)),
        _ => unreachable!("HTTP workloads always start a fleet"),
    };
    let mut timer = solver::SolveTimer::new(&inst, nproc);
    let round_s = args.seconds / ROUNDS as f64;
    let solve_s = Duration::from_secs_f64(round_s * plan.solve_share);

    if args.trace {
        timer.run_for(solve_s * ROUNDS as u32);
        let timing = timer.finish();
        out.attempted += timing.attempted;
        out.failed += timing.failed;
        let slice_s = round_s * plan.slice_share * ROUNDS as f64 / 2.0;
        let (mut spans, loaded_p50) = traced(
            &mut out,
            reg,
            &mut *target,
            &plan,
            slice_s,
            &timing,
            &inst.construct_ms,
        )?;
        let probe_fleet = fleet.as_ref().expect("traced runs start a fleet");
        spans.extend(probes(
            args,
            reg,
            probe_fleet,
            &mut out,
            &timing,
            epoch,
            loaded_p50,
        )?);
        write_spans(&args.workload, &spans, &mut out)?;
    } else {
        // Warm-up, untimed: one probe's worth of load at the ladder's
        // start rate, so the first probe does not meet cold pools and
        // connections.
        let warm_up = target.phase(
            plan.ladder_start_rps,
            round_s * plan.probe_share * ROUNDS as f64 / plan.probes as f64,
            false,
        );
        out.count_phase(&warm_up);
        let mut rounds = Rounds {
            args,
            reg,
            sizes: &sizes,
            plan,
            round_s,
            solve_s,
            target: &mut *target,
            timer: &mut timer,
            out: &mut out,
            slices: Vec::new(),
            cpu: Some((0.0, 0)),
            setup_s: vec![setup_s],
            peak_rss: None,
        };
        let max_rps = rounds.ladder();
        while rounds.slices.len() < ROUNDS {
            rounds.round()?;
        }
        let Rounds {
            slices,
            cpu,
            setup_s,
            peak_rss,
            ..
        } = rounds;
        let timing = timer.finish();
        out.attempted += timing.attempted;
        out.failed += timing.failed;
        let over_slices = |q: f64| {
            let per: Vec<f64> = slices
                .iter()
                .filter_map(|s| percentile(&latencies(s, |_| true), q))
                .collect();
            median(&per)
        };
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mb", peak_rss, "MiB");
        out.metric("cpu_ms_per_op", cpu.map(|(ms, ops)| ms / ops as f64), "ms");
        out.metric("solve_ms", timing.geomean_ms(Mode::ParN), "ms");
        out.metric("solve_par1_ms", timing.geomean_ms(Mode::Par1), "ms");
        out.metric("solve_seq_ms", timing.geomean_ms(Mode::Seq), "ms");
        out.metric("latency_p50_ms", over_slices(0.5), "ms");
        out.metric("latency_p99_ms", over_slices(0.99), "ms");
        out.metric("max_rps", max_rps?, "1/s");
        let per_slice = |q: f64| {
            let per = slices
                .iter()
                .map(|s| percentile(&latencies(s, |_| true), q));
            Value::Arr(per.map(|v| v.map_or(Value::Null, Value::Num)).collect())
        };
        out.details
            .push(("latency_p50_per_slice_ms".into(), per_slice(0.5)));
        out.details
            .push(("latency_p99_per_slice_ms".into(), per_slice(0.99)));
        let slice_ops = slices.iter().map(|s| s.records.len()).min().unwrap_or(0);
        out.details
            .push(("rounds".into(), Value::Num(slices.len() as f64)));
        out.details.push((
            "latency_samples_per_slice".into(),
            Value::Num(slice_ops as f64),
        ));
        out.details.push((
            "latency_tail_rule".into(),
            Value::Str(format!(
                "highest percentile with >= {} samples beyond it: p{}",
                stats::MIN_BEYOND,
                stats::highest_reportable(slice_ops).map_or(0.0, |q| q * 100.0)
            )),
        ));
        out.details
            .push(("solve_passes".into(), Value::Num(timing.passes as f64)));
        out.details.push((
            "solve_median_ms[seq,par1,par]".into(),
            Value::Obj(
                timing
                    .problems
                    .iter()
                    .map(|(name, t)| {
                        let m = |mode: Mode| t.ms(mode).map_or(Value::Null, Value::Num);
                        let row = vec![m(Mode::Seq), m(Mode::Par1), m(Mode::ParN)];
                        (name.to_string(), Value::Arr(row))
                    })
                    .collect(),
            ),
        ));
    }
    drop(target);
    if let Some(f) = fleet {
        f.shutdown();
    }
    Ok(out)
}

/// The untraced run's state across rounds.
struct Rounds<'r, 'a> {
    args: &'r Args,
    reg: &'r Registry,
    sizes: &'r [(&'static str, usize)],
    plan: Plan,
    round_s: f64,
    solve_s: Duration,
    target: &'r mut (dyn Workload + 'a),
    timer: &'r mut solver::SolveTimer<'a>,
    out: &'r mut Outcome,
    slices: Vec<PhaseOut>,
    /// Process CPU (ms) and operations over the rounds' measured parts.
    cpu: Option<(f64, u64)>,
    setup_s: Vec<f64>,
    peak_rss: Option<f64>,
}

impl Rounds<'_, '_> {
    /// One round: timed solves, one nominal slice and, every other
    /// round, one more set-up.
    fn round(&mut self) -> Result<(), String> {
        let cpu0 = host::process_cpu_ms();
        let solves = self.timer.run_for(self.solve_s);
        let cpu1 = host::process_cpu_ms();
        let slice = self.target.phase(
            self.plan.nominal_rps,
            self.round_s * self.plan.slice_share,
            false,
        );
        let cpu2 = host::process_cpu_ms();
        self.out.count_phase(&slice);
        let (from, to, ops) = if self.args.workload == "solve" {
            (cpu0, cpu1, solves)
        } else {
            (cpu1, cpu2, slice.records.len() as u64)
        };
        self.cpu = self
            .cpu
            .zip(from.zip(to))
            .map(|((ms, n), (a, b))| (ms + b - a, n + ops));
        self.slices.push(slice);
        // Peak memory of the kept set-up and one round, before the spare
        // set-ups and the ladder's top rungs add their own.
        if self.peak_rss.is_none() {
            self.peak_rss = host::peak_rss_mb();
        }
        if self.slices.len().is_multiple_of(2) {
            return Ok(());
        }
        let t = Instant::now();
        let (inst, fleet) = set_up(self.args, self.reg, self.sizes)?;
        self.setup_s.push(t.elapsed().as_secs_f64());
        drop(inst);
        if let Some(f) = fleet {
            f.shutdown();
        }
        Ok(())
    }

    /// Estimate the highest rate whose p99 meets the plan's limit with
    /// no failed operation and no growing backlog: a staircase of
    /// `plan.probes` probes on the ladder (see [`Ladder::staircase`]),
    /// with the rounds spread evenly between the probes.
    fn ladder(&mut self) -> Result<Option<f64>, String> {
        let mut tried = Vec::new();
        let mut error = None;
        let start = LADDER.rung_at_or_below(self.plan.ladder_start_rps);
        let probes = self.plan.probes;
        let probe_s = self.round_s * self.plan.probe_share * ROUNDS as f64 / probes as f64;
        let mut done = 0;
        let found = LADDER.staircase(start, probes, |k| {
            done += 1;
            while self.slices.len() * probes < done * ROUNDS && error.is_none() {
                if let Err(e) = self.round() {
                    error = Some(e);
                }
            }
            if error.is_some() {
                return false;
            }
            let rate = LADDER.rate(k);
            let phase = self.target.phase(rate, probe_s, false);
            self.out.count_phase(&phase);
            let lat = latencies(&phase, |_| true);
            let p99 = percentile(&lat, 0.99).unwrap_or(f64::INFINITY);
            let growth = backlog_growth_ms(&phase.records);
            let limit = self.plan.p99_limit_ms;
            let pass = phase.failed() == 0 && p99 <= limit && growth <= limit / 2.0;
            let p99 = if p99.is_finite() { p99 } else { -1.0 };
            let row = vec![rate, p99, growth].into_iter().map(Value::Num);
            tried.push(Value::Arr(row.chain([Value::Bool(pass)]).collect()));
            pass
        });
        if let Some(e) = error {
            return Err(e);
        }
        self.out.details.push((
            "ladder_probes[rate,p99,growth,pass]".into(),
            Value::Arr(tried),
        ));
        self.out
            .details
            .push(("p99_limit_ms".into(), Value::Num(self.plan.p99_limit_ms)));
        Ok(found)
    }
}

/// One request per problem through the router, so set-up ends with
/// every pool, connection and code path warm.
fn warm(reg: &Registry, fleet: &Fleet, seed: u64) -> Result<(), String> {
    let mut conn = ri_serve::http::ClientConn::new(fleet.addr(), fleet::CLIENT_TIMEOUT);
    for (p, name) in reg.names().iter().enumerate() {
        let body = fleet::solve_body(name, solver::spec(seed, 4_000_000 + p, REQUEST_N));
        fleet::ok_body(conn.request("POST", "/solve", Some(&body)), "warm-up")?;
    }
    Ok(())
}

/// The traced run's loaded part: the nominal phase twice — spans off,
/// then on — for the tracing overhead, and the per-problem metrics.
/// Returns the spans and the loaded p50 at the workload's entry point.
fn traced(
    out: &mut Outcome,
    reg: &Registry,
    target: &mut dyn Workload,
    plan: &Plan,
    half_s: f64,
    timing: &SolveTiming,
    construct_ms: &[f64],
) -> Result<(Vec<trace::Span>, Option<f64>), String> {
    let plain = target.phase(plan.nominal_rps, half_s, false);
    let traced = target.phase(plan.nominal_rps, half_s, true);
    out.count_phase(&plain);
    out.count_phase(&traced);
    let p50 = |ph: &PhaseOut| percentile(&latencies(ph, |_| true), 0.5);
    out.metric(
        "trace.overhead_p50_ms",
        p50(&traced).zip(p50(&plain)).map(|(a, b)| a - b),
        "ms",
    );
    let names = reg.names();
    for (i, (name, t)) in timing.problems.iter().enumerate() {
        let report = t.report.as_ref();
        let ms = |m: Mode| t.ms(m);
        out.metric(format!("{name}.par_ms"), ms(Mode::ParN), "ms");
        out.metric(format!("{name}.par1_ms"), ms(Mode::Par1), "ms");
        out.metric(format!("{name}.seq_ms"), ms(Mode::Seq), "ms");
        out.metric(
            format!("{name}.checks"),
            report.map(|r| r.checks as f64),
            "count",
        );
        out.metric(
            format!("{name}.depth"),
            report.map(|r| r.depth as f64),
            "count",
        );
        if WITH_SPECIALS.contains(name) {
            out.metric(
                format!("{name}.specials"),
                report.map(|r| r.specials.len() as f64),
                "count",
            );
        }
        out.metric(
            format!("{name}.regions"),
            report.map(|r| r.regions as f64),
            "count",
        );
        out.metric(
            format!("{name}.helper_spawns"),
            report.map(|r| r.helper_spawns as f64),
            "count",
        );
        out.metric(format!("{name}.construct_ms"), Some(construct_ms[i]), "ms");
        let p = names.iter().position(|n| n == name);
        let lat = latencies(&traced, |op| Some(traced.problem_of[op]) == p);
        out.metric(
            format!("{name}.latency_p50_ms"),
            percentile(&lat, 0.5),
            "ms",
        );
    }
    let (hits, misses) = timing
        .problems
        .iter()
        .fold((0, 0), |(h, m), (_, t)| (h + t.scratch.0, m + t.scratch.1));
    out.metric(
        "ri-pram.scratch_hit_ratio",
        (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64),
        "ratio",
    );
    let late = sorted(traced.records.iter().map(|r| r.lateness_ms()).collect());
    out.metric("client.lateness_p99_ms", percentile(&late, 0.99), "ms");
    out.metric("client.connects", Some(traced.connects as f64), "count");

    // Loaded latency at the workload's entry point, for queue wait:
    // cache misses only on `serve`, batches only on `stream`.
    let loaded = latencies(&traced, |op| !traced.bypass[op]);
    Ok((traced.spans, percentile(&loaded, 0.5)))
}

/// The traced run's unloaded part: entry-point probes, the fleet's own
/// counters, the `rayon` spawn probe and the pinned work-inflation child.
fn probes(
    args: &Args,
    reg: &Registry,
    fleet: &Fleet,
    out: &mut Outcome,
    timing: &SolveTiming,
    epoch: Instant,
    loaded_p50: Option<f64>,
) -> Result<Vec<trace::Span>, String> {
    let nproc = host::nproc();
    let mut spans = trace::SpanBuf::new(true, epoch, 0);
    let probe = layer_probe(reg, fleet, args.seed, nproc, &mut spans);
    out.attempted += probe.attempted;
    out.failed += probe.failed;
    let layers: [(&str, &[f64], &'static str); 8] = [
        ("ri-core.envelope.encode_us", &probe.encode_us, "us"),
        ("ri-core.envelope.decode_us", &probe.decode_us, "us"),
        (
            "ri-core.envelope.response_bytes",
            &probe.response_bytes,
            "bytes",
        ),
        ("ri-serve.overhead_ms", &probe.overhead_ms, "ms"),
        ("ri-serve.solve_ms", &probe.shard_solve_ms, "ms"),
        ("ri-router.hop_ms", &probe.hop_ms, "ms"),
        (
            "ri-serve.session.native_batch_ms",
            &probe.native_batch_ms,
            "ms",
        ),
        (
            "ri-serve.session.fallback_batch_ms",
            &probe.fallback_batch_ms,
            "ms",
        ),
    ];
    for (name, samples, unit) in layers {
        out.metric(name, median(samples), unit);
    }
    // Queue wait: loaded minus unloaded latency at the workload's own
    // entry point (in-process for `solve`, the router otherwise).
    let batches = [&probe.native_batch_ms[..], &probe.fallback_batch_ms[..]].concat();
    let unloaded = match &args.workload[..] {
        "solve" => median(&probe.inproc_ms),
        "serve" => median(&probe.router_ms),
        _ => median(&batches),
    };
    out.metric(
        "ri-serve.queue_wait_ms",
        loaded_p50.zip(unloaded).map(|(l, u)| l - u),
        "ms",
    );
    let entry = [&probe.inproc_ms, &probe.shard_ms, &probe.router_ms]
        .map(|xs| median(xs).map_or(Value::Null, Value::Num));
    out.details.push((
        "entry_p50_ms[inprocess,shard,router]".into(),
        Value::Arr(entry.to_vec()),
    ));

    let health = fleet.health()?;
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&health, |v, k| v.get(k))
            .and_then(Value::as_f64)
    };
    let (hits, misses) = (num(&["cache", "hits"]), num(&["cache", "misses"]));
    out.metric(
        "ri-router.cache_hit_ratio",
        hits.zip(misses)
            .filter(|(h, m)| h + m > 0.0)
            .map(|(h, m)| h / (h + m)),
        "ratio",
    );
    out.metric("ri-router.retries", num(&["retries"]), "count");
    out.metric(
        "ri-router.sessions_migrated",
        num(&["sessions", "migrated"]),
        "count",
    );

    let spawn_us = solver::spawn_us(nproc, 300);
    out.metric("rayon.spawn_us", Some(spawn_us), "us");
    for (name, t) in &timing.problems {
        let share = t
            .report
            .as_ref()
            .zip(t.ms(Mode::ParN))
            .map(|(r, par_ms)| r.helper_spawns as f64 * spawn_us / (par_ms * 1e3));
        out.metric(format!("{name}.spawn_share"), share, "ratio");
    }
    match inflation(args) {
        Ok(rows) => {
            for (name, _) in &timing.problems {
                let ratio = rows
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map(|(_, wide, one)| wide / one);
                out.metric(format!("{name}.work_inflation"), ratio, "ratio");
            }
        }
        Err(e) => {
            for (name, _) in &timing.problems {
                out.missing
                    .push((format!("{name}.work_inflation"), e.clone()));
            }
        }
    }
    Ok(spans.into_spans())
}

/// Write every span of a traced run to `results/<workload>.spans.jsonl`
/// and record the per-name self-time rollup.
fn write_spans(workload: &str, spans: &[trace::Span], out: &mut Outcome) -> Result<(), String> {
    let rollup = trace::rollup(spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            let nums = [count as f64, total, own].map(Value::Num);
            (name.to_string(), Value::Arr(nums.to_vec()))
        })
        .collect();
    out.details.push((
        "span_rollup[count,total_us,self_us]".into(),
        Value::Obj(rollup),
    ));
    let lines: String = spans
        .iter()
        .map(|s| trace::to_json_line(s) + "\n")
        .collect();
    let path = format!("{RESULTS_DIR}/{workload}.spans.jsonl");
    std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|_| std::fs::write(&path, lines))
        .map_err(|e| format!("writing {path}: {e}"))
}

/// Re-run this benchmark pinned to one CPU (`taskset -c 0`) to time
/// each instance at width `nproc` and width 1 on a single core: their
/// ratio is the work the wide code path adds, whatever the core count.
fn inflation(args: &Args) -> Result<Vec<(String, f64, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = std::process::Command::new("taskset")
        .arg("-c")
        .arg("0")
        .arg(exe)
        .args(["--inflation-child", &host::nproc().to_string()])
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("running taskset: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "pinned child failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((
                f.next()?.to_string(),
                f.next()?.parse().ok()?,
                f.next()?.parse().ok()?,
            ))
        })
        .collect())
}
