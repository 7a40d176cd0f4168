//! The in-process entry point: registry instances, the three timed
//! solve modes, reference answers, and the `rayon` probes.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ri_core::engine::json::Value;
use ri_core::engine::{
    ErasedProblem, OutputSummary, Registry, RoundTrace, RunConfig, RunReport, Runner, WorkloadSpec,
};

use crate::load::derive;
use crate::stats::median;

/// Default instance sizes of the `solve` workload (the `speedup` sizes).
pub const SOLVE_SIZES: [(&str, usize); 9] = [
    ("sort", 200_000),
    ("sort-batch", 200_000),
    ("delaunay", 20_000),
    ("lp", 300_000),
    ("lp-d", 60_000),
    ("closest-pair", 200_000),
    ("enclosing", 300_000),
    ("le-lists", 15_000),
    ("scc", 60_000),
];

/// Problems whose reports carry special iterations (Type 2).
pub const WITH_SPECIALS: [&str; 4] = ["lp", "lp-d", "closest-pair", "enclosing"];

/// Run-time seed of every solve (the workload seed varies, this does not).
pub const CONFIG_SEED: u64 = 7;

/// The three timed modes: sequential, parallel at width 1 and parallel
/// at the host's width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Seq,
    Par1,
    ParN,
}

pub const MODES: [Mode; 3] = [Mode::Seq, Mode::Par1, Mode::ParN];

impl Mode {
    pub fn config(self, nproc: usize) -> RunConfig {
        let base = RunConfig::new().seed(CONFIG_SEED).instrument(false);
        match self {
            Mode::Seq => base.sequential(),
            Mode::Par1 => base.parallel().threads(1),
            Mode::ParN => base.parallel().threads(nproc),
        }
    }
}

/// The mode-invariant answer as canonical JSON: equal strings are equal
/// answers.
pub fn fingerprint(summary: &OutputSummary) -> String {
    Value::Obj(summary.answer().to_vec()).write()
}

/// Workload spec of one problem at size `n`, its generator seed derived
/// from the benchmark seed and a slot number.
pub fn spec(seed: u64, slot: usize, n: usize) -> WorkloadSpec {
    // Keep below 2^53 so the seed survives the JSON envelope exactly.
    WorkloadSpec::new(n, derive(seed, slot as u64) >> 11)
}

/// How a problem's instances are timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstancePlan {
    /// Instances built in set-up.
    pub count: usize,
    /// Instances solved per pass, taken in turn so every instance is
    /// timed about equally often.
    pub per_pass: usize,
    /// Whether a pass's instances make one sample (their mean) rather
    /// than one sample each.
    pub together: bool,
}

/// Small instances cost microseconds, so a sample solves eight of them
/// back to back and records the mean. At the `speedup` sizes a sample is
/// one solve. A problem with special iterations gets many instances:
/// where its specials fall sets its cost, which spans a factor of 5 to
/// 25 between draws of one size (lp-d: 2.6 to 63 ms at n=60k), so its
/// time is taken over many draws; the dearer ones rotate their
/// instances between passes.
pub fn instance_plan(name: &str, n: usize) -> InstancePlan {
    let (count, per_pass, together) = match name {
        _ if n <= SMALL_N => (8, 8, true),
        "lp" => (16, 8, false),
        "lp-d" => (20, 2, false),
        "enclosing" => (16, 4, false),
        "closest-pair" => (10, 1, false),
        _ => (1, 1, false),
    };
    InstancePlan {
        count,
        per_pass,
        together,
    }
}

/// Largest instance size timed in groups.
const SMALL_N: usize = 4096;

/// The constructed instances of every problem, with the median time one
/// construction took.
pub struct Instances {
    pub problems: Vec<(&'static str, Vec<Box<dyn ErasedProblem>>)>,
    pub plan: Vec<InstancePlan>,
    pub construct_ms: Vec<f64>,
}

pub fn construct(
    reg: &Registry,
    sizes: &[(&'static str, usize)],
    seed: u64,
) -> Result<Instances, String> {
    let mut problems = Vec::new();
    let mut plans = Vec::new();
    let mut construct_ms = Vec::new();
    for (i, &(name, n)) in sizes.iter().enumerate() {
        let mut built = Vec::new();
        let mut times = Vec::new();
        let plan = instance_plan(name, n);
        plans.push(plan);
        for k in 0..plan.count {
            let t = Instant::now();
            let p = reg
                .construct(name, &spec(seed, i + 100 * k, n))
                .map_err(|e| format!("constructing {name}: {e}"))?;
            times.push(t.elapsed().as_secs_f64() * 1e3);
            built.push(p);
        }
        construct_ms.push(median(&times).unwrap_or(f64::NAN));
        problems.push((name, built));
    }
    Ok(Instances {
        problems,
        plan: plans,
        construct_ms,
    })
}

/// Timings of one problem in each mode: per mode, the samples of each
/// instance (or, for instances timed together, of each group), with the
/// width-`nproc` report of its first instance.
#[derive(Default)]
pub struct ProblemTiming {
    samples: [Vec<Vec<f64>>; 3],
    pub report: Option<RunReport>,
    pub scratch: (u64, u64),
}

impl ProblemTiming {
    fn push(&mut self, mode: Mode, slot: usize, ms: f64) {
        let slots = &mut self.samples[mode as usize];
        if slots.len() <= slot {
            slots.resize(slot + 1, Vec::new());
        }
        slots[slot].push(ms);
    }

    /// The problem's time in `mode`: the geometric mean over instances
    /// of each instance's median time.
    pub fn ms(&self, mode: Mode) -> Option<f64> {
        let per: Vec<f64> = self.samples[mode as usize]
            .iter()
            .filter_map(|xs| median(xs))
            .collect();
        crate::stats::geomean(&per)
    }
}

pub struct SolveTiming {
    pub problems: Vec<(&'static str, ProblemTiming)>,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
}

impl SolveTiming {
    /// Geometric mean over problems of their time in `mode`.
    pub fn geomean_ms(&self, mode: Mode) -> Option<f64> {
        let per: Option<Vec<f64>> = self.problems.iter().map(|(_, t)| t.ms(mode)).collect();
        crate::stats::geomean(&per?)
    }
}

/// Times every problem in every mode, pass after pass. Each pass takes
/// the next instances of a problem in turn (see [`instance_plan`]), and
/// the mode order rotates between passes so no mode always runs on a warm or
/// cold cache. Every answer is checked against the sequential answer of
/// its instance.
pub struct SolveTimer<'a> {
    inst: &'a Instances,
    nproc: usize,
    timing: SolveTiming,
    reference: Vec<Vec<Option<String>>>,
}

impl<'a> SolveTimer<'a> {
    pub fn new(inst: &'a Instances, nproc: usize) -> Self {
        SolveTimer {
            inst,
            nproc,
            timing: SolveTiming {
                problems: inst
                    .problems
                    .iter()
                    .map(|(n, _)| (*n, ProblemTiming::default()))
                    .collect(),
                attempted: 0,
                failed: 0,
                passes: 0,
            },
            reference: inst
                .problems
                .iter()
                .map(|(_, v)| vec![None; v.len()])
                .collect(),
        }
    }

    /// Run whole passes while the next one, as long as the last, still
    /// fits in `budget` (at least one pass); returns the number of
    /// solves run.
    pub fn run_for(&mut self, budget: Duration) -> u64 {
        let before = self.timing.attempted;
        let start = Instant::now();
        loop {
            let t = Instant::now();
            self.pass();
            if start.elapsed() + t.elapsed() > budget {
                return self.timing.attempted - before;
            }
        }
    }

    fn pass(&mut self) {
        let pass = self.timing.passes;
        for (i, (name, instances)) in self.inst.problems.iter().enumerate() {
            let plan = self.inst.plan[i];
            let first = pass * plan.per_pass;
            for k in 0..3 {
                let mode = MODES[(pass + k) % 3];
                let mut total_ms = 0.0;
                for j in first..first + plan.per_pass {
                    let which = j % instances.len();
                    let t = Instant::now();
                    let (summary, report) = instances[which].solve_erased(&mode.config(self.nproc));
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    self.timing.attempted += 1;
                    if !self.check(i, which, mode, &summary) {
                        self.timing.failed += 1;
                        eprintln!("ribench: {name} {mode:?} answer differs from sequential");
                    }
                    let timing = &mut self.timing.problems[i].1;
                    if plan.together {
                        total_ms += ms;
                    } else {
                        timing.push(mode, which, ms);
                    }
                    if mode == Mode::ParN {
                        timing.scratch.0 += report.scratch_hits;
                        timing.scratch.1 += report.scratch_misses;
                        if which == 0 {
                            timing.report = Some(report);
                        }
                    }
                }
                if plan.together {
                    let slot = (first % instances.len()) / plan.per_pass;
                    let mean = total_ms / plan.per_pass as f64;
                    self.timing.problems[i].1.push(mode, slot, mean);
                }
            }
        }
        self.timing.passes += 1;
    }

    /// Whether `summary` matches the sequential answer of instance
    /// `which` of problem `i` (solved sequentially on first sight).
    fn check(&mut self, i: usize, which: usize, mode: Mode, summary: &OutputSummary) -> bool {
        let print = fingerprint(summary);
        let problem = &self.inst.problems[i].1[which];
        let nproc = self.nproc;
        let want = self.reference[i][which].get_or_insert_with(|| {
            if mode == Mode::Seq {
                print.clone()
            } else {
                fingerprint(&problem.solve_erased(&Mode::Seq.config(nproc)).0)
            }
        });
        *want == print
    }

    pub fn finish(self) -> SolveTiming {
        self.timing
    }
}

/// The reference a served or streamed answer is checked against: the
/// in-process solve of the same key (answer and round trace).
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub answer: String,
    pub trace: RoundTrace,
}

/// Memoised references keyed by (problem, workload seed, n).
#[derive(Default)]
pub struct References {
    memo: HashMap<(String, u64, usize), Reference>,
}

impl References {
    /// The reference for `problem` on `spec` under `cfg` (the request's
    /// own config; its width does not change answer or trace).
    pub fn get(
        &mut self,
        reg: &Registry,
        problem: &str,
        spec: &WorkloadSpec,
        cfg: &RunConfig,
    ) -> Result<&Reference, String> {
        let key = (problem.to_string(), spec.seed, spec.n);
        if !self.memo.contains_key(&key) {
            let (summary, report) = reg
                .solve(problem, spec, &cfg.clone().threads(1))
                .map_err(|e| format!("reference {problem}: {e}"))?;
            self.memo.insert(
                key.clone(),
                Reference {
                    answer: fingerprint(&summary),
                    trace: RoundTrace::from_report(&report),
                },
            );
        }
        Ok(&self.memo[&key])
    }
}

/// Median wall time of `rayon::join` on two empty closures inside the
/// width-`nproc` pool, in microseconds: the cost of one parallel region's
/// helper spawn and join.
pub fn spawn_us(nproc: usize, reps: usize) -> f64 {
    let pool = Runner::pool(nproc);
    let times: Vec<f64> = pool.install(|| {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                rayon::join(|| std::hint::black_box(1), || std::hint::black_box(2));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    });
    median(&times).unwrap_or(f64::NAN)
}

/// Body of the pinned child process: time each instance at width
/// `nproc` and at width 1, alternating, and print one line per problem:
/// `name median_par_ms median_par1_ms`.
pub fn inflation_child(inst: &Instances, nproc: usize, reps: usize) -> String {
    let mut out = String::new();
    for (name, instances) in &inst.problems {
        let (mut wide, mut one) = (Vec::new(), Vec::new());
        for r in 0..reps {
            let problem = &instances[r % instances.len()];
            for mode in if r % 2 == 0 {
                [Mode::ParN, Mode::Par1]
            } else {
                [Mode::Par1, Mode::ParN]
            } {
                let t = Instant::now();
                std::hint::black_box(problem.solve_erased(&mode.config(nproc)));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if mode == Mode::ParN {
                    wide.push(ms);
                } else {
                    one.push(ms);
                }
            }
        }
        out.push_str(&format!(
            "{name} {} {}\n",
            median(&wide).unwrap_or(f64::NAN),
            median(&one).unwrap_or(f64::NAN)
        ));
    }
    out
}
