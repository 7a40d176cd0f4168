//! Load generation: seeded draws, the open-loop schedule, the seeded
//! key sampler and the max-rate ladder search.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so every input the benchmark
/// builds is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A value derived from `seed` and a stream label: independent streams
/// for independent draws, all fixed by the benchmark seed.
pub fn derive(seed: u64, label: u64) -> u64 {
    SplitMix::new(seed ^ label.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// When op `index` is due, as an offset from the schedule start.
pub fn due_offset(index: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(index as f64 / rate)
}

/// One scheduled operation, with times in seconds since schedule start.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub index: usize,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub ok: bool,
}

impl OpRecord {
    /// Latency counted from the due time, so a stalled generator's
    /// backlog is charged to the operations it delayed.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How far behind its due time the operation was sent.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }
}

/// Growth of lateness over a run: mean lateness of the last third of
/// the schedule minus that of the first third. A generator that keeps
/// up stays near zero; one whose backlog grows does not.
pub fn backlog_growth_ms(records: &[OpRecord]) -> f64 {
    let mut by_index: Vec<&OpRecord> = records.iter().collect();
    by_index.sort_by_key(|r| r.index);
    let third = by_index.len() / 3;
    if third == 0 {
        return 0.0;
    }
    let mean = |rs: &[&OpRecord]| rs.iter().map(|r| r.lateness_ms()).sum::<f64>() / rs.len() as f64;
    mean(&by_index[by_index.len() - third..]) - mean(&by_index[..third])
}

/// How scheduled operations are assigned to client threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Any idle thread takes the next due operation (stateless requests).
    Shared,
    /// Thread `t` owns operations `t, t + threads, ...` (stateful
    /// sessions whose operations must stay in order on one thread).
    PerThread,
}

/// Run `ops` operations open-loop at `rate` per second on `threads`
/// client threads. Each thread's state comes from `init(thread)`; `op`
/// performs one operation and says whether it succeeded. Returns every
/// operation's record and each thread's final state.
pub fn run_open_loop<S, I, F>(
    threads: usize,
    rate: f64,
    ops: usize,
    dispatch: Dispatch,
    init: I,
    op: F,
) -> (Vec<OpRecord>, Vec<S>)
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<(Vec<OpRecord>, S)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (next, init, op) = (&next, &init, &op);
                scope.spawn(move || {
                    let mut state = init(t);
                    let mut records = Vec::new();
                    let mut own = t;
                    loop {
                        let index = match dispatch {
                            Dispatch::Shared => next.fetch_add(1, Ordering::Relaxed),
                            Dispatch::PerThread => {
                                let i = own;
                                own += threads;
                                i
                            }
                        };
                        if index >= ops {
                            break;
                        }
                        let due = due_offset(index, rate);
                        let now = Instant::now();
                        if start + due > now {
                            std::thread::sleep(start + due - now);
                        }
                        let sent = start.elapsed_or_zero();
                        let ok = op(&mut state, index);
                        let done = start.elapsed_or_zero();
                        records.push(OpRecord {
                            index,
                            due: due.as_secs_f64(),
                            sent: sent.as_secs_f64(),
                            done: done.as_secs_f64(),
                            ok,
                        });
                    }
                    (records, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut records = Vec::with_capacity(ops);
    let mut states = Vec::with_capacity(threads);
    for (r, s) in results {
        records.extend(r);
        states.push(s);
    }
    records.sort_by_key(|r| r.index);
    (records, states)
}

trait ElapsedOrZero {
    fn elapsed_or_zero(&self) -> Duration;
}

impl ElapsedOrZero for Instant {
    /// Time since `self`, zero while `self` is still in the future.
    fn elapsed_or_zero(&self) -> Duration {
        Instant::now().saturating_duration_since(*self)
    }
}

/// One draw of the key sampler: a slot of the key universe and whether
/// it repeats a recently sent key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyDraw {
    pub slot: usize,
    pub repeat: bool,
}

/// Seeded key sampler. Fresh draws walk a universe of `universe` slots
/// in order, so a fresh key recurs only after `universe` other fresh
/// keys; with probability `repeat_share` a draw instead repeats one of
/// the last `window` fresh keys, skipping the newest `lag` (which may
/// still be in flight on another client thread).
#[derive(Debug, Clone)]
pub struct KeySampler {
    rng: SplitMix,
    repeat_share: f64,
    window: usize,
    lag: usize,
    universe: usize,
    fresh: usize,
    recent: VecDeque<usize>,
}

impl KeySampler {
    pub fn new(seed: u64, repeat_share: f64, window: usize, lag: usize, universe: usize) -> Self {
        assert!(
            universe > window + lag,
            "the universe must outgrow the repeat window"
        );
        KeySampler {
            rng: SplitMix::new(seed),
            repeat_share,
            window,
            lag,
            universe,
            fresh: 0,
            recent: VecDeque::with_capacity(window + lag),
        }
    }

    pub fn next_draw(&mut self) -> KeyDraw {
        let eligible = self.recent.len().saturating_sub(self.lag);
        if eligible > 0 && self.rng.unit() < self.repeat_share {
            // `recent` is newest-first: skip the newest `lag` entries.
            let slot = self.recent[self.lag + self.rng.below(eligible)];
            return KeyDraw { slot, repeat: true };
        }
        let slot = self.fresh % self.universe;
        self.fresh += 1;
        self.recent.push_front(slot);
        self.recent.truncate(self.window + self.lag);
        KeyDraw {
            slot,
            repeat: false,
        }
    }
}

/// First step of the staircase, in rungs; it halves at each reversal
/// until it is one rung.
const FIRST_STEP: usize = 4;

/// A fixed geometric ladder of rates: rung `k` is `base * ratio^k`.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    pub base: f64,
    pub ratio: f64,
    pub rungs: usize,
}

impl Ladder {
    pub fn rate(&self, rung: usize) -> f64 {
        self.base * self.ratio.powi(rung as i32)
    }

    /// The rung whose rate is closest to `rate` from below.
    pub fn rung_at_or_below(&self, rate: f64) -> usize {
        let k = ((rate / self.base).ln() / self.ratio.ln()).floor();
        (k.max(0.0) as usize).min(self.rungs - 1)
    }

    /// The rate at which `passes` holds half the time, found by an
    /// up-down staircase of `probes` probes from `start` (fewer only if
    /// rung 0 misses): up a
    /// step after a pass, down a step after a miss, the step halving at
    /// each reversal from [`FIRST_STEP`] rungs down to one. Near its
    /// limit a probe passes or misses by chance, so the estimate is the
    /// geometric mean of the rates probed once the step is one rung,
    /// not a single pass/miss boundary. When the staircase never
    /// settles it is the highest rung that passed; `None` when none
    /// did. `passes` is called with the rung index.
    pub fn staircase(
        &self,
        start: usize,
        probes: usize,
        mut passes: impl FnMut(usize) -> bool,
    ) -> Option<f64> {
        let top = self.rungs - 1;
        let (mut k, mut step) = (start.min(top), FIRST_STEP);
        let mut last = None;
        let mut best = None;
        let mut settled = Vec::new();
        for _ in 0..probes {
            let pass = passes(k);
            if last.is_some_and(|l| l != pass) {
                step = (step / 2).max(1);
            }
            last = Some(pass);
            if step == 1 {
                settled.push(k as f64);
            }
            if pass {
                best = best.max(Some(k));
                k = (k + step).min(top);
            } else if k == 0 {
                break;
            } else {
                k = k.saturating_sub(step);
            }
        }
        if settled.len() >= 2 {
            let mean = settled.iter().sum::<f64>() / settled.len() as f64;
            Some(self.base * self.ratio.powf(mean))
        } else {
            best.map(|k| self.rate(k))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_offset(0, 100.0), Duration::ZERO);
        assert_eq!(due_offset(50, 100.0), Duration::from_millis(500));
        assert_eq!(due_offset(3, 1000.0), Duration::from_millis(3));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let r = OpRecord {
            index: 0,
            due: 1.0,
            sent: 1.004,
            done: 1.010,
            ok: true,
        };
        assert!((r.latency_ms() - 10.0).abs() < 1e-9);
        assert!((r.lateness_ms() - 4.0).abs() < 1e-9);
        // An operation sent early (clock granularity) is never negatively late.
        let early = OpRecord { sent: 0.999, ..r };
        assert_eq!(early.lateness_ms(), 0.0);
    }

    #[test]
    fn backlog_growth_separates_steady_from_falling_behind() {
        let rec = |i: usize, late: f64| OpRecord {
            index: i,
            due: i as f64,
            sent: i as f64 + late,
            done: i as f64 + late + 0.001,
            ok: true,
        };
        let steady: Vec<_> = (0..30).map(|i| rec(i, 0.001)).collect();
        assert!(backlog_growth_ms(&steady).abs() < 1e-9);
        let growing: Vec<_> = (0..30).map(|i| rec(i, i as f64 * 0.002)).collect();
        assert!(backlog_growth_ms(&growing) > 30.0);
    }

    #[test]
    fn open_loop_waits_for_due_times_and_reports_lateness() {
        let (records, states) = run_open_loop(
            2,
            200.0,
            20,
            Dispatch::Shared,
            |_| 0usize,
            |count, _| {
                *count += 1;
                true
            },
        );
        assert_eq!(records.len(), 20);
        assert_eq!(states.iter().sum::<usize>(), 20);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!((r.due - i as f64 / 200.0).abs() < 1e-9);
            // Never sent before it was due.
            assert!(r.sent + 1e-9 >= r.due, "op {i} sent early");
            assert!(r.done >= r.sent);
        }
        // A slow operation makes the ones queued behind it late.
        let (records, _) = run_open_loop(
            1,
            1000.0,
            5,
            Dispatch::PerThread,
            |_| (),
            |_, i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                true
            },
        );
        assert!(records[1].lateness_ms() > 15.0);
        assert!(records[1].latency_ms() >= records[1].lateness_ms());
    }

    #[test]
    fn per_thread_dispatch_keeps_each_threads_ops_in_order() {
        let (_, states) = run_open_loop(
            3,
            5000.0,
            30,
            Dispatch::PerThread,
            |_| Vec::new(),
            |seen: &mut Vec<usize>, i| {
                seen.push(i);
                true
            },
        );
        for (t, seen) in states.iter().enumerate() {
            let expect: Vec<usize> = (0..30).filter(|i| i % 3 == t).collect();
            assert_eq!(seen, &expect);
        }
    }

    #[test]
    fn sampler_repeat_share_and_window() {
        let (window, lag, universe) = (64, 2, 576);
        let mut s = KeySampler::new(42, 0.25, window, lag, universe);
        let draws: Vec<KeyDraw> = (0..20_000).map(|_| s.next_draw()).collect();
        let repeats = draws.iter().filter(|d| d.repeat).count();
        let share = repeats as f64 / draws.len() as f64;
        assert!((share - 0.25).abs() < 0.02, "repeat share {share}");
        // Every repeat names a key among the last `window + lag` fresh
        // keys but not among the newest `lag`.
        let mut fresh: Vec<usize> = Vec::new();
        for d in &draws {
            if d.repeat {
                let pos = fresh.iter().rev().position(|&k| k == d.slot).unwrap();
                assert!(pos >= lag && pos < window + lag, "repeat at age {pos}");
            } else {
                fresh.push(d.slot);
            }
        }
        // Fresh keys walk the universe: none recurs within `universe` draws.
        for (i, k) in fresh.iter().enumerate() {
            assert_eq!(*k, i % universe);
        }
    }

    #[test]
    fn sampler_is_a_function_of_its_seed() {
        let run = |seed| {
            let mut s = KeySampler::new(seed, 0.25, 16, 1, 100);
            (0..500).map(|_| s.next_draw()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn staircase_settles_on_the_limit() {
        let ladder = Ladder {
            base: 100.0,
            ratio: 1.05,
            rungs: 120,
        };
        assert!(ladder.rate(1) / ladder.rate(0) - 1.0 <= 0.10 + 1e-12);
        // A sharp limit: the staircase ends up alternating between the
        // highest passing rung and the one above it.
        for limit in [7usize, 30, 63] {
            for start in [10usize, 50] {
                let mut calls = 0;
                let rate = ladder
                    .staircase(start, 24, |k| {
                        calls += 1;
                        k <= limit
                    })
                    .unwrap();
                assert_eq!(calls, 24);
                let lo = ladder.rate(limit);
                assert!(
                    rate >= lo && rate <= ladder.rate(limit + 1),
                    "{rate} vs {lo}"
                );
            }
        }
        // A noisy limit: rungs pass with falling probability; the estimate
        // lands near the rung that passes half the time, wherever it starts.
        for start in [20usize, 60] {
            let mut rng = SplitMix::new(3);
            let estimates: Vec<f64> = (0..40)
                .map(|_| {
                    ladder
                        .staircase(start, 24, |k| {
                            let p = (0.5 - (k as f64 - 40.0) / 8.0).clamp(0.0, 1.0);
                            rng.unit() < p
                        })
                        .unwrap()
                })
                .collect();
            let mid = crate::stats::median(&estimates).unwrap();
            assert!((mid / ladder.rate(40) - 1.0).abs() < 0.06, "{mid}");
        }
        assert_eq!(ladder.staircase(10, 8, |_| false), None);
        let top = ladder.staircase(119, 3, |_| true).unwrap();
        assert!((top / ladder.rate(119) - 1.0).abs() < 1e-9, "{top}");
        assert_eq!(ladder.rung_at_or_below(100.0), 0);
        assert_eq!(ladder.rung_at_or_below(110.3), 2);
    }
}
