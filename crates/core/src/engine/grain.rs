//! Adaptive grain control for executor rounds.
//!
//! Prefix-doubling schedules have a long tail of small rounds (the first
//! `log n` rounds of a Type 3 run together hold fewer items than the last
//! one). Dispatching such a round through the data-parallel combinators
//! costs a parallel-region setup (scoped crew spawns in the vendored
//! scheduler) that dwarfs the round's actual work. The executors
//! therefore consult [`parallel_round`] per round: below the cutoff the
//! round body runs inline on the calling thread — same results, zero
//! scheduler involvement (`RunReport::{regions, helper_spawns}` stay 0).
//!
//! The cutoff derives from the installed pool: a region is only worth
//! starting when every one of [`rayon::recommended_splits`] chunks gets
//! at least [`rayon::MIN_CHUNK`] items, and never below the combinators'
//! own [`rayon::MIN_PAR_LEN`] floor. It is also clamped from above
//! ([`MAX_SEQUENTIAL_CUTOFF`]): the executors cannot see per-item cost,
//! and an unclamped cutoff at wide pools would serialise mid-size rounds
//! of *expensive* iterations (a Delaunay activity check does geometry
//! per item) that are well worth a crew. With 1 ambient thread
//! (sequential mode, `threads == 1` configs) every round is inline by
//! definition.

/// Ceiling on [`sequential_cutoff`] at any pool width (4 ×
/// [`rayon::MIN_PAR_LEN`]): past this many items a round goes parallel
/// regardless of how many splits the pool would prefer.
pub const MAX_SEQUENTIAL_CUTOFF: usize = 4 * rayon::MIN_PAR_LEN;

/// Round sizes strictly below this run inline on the caller. Depends on
/// the ambient thread count, so evaluate it *inside* the installed pool.
pub fn sequential_cutoff() -> usize {
    if rayon::current_num_threads() <= 1 {
        return usize::MAX;
    }
    (rayon::recommended_splits() * rayon::MIN_CHUNK)
        .clamp(rayon::MIN_PAR_LEN, MAX_SEQUENTIAL_CUTOFF)
}

/// Should a round over `len` items use the parallel path?
pub fn parallel_round(len: usize) -> bool {
    len >= sequential_cutoff()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_is_always_inline() {
        rayon::ThreadPool::new(1).install(|| {
            assert_eq!(sequential_cutoff(), usize::MAX);
            assert!(!parallel_round(usize::MAX - 1));
        });
    }

    #[test]
    fn cutoff_scales_with_installed_width_up_to_the_clamp() {
        let narrow = rayon::ThreadPool::new(2).install(sequential_cutoff);
        let wide = rayon::ThreadPool::new(8).install(sequential_cutoff);
        assert!(narrow >= rayon::MIN_PAR_LEN);
        assert!(wide >= narrow, "wider pools need larger rounds to pay off");
        assert!(
            wide <= MAX_SEQUENTIAL_CUTOFF,
            "the clamp bounds serialisation at any width"
        );
        assert!(rayon::ThreadPool::new(8).install(|| parallel_round(wide)));
        assert!(!rayon::ThreadPool::new(8).install(|| parallel_round(wide - 1)));
    }
}
