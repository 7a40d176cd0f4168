//! Filter-and-pack (compaction).
//!
//! The paper's parallel Delaunay step "applies and filters on the InCircle
//! tests ... using processor allocation and compaction" (§4); Type 2
//! executors compact the surviving iterations of each prefix. `pack` is the
//! deterministic (exact, not approximate) version of that primitive: it
//! preserves input order, so parallel runs remain reproducible.
//!
//! The textbook flag→scan→scatter pipeline is fused here into a **single
//! parallel pass**: each chunk filters its survivors locally and the
//! chunk outputs concatenate in chunk order (order-preserving). The
//! n-sized offset array and its scan — two full passes over the data that
//! existed only to pre-compute scatter positions — are gone entirely, and
//! the `*_into` variants write into a reused, capacity-preserving buffer
//! so round-based callers allocate nothing in steady state.

use rayon::prelude::*;

use crate::SEQ_THRESHOLD;

/// Keep the elements whose flag is `true`, preserving order.
pub fn pack<T: Clone + Send + Sync>(items: &[T], flags: &[bool]) -> Vec<T> {
    let mut out = Vec::new();
    pack_into(items, flags, &mut out);
    out
}

/// [`pack`] into a reused buffer: `out` is cleared and filled, keeping
/// its capacity. One fused parallel pass (filter and gather per chunk);
/// short inputs run inline on the caller.
pub fn pack_into<T: Clone + Send + Sync>(items: &[T], flags: &[bool], out: &mut Vec<T>) {
    assert_eq!(items.len(), flags.len(), "pack: length mismatch");
    out.clear();
    if items.len() <= SEQ_THRESHOLD || !rayon::should_parallelize(items.len()) {
        out.extend(
            items
                .iter()
                .zip(flags)
                .filter(|(_, &f)| f)
                .map(|(x, _)| x.clone()),
        );
        return;
    }
    let chunk = items.len().div_ceil(rayon::recommended_splits());
    // Per-chunk local packs, concatenated in chunk order (order preserving).
    let parts: Vec<Vec<T>> = items
        .par_chunks(chunk)
        .zip(flags.par_chunks(chunk))
        .map(|(is, fs)| {
            is.iter()
                .zip(fs)
                .filter(|(_, &f)| f)
                .map(|(x, _)| x.clone())
                .collect::<Vec<T>>()
        })
        .collect();
    out.reserve(parts.iter().map(Vec::len).sum());
    for p in parts {
        out.extend(p);
    }
}

/// Indices `i` with `flags[i] == true`, in increasing order.
pub fn pack_indices(flags: &[bool]) -> Vec<usize> {
    pack_indices_where(flags.len(), |i| flags[i])
}

/// Indices `0..n` satisfying `pred`, in increasing order, evaluated in
/// parallel. `pred` must be pure.
pub fn pack_indices_where<F>(n: usize, pred: F) -> Vec<usize>
where
    F: Fn(usize) -> bool + Sync,
{
    let mut out = Vec::new();
    pack_indices_where_into(n, pred, &mut out);
    out
}

/// [`pack_indices_where`] into a reused buffer (cleared first, capacity
/// kept).
pub fn pack_indices_where_into<F>(n: usize, pred: F, out: &mut Vec<usize>)
where
    F: Fn(usize) -> bool + Sync,
{
    out.clear();
    if n <= SEQ_THRESHOLD || !rayon::should_parallelize(n) {
        out.extend((0..n).filter(|&i| pred(i)));
        return;
    }
    let nchunks = rayon::recommended_splits();
    let chunk = n.div_ceil(nchunks);
    let parts: Vec<Vec<usize>> = (0..nchunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * chunk;
            let hi = ((c + 1) * chunk).min(n);
            (lo..hi).filter(|&i| pred(i)).collect::<Vec<usize>>()
        })
        .collect();
    out.reserve(parts.iter().map(Vec::len).sum());
    for p in parts {
        out.extend(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_keeps_order() {
        let items: Vec<u32> = (0..10).collect();
        let flags: Vec<bool> = items.iter().map(|&x| x % 3 == 0).collect();
        assert_eq!(pack(&items, &flags), vec![0, 3, 6, 9]);
    }

    #[test]
    fn pack_empty_and_full() {
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(pack(&items, &[false; 100]), Vec::<u32>::new());
        assert_eq!(pack(&items, &[true; 100]), items);
    }

    #[test]
    fn pack_large_parallel_path() {
        let items: Vec<u64> = (0..200_000).collect();
        let flags: Vec<bool> = items.iter().map(|&x| x % 7 == 0).collect();
        let got = rayon::ThreadPool::new(4).install(|| pack(&items, &flags));
        let want: Vec<u64> = items.iter().copied().filter(|&x| x % 7 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pack_into_reuses_capacity() {
        let items: Vec<u64> = (0..100_000).collect();
        let flags: Vec<bool> = items.iter().map(|&x| x % 2 == 0).collect();
        let mut out = Vec::new();
        pack_into(&items, &flags, &mut out);
        let want: Vec<u64> = items.iter().copied().filter(|&x| x % 2 == 0).collect();
        assert_eq!(out, want);
        let cap = out.capacity();
        // A second pack into the same buffer must not grow it.
        pack_into(&items, &flags, &mut out);
        assert_eq!(out, want);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn pack_indices_matches_filter() {
        let n = 100_000;
        let got = rayon::ThreadPool::new(4).install(|| pack_indices_where(n, |i| i % 13 == 5));
        let want: Vec<usize> = (0..n).filter(|&i| i % 13 == 5).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pack_indices_into_matches_direct() {
        let mut out = vec![1, 2, 3]; // stale contents must be cleared
        pack_indices_where_into(10_000, |i| i % 4 == 1, &mut out);
        let want: Vec<usize> = (0..10_000).filter(|&i| i % 4 == 1).collect();
        assert_eq!(out, want);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pack_length_mismatch_panics() {
        pack(&[1, 2, 3], &[true]);
    }
}
