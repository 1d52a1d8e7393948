//! Word-at-a-time kernels over `u64` word bitsets.
//!
//! One tier: plain zipped loops over whole `u64` words. Pure `std`, no
//! `unsafe`, no lane type, no target-feature detection: a zipped slice loop
//! is exactly the shape LLVM autovectorizes, so a hand-rolled lane grouping
//! on top buys nothing. The kernels are pinned against per-bit semantics by
//! the unit test below and by the word-boundary proptests in this crate's
//! root.

/// `a & b` into a fresh vector.
pub fn and(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert_eq!(a.len(), b.len(), "word slices of different lengths");
    a.iter().zip(b).map(|(&x, &y)| x & y).collect()
}

/// `a | b` into a fresh vector.
pub fn or(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert_eq!(a.len(), b.len(), "word slices of different lengths");
    a.iter().zip(b).map(|(&x, &y)| x | y).collect()
}

/// `a & !b` into a fresh vector.
pub fn and_not(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert_eq!(a.len(), b.len(), "word slices of different lengths");
    a.iter().zip(b).map(|(&x, &y)| x & !y).collect()
}

/// In-place `dst &= src`.
pub fn and_in_place(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "word slices of different lengths");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

/// In-place `dst |= src`.
pub fn or_in_place(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "word slices of different lengths");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// In-place `dst &= !src`.
pub fn and_not_in_place(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "word slices of different lengths");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d &= !s;
    }
}

/// Popcount of a word bitset.
pub fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Whether any bit is set (short-circuits on the first non-zero word).
pub fn any(words: &[u64]) -> bool {
    words.iter().any(|&w| w != 0)
}

/// Calls `f` with every set bit's index, ascending: an allocation-free
/// trailing-zeros walk shared by the BFS and peeling kernels.
#[inline]
pub fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (idx, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            f(idx * 64 + bit);
            w &= w - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set-bit indices of a word slice, one bit test at a time.
    fn bits(words: &[u64]) -> Vec<usize> {
        (0..words.len() * 64).filter(|&i| words[i / 64] >> (i % 64) & 1 == 1).collect()
    }

    #[test]
    fn kernels_match_a_per_bit_model() {
        for len in 0usize..6 {
            let a: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
            let b: Vec<u64> =
                (0..len as u64).map(|i| (i + 7).wrapping_mul(0xBF58476D1CE4E5B9)).collect();
            let (sa, sb) = (bits(&a), bits(&b));
            let both: Vec<usize> = sa.iter().copied().filter(|i| sb.contains(i)).collect();
            let only_a: Vec<usize> = sa.iter().copied().filter(|i| !sb.contains(i)).collect();
            let mut either = [sa.clone(), sb.clone()].concat();
            either.sort_unstable();
            either.dedup();

            assert_eq!(bits(&and(&a, &b)), both, "and len={len}");
            assert_eq!(bits(&or(&a, &b)), either, "or len={len}");
            assert_eq!(bits(&and_not(&a, &b)), only_a, "and_not len={len}");
            assert_eq!(popcount(&a), sa.len(), "popcount len={len}");
            assert_eq!(any(&a), !sa.is_empty(), "any len={len}");
            let mut d = a.clone();
            and_in_place(&mut d, &b);
            assert_eq!(d, and(&a, &b), "and_in_place len={len}");
            let mut d = a.clone();
            or_in_place(&mut d, &b);
            assert_eq!(d, or(&a, &b), "or_in_place len={len}");
            let mut d = a.clone();
            and_not_in_place(&mut d, &b);
            assert_eq!(d, and_not(&a, &b), "and_not_in_place len={len}");
        }
    }

    #[test]
    fn for_each_set_bit_walks_ascending() {
        let words = [0b101u64, 0, 1 << 63];
        let mut seen = Vec::new();
        for_each_set_bit(&words, |i| seen.push(i));
        assert_eq!(seen, vec![0, 2, 191]);
    }
}
