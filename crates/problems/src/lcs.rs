//! Longest common subsequence — the problem behind the paper's Fig 7
//! tuning experiment (anti-diagonal pattern), plus the Allison–Dix
//! bit-parallel algorithm \[1\] as the "fast problem-specific solution"
//! the introduction contrasts the generic framework against.
//!
//! \[1\] L. Allison, T. I. Dix, *A bit-string longest-common-subsequence
//! algorithm*, Inf. Process. Lett. 23(6), 1986.

use crate::simd;
use lddp_core::cell::{ContributingSet, RepCell};
use lddp_core::kernel::{Kernel, Neighbors, SimdWaveKernel, WaveKernel};
use lddp_core::wavefront::Dims;

/// LCS-length kernel over two byte strings (table `(m+1) × (n+1)`).
#[derive(Debug, Clone)]
pub struct LcsKernel {
    a: Vec<u8>,
    b: Vec<u8>,
}

impl LcsKernel {
    /// Builds the kernel for sequences `a` (rows) and `b` (columns).
    pub fn new(a: impl Into<Vec<u8>>, b: impl Into<Vec<u8>>) -> Self {
        LcsKernel {
            a: a.into(),
            b: b.into(),
        }
    }

    /// LCS length from a filled table.
    pub fn length_from(&self, grid: &lddp_core::grid::Grid<u32>) -> u32 {
        let d = self.dims();
        grid.get(d.rows - 1, d.cols - 1)
    }
}

impl Kernel for LcsKernel {
    type Cell = u32;

    fn dims(&self) -> Dims {
        Dims::new(self.a.len() + 1, self.b.len() + 1)
    }

    fn contributing_set(&self) -> ContributingSet {
        ContributingSet::new(&[RepCell::W, RepCell::Nw, RepCell::N])
    }

    fn compute(&self, i: usize, j: usize, nbrs: &Neighbors<u32>) -> u32 {
        if i == 0 || j == 0 {
            return 0;
        }
        if self.a[i - 1] == self.b[j - 1] {
            nbrs.nw.expect("NW in bounds") + 1
        } else {
            nbrs.w
                .expect("W in bounds")
                .max(nbrs.n.expect("N in bounds"))
        }
    }

    fn cost_ops(&self) -> u32 {
        20
    }

    fn name(&self) -> &str {
        "lcs"
    }

    fn wave_kernel(&self) -> Option<&dyn WaveKernel<Cell = u32>> {
        Some(self)
    }

    fn simd_kernel(&self) -> Option<&dyn SimdWaveKernel<Cell = u32>> {
        Some(self)
    }
}

impl WaveKernel for LcsKernel {
    fn compute_run(
        &self,
        i: usize,
        j0: usize,
        out: &mut [u32],
        w: &[u32],
        nw: &[u32],
        n: &[u32],
        _ne: &[u32],
    ) {
        // Interior anti-diagonal run: cell p is (i - p, j0 + p) with all
        // of W/NW/N in bounds, so i ≥ 1 and j ≥ 1 throughout — the base
        // cases of `compute` cannot occur here.
        for p in 0..out.len() {
            out[p] = if self.a[i - p - 1] == self.b[j0 + p - 1] {
                nw[p] + 1
            } else {
                w[p].max(n[p])
            };
        }
    }
}

impl SimdWaveKernel for LcsKernel {
    fn lanes(&self) -> usize {
        simd::LANES
    }

    fn compute_run_simd(
        &self,
        i: usize,
        j0: usize,
        out: &mut [u32],
        w: &[u32],
        nw: &[u32],
        n: &[u32],
        ne: &[u32],
    ) {
        let len = out.len();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let vl = len - len % 8;
            if vl > 0 {
                // Safety: every cell of the run is interior, so the
                // scalar body reads a[i - p - 1] and b[j0 + p - 1] for
                // each p < vl — exactly the bytes the vector body
                // loads — and the dependency slices cover [0, vl).
                unsafe { self.run_avx2(i, j0, &mut out[..vl], &w[..vl], &nw[..vl], &n[..vl]) };
            }
            if vl < len {
                // Scalar tail: cell vl of this run is (i - vl, j0 + vl).
                self.compute_run(
                    i - vl,
                    j0 + vl,
                    &mut out[vl..],
                    simd::offset(w, vl),
                    simd::offset(nw, vl),
                    simd::offset(n, vl),
                    simd::offset(ne, vl),
                );
            }
            return;
        }
        #[cfg(target_arch = "aarch64")]
        {
            let vl = len - len % 4;
            if vl > 0 {
                // Safety: NEON is baseline on aarch64; bounds as above.
                unsafe { self.run_neon(i, j0, &mut out[..vl], &w[..vl], &nw[..vl], &n[..vl]) };
            }
            if vl < len {
                self.compute_run(
                    i - vl,
                    j0 + vl,
                    &mut out[vl..],
                    simd::offset(w, vl),
                    simd::offset(nw, vl),
                    simd::offset(n, vl),
                    simd::offset(ne, vl),
                );
            }
            return;
        }
        #[cfg(not(target_arch = "aarch64"))]
        self.compute_run(i, j0, out, w, nw, n, ne);
    }
}

#[cfg(target_arch = "x86_64")]
impl LcsKernel {
    /// AVX2 body: eight anti-diagonal cells per step,
    /// `eq ? nw + 1 : max(w, n)` as a widened byte-compare mask blending
    /// two 8×u32 candidate vectors. `out.len()` must be a multiple of 8.
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2(
        &self,
        i: usize,
        j0: usize,
        out: &mut [u32],
        w: &[u32],
        nw: &[u32],
        n: &[u32],
    ) {
        use std::arch::x86_64::*;
        let ones = _mm256_set1_epi32(1);
        let a = self.a.as_ptr();
        let b = self.b.as_ptr();
        let mut p = 0;
        while p < out.len() {
            let eq = simd::x86::eq_mask_rev8(a.add(i - p - 8), b.add(j0 + p - 1));
            let wv = _mm256_loadu_si256(w.as_ptr().add(p) as *const __m256i);
            let nwv = _mm256_loadu_si256(nw.as_ptr().add(p) as *const __m256i);
            let nv = _mm256_loadu_si256(n.as_ptr().add(p) as *const __m256i);
            let taken = _mm256_add_epi32(nwv, ones);
            let skip = _mm256_max_epu32(wv, nv);
            let res = _mm256_blendv_epi8(skip, taken, eq);
            _mm256_storeu_si256(out.as_mut_ptr().add(p) as *mut __m256i, res);
            p += 8;
        }
    }
}

#[cfg(target_arch = "aarch64")]
impl LcsKernel {
    /// NEON body: four cells per step. `out.len()` must be a multiple
    /// of 4.
    unsafe fn run_neon(
        &self,
        i: usize,
        j0: usize,
        out: &mut [u32],
        w: &[u32],
        nw: &[u32],
        n: &[u32],
    ) {
        use std::arch::aarch64::*;
        let ones = vdupq_n_u32(1);
        let mut p = 0;
        while p < out.len() {
            let eq = vld1q_u32(simd::neon::eq_lanes4(&self.a, &self.b, i, j0, p).as_ptr());
            let wv = vld1q_u32(w.as_ptr().add(p));
            let nwv = vld1q_u32(nw.as_ptr().add(p));
            let nv = vld1q_u32(n.as_ptr().add(p));
            let taken = vaddq_u32(nwv, ones);
            let skip = vmaxq_u32(wv, nv);
            vst1q_u32(out.as_mut_ptr().add(p), vbslq_u32(eq, taken, skip));
            p += 4;
        }
    }
}

/// Quadratic two-row reference (independent oracle).
pub fn lcs_length(a: &[u8], b: &[u8]) -> u32 {
    let n = b.len();
    let mut prev = vec![0u32; n + 1];
    let mut cur = vec![0u32; n + 1];
    for &ca in a {
        for (j, &cb) in b.iter().enumerate() {
            cur[j + 1] = if ca == cb {
                prev[j] + 1
            } else {
                cur[j].max(prev[j + 1])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

/// Allison–Dix bit-parallel LCS length: processes one row per iteration
/// with whole-word boolean operations — `O(m·n/64)`. The specialized
/// baseline of the ablation benchmark.
pub fn lcs_length_bitparallel(a: &[u8], b: &[u8]) -> u32 {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let n = b.len();
    let words = n.div_ceil(64);
    // Per-symbol match masks for the column string b.
    let mut table = vec![0u64; 256 * words];
    for (j, &cb) in b.iter().enumerate() {
        table[cb as usize * words + j / 64] |= 1u64 << (j % 64);
    }
    // Row state: bit j set means "no LCS-length step at column j yet"
    // in the complemented representation of Allison–Dix.
    let mut row = vec![!0u64; words];
    // Mask off bits beyond n in the last word.
    let tail_bits = n % 64;
    let tail_mask = if tail_bits == 0 {
        !0u64
    } else {
        (1u64 << tail_bits) - 1
    };
    row[words - 1] &= tail_mask;
    for &ca in a {
        let m = &table[ca as usize * words..ca as usize * words + words];
        // row' = (row + (row & m)) | (row & !m), with carry across words.
        let mut carry = 0u64;
        for w in 0..words {
            let x = row[w] & m[w];
            let (sum, c1) = row[w].overflowing_add(x);
            let (sum, c2) = sum.overflowing_add(carry);
            carry = u64::from(c1) | u64::from(c2);
            row[w] = sum | (row[w] & !m[w]);
        }
        row[words - 1] &= tail_mask;
    }
    // LCS length = number of zero bits among the n column positions.
    let mut zeros = 0u32;
    for (w, &word) in row.iter().enumerate() {
        let valid = if w == words - 1 { tail_mask } else { !0u64 };
        zeros += (!word & valid).count_ones();
    }
    zeros
}

#[cfg(test)]
mod tests {
    use super::*;
    use lddp_core::pattern::{classify, Pattern};
    use lddp_core::seq::solve_row_major;
    use proptest::prelude::*;

    #[test]
    fn classified_as_anti_diagonal() {
        let k = LcsKernel::new(*b"ab", *b"cd");
        assert_eq!(classify(k.contributing_set()), Some(Pattern::AntiDiagonal));
    }

    #[test]
    fn known_lengths() {
        for (a, b, len) in [
            (&b"ABCBDAB"[..], &b"BDCABA"[..], 4),
            (b"AGGTAB", b"GXTXAYB", 4),
            (b"", b"", 0),
            (b"abc", b"", 0),
            (b"", b"abc", 0),
            (b"abc", b"abc", 3),
            (b"abc", b"def", 0),
        ] {
            assert_eq!(lcs_length(a, b), len, "reference {a:?} {b:?}");
            assert_eq!(
                lcs_length_bitparallel(a, b),
                len,
                "bit-parallel {a:?} {b:?}"
            );
            let k = LcsKernel::new(a, b);
            let grid = solve_row_major(&k).unwrap();
            assert_eq!(k.length_from(&grid), len, "kernel {a:?} {b:?}");
        }
    }

    #[test]
    fn simd_run_matches_scalar_run() {
        // Lane-unaligned lengths exercise both the vector body and the
        // scalar tail peel.
        let a: Vec<u8> = (0..96u32).map(|x| (x * 7 % 5) as u8).collect();
        let b: Vec<u8> = (0..96u32).map(|x| (x * 11 % 5) as u8).collect();
        let k = LcsKernel::new(a, b);
        for len in [1usize, 3, 4, 7, 8, 9, 16, 31, 40] {
            let (i, j0) = (len + 5, 3);
            let w: Vec<u32> = (0..len as u32).map(|x| x * 3 % 17).collect();
            let nw: Vec<u32> = (0..len as u32).map(|x| x * 5 % 13).collect();
            let n: Vec<u32> = (0..len as u32).map(|x| x * 7 % 11).collect();
            let mut scalar = vec![0u32; len];
            let mut vector = vec![0u32; len];
            k.compute_run(i, j0, &mut scalar, &w, &nw, &n, &[]);
            k.compute_run_simd(i, j0, &mut vector, &w, &nw, &n, &[]);
            assert_eq!(scalar, vector, "len {len}");
        }
    }

    #[test]
    fn bitparallel_crosses_word_boundaries() {
        // Strings longer than 64 symbols exercise the multi-word carry.
        let a: Vec<u8> = (0..200u32).map(|i| (i % 7) as u8).collect();
        let b: Vec<u8> = (0..150u32).map(|i| (i % 5) as u8).collect();
        assert_eq!(lcs_length_bitparallel(&a, &b), lcs_length(&a, &b));
    }

    proptest! {
        #[test]
        fn kernel_matches_reference(a in proptest::collection::vec(0u8..4, 0..24),
                                    b in proptest::collection::vec(0u8..4, 0..24)) {
            let k = LcsKernel::new(a.clone(), b.clone());
            let grid = solve_row_major(&k).unwrap();
            prop_assert_eq!(k.length_from(&grid), lcs_length(&a, &b));
        }

        #[test]
        fn bitparallel_matches_reference(a in proptest::collection::vec(0u8..6, 0..140),
                                         b in proptest::collection::vec(0u8..6, 0..140)) {
            prop_assert_eq!(lcs_length_bitparallel(&a, &b), lcs_length(&a, &b));
        }

        /// LCS length is monotone under appending a common suffix.
        #[test]
        fn appending_common_symbol_increments(a in proptest::collection::vec(0u8..4, 0..20),
                                              b in proptest::collection::vec(0u8..4, 0..20)) {
            let base = lcs_length(&a, &b);
            let mut a2 = a.clone();
            let mut b2 = b.clone();
            a2.push(9);
            b2.push(9);
            prop_assert_eq!(lcs_length(&a2, &b2), base + 1);
        }

        /// Relation to edit distance without substitutions:
        /// |a| + |b| − 2·LCS = insert/delete distance ≥ Levenshtein.
        #[test]
        fn relates_to_edit_distance(a in proptest::collection::vec(0u8..3, 0..16),
                                    b in proptest::collection::vec(0u8..3, 0..16)) {
            let lcs = lcs_length(&a, &b) as usize;
            let indel = a.len() + b.len() - 2 * lcs;
            let lev = crate::levenshtein::distance(&a, &b) as usize;
            prop_assert!(lev <= indel);
        }
    }
}
