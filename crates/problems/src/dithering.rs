//! Floyd–Steinberg error-diffusion dithering — the paper's §VI-B case
//! study (knight-move pattern), after Deshpande et al. \[11\].
//!
//! Each pixel is quantized against a threshold; the quantization error is
//! diffused to the East (7/16), South-West (3/16), South (5/16) and
//! South-East (1/16) neighbours. Reading the diffusion backwards,
//! `cell(i,j)` needs the errors of `W` (its East source, 7/16), `NE`
//! (its SW source, 3/16), `N` (its S source, 5/16) and `NW` (its SE
//! source, 1/16) — the full representative set, hence Knight-Move
//! (Fig 11 and the scheduling constraint of §VI-B).

use lddp_core::cell::ContributingSet;
use lddp_core::grid::Grid;
use lddp_core::kernel::{Kernel, Neighbors};
use lddp_core::wavefront::Dims;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One dithered pixel: the 1-bit output and the residual error it
/// diffuses onward.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DitherCell {
    /// Quantized output level (0 or 255).
    pub out: u8,
    /// Quantization error (signed, in gray levels).
    pub err: f32,
}

/// Floyd–Steinberg kernel over a grayscale image.
#[derive(Debug, Clone)]
pub struct DitherKernel {
    rows: usize,
    cols: usize,
    /// Row-major input gray levels.
    image: Vec<u8>,
    /// Quantization threshold (classically 128).
    threshold: f32,
}

impl DitherKernel {
    /// Builds the kernel for a row-major grayscale image.
    pub fn new(rows: usize, cols: usize, image: Vec<u8>) -> Self {
        assert_eq!(image.len(), rows * cols, "image shape mismatch");
        DitherKernel {
            rows,
            cols,
            image,
            threshold: 128.0,
        }
    }

    /// A horizontal gray gradient test image.
    pub fn gradient(rows: usize, cols: usize) -> Self {
        let image = (0..rows * cols)
            .map(|idx| ((idx % cols) * 255 / cols.max(1)) as u8)
            .collect();
        DitherKernel::new(rows, cols, image)
    }

    /// A noise test image from a seeded generator.
    pub fn noise(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let image = (0..rows * cols).map(|_| rng.gen::<u8>()).collect();
        DitherKernel::new(rows, cols, image)
    }

    /// Input gray level of pixel `(i, j)`.
    pub fn input(&self, i: usize, j: usize) -> f32 {
        self.image[i * self.cols + j] as f32
    }

    /// Bytes of input the device needs (the image).
    pub fn input_bytes(&self) -> usize {
        self.image.len()
    }

    /// Extracts the dithered output image (row-major) from a filled
    /// table.
    pub fn output_from(&self, grid: &Grid<DitherCell>) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.push(grid.get(i, j).out);
            }
        }
        out
    }
}

impl Kernel for DitherKernel {
    type Cell = DitherCell;

    fn dims(&self) -> Dims {
        Dims::new(self.rows, self.cols)
    }

    fn contributing_set(&self) -> ContributingSet {
        ContributingSet::FULL
    }

    fn compute(&self, i: usize, j: usize, nbrs: &Neighbors<DitherCell>) -> DitherCell {
        // Accumulate in the order the raster scan pushes errors in
        // (sources processed NW, N, NE, W) so the f32 result matches the
        // serial reference bit-for-bit.
        let mut v = self.input(i, j);
        if let Some(nw) = nbrs.nw {
            v += nw.err * (1.0 / 16.0);
        }
        if let Some(n) = nbrs.n {
            v += n.err * (5.0 / 16.0);
        }
        if let Some(ne) = nbrs.ne {
            v += ne.err * (3.0 / 16.0);
        }
        if let Some(w) = nbrs.w {
            v += w.err * (7.0 / 16.0);
        }
        let out = if v < self.threshold { 0u8 } else { 255u8 };
        DitherCell {
            out,
            err: v - out as f32,
        }
    }

    fn cost_ops(&self) -> u32 {
        40 // four multiply-adds, threshold, error update
    }

    fn name(&self) -> &str {
        "floyd-steinberg"
    }
}

/// Independent raster-scan reference (the textbook serial algorithm):
/// walk pixels row-major, pushing errors forward to E, SW, S, SE.
pub fn dither_reference(rows: usize, cols: usize, image: &[u8]) -> Vec<u8> {
    assert_eq!(image.len(), rows * cols);
    let mut work: Vec<f32> = image.iter().map(|&p| p as f32).collect();
    let mut out = vec![0u8; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            let idx = i * cols + j;
            let v = work[idx];
            let q = if v < 128.0 { 0u8 } else { 255u8 };
            out[idx] = q;
            let err = v - q as f32;
            if j + 1 < cols {
                work[idx + 1] += err * (7.0 / 16.0);
            }
            if i + 1 < rows {
                if j > 0 {
                    work[idx + cols - 1] += err * (3.0 / 16.0);
                }
                work[idx + cols] += err * (5.0 / 16.0);
                if j + 1 < cols {
                    work[idx + cols + 1] += err * (1.0 / 16.0);
                }
            }
        }
    }
    out
}

/// Writes a binary PGM (P5) image — used by the dithering example.
pub fn write_pgm(
    path: &std::path::Path,
    rows: usize,
    cols: usize,
    pixels: &[u8],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "P5\n{cols} {rows}\n255")?;
    f.write_all(pixels)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lddp_core::pattern::{classify, Pattern};
    use lddp_core::seq::solve_row_major;
    use proptest::prelude::*;

    #[test]
    fn classified_as_knight_move() {
        let k = DitherKernel::gradient(4, 4);
        assert_eq!(classify(k.contributing_set()), Some(Pattern::KnightMove));
    }

    #[test]
    fn uniform_black_and_white_pass_through() {
        for (level, expect) in [(0u8, 0u8), (255, 255)] {
            let k = DitherKernel::new(3, 5, vec![level; 15]);
            let grid = solve_row_major(&k).unwrap();
            let out = k.output_from(&grid);
            assert!(out.iter().all(|&p| p == expect), "level {level}");
        }
    }

    #[test]
    fn kernel_matches_raster_reference_exactly() {
        // The wavefront order computes each pixel with exactly the same
        // incoming errors as the raster scan, so outputs (and errors)
        // match bit-for-bit in f32.
        for k in [
            DitherKernel::gradient(16, 24),
            DitherKernel::noise(24, 16, 7),
            DitherKernel::noise(1, 40, 3),
            DitherKernel::noise(40, 1, 4),
        ] {
            let grid = solve_row_major(&k).unwrap();
            let ours = k.output_from(&grid);
            let reference = dither_reference(k.rows, k.cols, &k.image);
            assert_eq!(ours, reference);
        }
    }

    #[test]
    fn mid_gray_alternates_rather_than_banding() {
        // A flat 50% gray must produce a roughly half-on pattern.
        let k = DitherKernel::new(16, 16, vec![128; 256]);
        let grid = solve_row_major(&k).unwrap();
        let out = k.output_from(&grid);
        let on = out.iter().filter(|&&p| p == 255).count();
        assert!((96..=160).contains(&on), "on pixels: {on}");
    }

    proptest! {
        #[test]
        fn wavefront_equals_raster(rows in 1usize..12, cols in 1usize..12,
                                   seed in any::<u64>()) {
            let k = DitherKernel::noise(rows, cols, seed);
            let grid = solve_row_major(&k).unwrap();
            prop_assert_eq!(
                k.output_from(&grid),
                dither_reference(rows, cols, &k.image)
            );
        }

        /// Error diffusion conserves total intensity up to the residual
        /// errors left at the bottom/right boundary: average output is
        /// close to average input.
        #[test]
        fn preserves_mean_intensity(seed in any::<u64>()) {
            let k = DitherKernel::noise(32, 32, seed);
            let grid = solve_row_major(&k).unwrap();
            let out = k.output_from(&grid);
            let mean_in: f64 =
                k.image.iter().map(|&p| p as f64).sum::<f64>() / 1024.0;
            let mean_out: f64 = out.iter().map(|&p| p as f64).sum::<f64>() / 1024.0;
            // Boundary cells swallow some error; allow a few levels.
            prop_assert!((mean_in - mean_out).abs() < 8.0,
                         "in {mean_in} vs out {mean_out}");
        }

        /// Output is strictly binary.
        #[test]
        fn output_is_binary(seed in any::<u64>()) {
            let k = DitherKernel::noise(9, 13, seed);
            let grid = solve_row_major(&k).unwrap();
            prop_assert!(k.output_from(&grid).iter().all(|&p| p == 0 || p == 255));
        }
    }
}
