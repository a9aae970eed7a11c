//! Packed, register-tiled GEMM microkernel.
//!
//! The CliqueRank recurrence performs `S − 1` dense `n × n` products per
//! connected component per fusion round, so this file is the hottest code
//! in the workspace. The kernel follows the classical BLIS decomposition,
//! written entirely in safe Rust so the workspace lint wall
//! (`#![deny(unsafe_code)]`) holds:
//!
//! 1. The `k` dimension is split into depth-[`KC`] panels.
//! 2. Per panel, `B` is **packed** into contiguous `KC × NR` column
//!    panels (`k`-major: the `NR` values of one `k` sit next to each
//!    other) and each `MR`-row strip of `A` is packed `k`-major as well
//!    (`MR` values per `k`).
//! 3. An [`MR`]` × `[`NR`] **register-tile microkernel** walks both packed
//!    buffers with unit stride, accumulating into a fixed-size
//!    `[[f64; NR]; MR]` array. The fixed shapes let rustc/LLVM keep the
//!    accumulator in vector registers and autovectorize the fma-shaped
//!    inner loop — no intrinsics, no `unsafe`.
//!
//! # Tail policy
//!
//! Ragged edges are handled by **zero-padding the packed buffers** to
//! full `MR`/`NR` tiles: the microkernel always runs the full-tile shape
//! (keeping the code branch-free and vectorizable) and the write-back
//! adds only the `mr_eff × nr_eff` valid region. Padding rows/columns
//! accumulate into lanes that are simply never written back, and padding
//! never perturbs valid lanes because every `acc[i][j]` is its own
//! scalar.
//!
//! # Determinism contract
//!
//! Each output element accumulates its `k` products in strictly
//! ascending `k` order within a panel, and panels are visited in
//! ascending order, so for `k ≤ KC` the result is **bit-identical** to
//! the textbook triple loop ([`crate::matmul_naive`]). Accumulators are
//! per-row independent (no cross-row floating-point operation), so
//! splitting the row range across threads at *any* boundary — the
//! decomposition the pooled [`crate::matmul_into`] uses — reproduces
//! the serial result bit for bit at every thread count.

use er_pool::ScratchSlot;

use crate::dense::Matrix;

/// Microkernel tile height (rows of `A` per register tile). With
/// [`NR`]` = 4`, an 8 × 4 `f64` accumulator is eight 256-bit vectors —
/// half the AVX2 register file, leaving room for the `A` broadcasts and
/// `B` loads. On pre-AVX targets the same accumulator would be sixteen
/// 128-bit vectors — the *entire* xmm file, spilling every iteration —
/// so the tile height halves to keep the accumulator register-resident.
/// The constant only shapes the blocking; results are bit-identical
/// either way (per-element ascending-`k` accumulation).
pub const MR: usize = if cfg!(target_feature = "avx") { 8 } else { 4 };

/// Microkernel tile width (columns of `B` per register tile): one
/// 256-bit `f64` vector, or one 512-bit vector where AVX-512 is
/// available (the 8 × 8 accumulator is then eight zmm registers of 32).
pub const NR: usize = if cfg!(target_feature = "avx512f") {
    8
} else {
    4
};

/// Depth of one packed `k` panel. `KC × (MR + NR)` doubles ≈ 24 KiB of
/// packed operands per strip — comfortably L1-resident.
pub const KC: usize = 256;

/// Reusable packing buffers lent to the packed kernels.
///
/// The buffers grow to the high-water mark of the products they serve
/// and are then reused allocation-free: `clear()` + `resize()` on a
/// `Vec` whose capacity already suffices never touches the allocator.
/// One scratch must not be shared across concurrent products; the
/// pooled kernel gives each row strip its own.
#[derive(Debug, Default)]
pub struct PackScratch {
    /// Packed `A` strip: `KC × MR`, `k`-major.
    a_pack: Vec<f64>,
    /// Packed `B` panel block: `ceil(n / NR)` panels of `KC × NR`.
    pub(crate) b_pack: Vec<f64>,
    /// Per-job `A`-strip buffers for the pooled front end: `B` is packed
    /// once into `b_pack` on the caller thread and shared read-only,
    /// while each MR-strip job checks out its own `a_pack`-shaped buffer
    /// here. Buffers persist across products, so the pooled kernel is
    /// allocation-free at steady state like the serial one.
    pub(crate) strip_a: ScratchSlot<Vec<f64>>,
}

/// Packs `b[kk..kk+kc, :]` into `NR`-wide column panels, `k`-major,
/// zero-padding the last panel to full width.
pub(crate) fn pack_b(b: &Matrix, kk: usize, kc: usize, buf: &mut Vec<f64>) {
    let n = b.cols();
    let panels = n.div_ceil(NR);
    buf.clear();
    buf.resize(panels * kc * NR, 0.0);
    for (pj, dst_panel) in buf.chunks_exact_mut(kc * NR).enumerate() {
        let j0 = pj * NR;
        let nr_eff = NR.min(n - j0);
        for (k, dst) in dst_panel.chunks_exact_mut(NR).enumerate() {
            let src = &b.row(kk + k)[j0..j0 + nr_eff];
            dst[..nr_eff].copy_from_slice(src);
        }
    }
}

/// Packs the `mr_eff ≤ MR` rows `a[i0.., kk..kk+kc]` `k`-major,
/// zero-padding missing rows.
fn pack_a(a: &Matrix, i0: usize, mr_eff: usize, kk: usize, kc: usize, buf: &mut Vec<f64>) {
    buf.clear();
    buf.resize(kc * MR, 0.0);
    for i in 0..mr_eff {
        let row = &a.row(i0 + i)[kk..kk + kc];
        for (k, &v) in row.iter().enumerate() {
            buf[k * MR + i] = v;
        }
    }
}

/// The register-tile kernel: `acc += a_packᵀ × b_panel` over one `k`
/// panel. Both inputs are `k`-major and exactly `kc × MR` / `kc × NR`
/// long, so the zipped `chunks_exact` walk is branch-free and the fixed
/// `MR × NR` loop nest autovectorizes.
// er-lint: zero-alloc
#[inline]
fn microkernel(a_pack: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (ak, bk) in a_pack.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        let ak: &[f64; MR] = ak.try_into().expect("packed A chunk is MR wide"); // er-lint: allow(panic) -- chunks_exact(MR) guarantees the width
        let bk: &[f64; NR] = bk.try_into().expect("packed B chunk is NR wide"); // er-lint: allow(panic) -- chunks_exact(NR) guarantees the width
        for i in 0..MR {
            let ai = ak[i];
            for j in 0..NR {
                acc[i][j] += ai * bk[j];
            }
        }
    }
}

/// Multiplies rows `row_start..row_end` of `a` by `b` into `out_rows`
/// (a zeroed row-major buffer of `(row_end − row_start) × b.cols()`),
/// using `scratch` for the packed operands. This is the serial path of
/// [`crate::matmul_into`]; per-row results are independent of the band
/// split (see the module docs), so every decomposition is bit-identical.
pub(crate) fn matmul_packed_rows(
    a: &Matrix,
    b: &Matrix,
    out_rows: &mut [f64],
    row_start: usize,
    row_end: usize,
    scratch: &mut PackScratch,
) {
    let k = a.cols();
    let n = b.cols();
    debug_assert_eq!(out_rows.len(), (row_end - row_start) * n);
    if n == 0 {
        return;
    }
    for kk in (0..k).step_by(KC) {
        let kc = KC.min(k - kk);
        pack_b(b, kk, kc, &mut scratch.b_pack);
        matmul_rows_prepacked_b(
            a,
            &scratch.b_pack,
            n,
            kk,
            kc,
            out_rows,
            row_start,
            row_end,
            &mut scratch.a_pack,
        );
    }
}

/// Accumulates rows `row_start..row_end` of `a[:, kk..kk+kc] × b` into
/// `out_rows`, with `b`'s `kk` panel already packed into `b_pack` (as
/// produced by [`pack_b`]). This is the per-job strip kernel of the
/// pooled front end: `b_pack` is shared read-only across jobs, `a_buf`
/// is the job's private packing buffer, and every output word belongs to
/// exactly one strip — accumulation order per element is unchanged, so
/// any strip decomposition is bit-identical to the serial kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_rows_prepacked_b(
    a: &Matrix,
    b_pack: &[f64],
    n: usize,
    kk: usize,
    kc: usize,
    out_rows: &mut [f64],
    row_start: usize,
    row_end: usize,
    a_buf: &mut Vec<f64>,
) {
    let panels = n.div_ceil(NR);
    debug_assert_eq!(b_pack.len(), panels * kc * NR);
    let mut i0 = row_start;
    while i0 < row_end {
        let mr_eff = MR.min(row_end - i0);
        pack_a(a, i0, mr_eff, kk, kc, a_buf);
        for pj in 0..panels {
            let j0 = pj * NR;
            let nr_eff = NR.min(n - j0);
            let b_panel = &b_pack[pj * kc * NR..(pj + 1) * kc * NR];
            let mut acc = [[0.0f64; NR]; MR];
            microkernel(a_buf, b_panel, &mut acc);
            for (i, acc_row) in acc.iter().enumerate().take(mr_eff) {
                let base = (i0 - row_start + i) * n + j0;
                let out = &mut out_rows[base..base + nr_eff];
                for (o, &v) in out.iter_mut().zip(acc_row) {
                    *o += v;
                }
            }
        }
        i0 += mr_eff;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_naive;

    fn deterministic(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
    }

    #[test]
    fn single_panel_is_bit_identical_to_naive() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (MR, KC, NR), (65, 64, 63)] {
            let a = deterministic(m, k, 1);
            let b = deterministic(k, n, 2);
            let mut out = vec![0.0; m * n];
            let mut scratch = PackScratch::default();
            matmul_packed_rows(&a, &b, &mut out, 0, m, &mut scratch);
            let naive = matmul_naive(&a, &b);
            assert_eq!(out, naive.data(), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn band_split_matches_full_run() {
        let (m, k, n) = (37, 90, 29);
        let a = deterministic(m, k, 3);
        let b = deterministic(k, n, 4);
        let mut full = vec![0.0; m * n];
        let mut scratch = PackScratch::default();
        matmul_packed_rows(&a, &b, &mut full, 0, m, &mut scratch);
        // Split at a boundary that is deliberately not MR-aligned.
        let split = 13;
        let mut banded = vec![0.0; m * n];
        let (lo, hi) = banded.split_at_mut(split * n);
        matmul_packed_rows(&a, &b, lo, 0, split, &mut scratch);
        matmul_packed_rows(&a, &b, hi, split, m, &mut scratch);
        assert_eq!(full, banded);
    }

    #[test]
    fn multi_panel_k_matches_naive_closely() {
        let (m, k, n) = (10, 2 * KC + 7, 9);
        let a = deterministic(m, k, 5);
        let b = deterministic(k, n, 6);
        let mut out = vec![0.0; m * n];
        let mut scratch = PackScratch::default();
        matmul_packed_rows(&a, &b, &mut out, 0, m, &mut scratch);
        let naive = matmul_naive(&a, &b);
        for (got, want) in out.iter().zip(naive.data()) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn scratch_reuse_across_shapes() {
        let mut scratch = PackScratch::default();
        for (m, k, n) in [(20, 30, 40), (3, 3, 3), (40, 20, 10)] {
            let a = deterministic(m, k, 7);
            let b = deterministic(k, n, 8);
            let mut out = vec![0.0; m * n];
            matmul_packed_rows(&a, &b, &mut out, 0, m, &mut scratch);
            assert_eq!(out, matmul_naive(&a, &b).data());
        }
    }
}
