//! Canonical blocked reduction kernels — the workspace's single summation
//! order.
//!
//! Every floating-point reduction in the numeric stack (means, dot
//! products, centered sums of squares, the fused Pearson `sxy`/`syy` pair,
//! and the k-average accumulate/scale steps) routes through this module, so
//! there is exactly one accumulation order to reason about, bless, and
//! optimize.
//!
//! # The fixed-lane blocked order
//!
//! A reduction over `n` elements runs [`LANES`] = 8 independent
//! accumulators: element `i` always lands in lane `i % LANES`, and the
//! lanes are combined in the fixed tree
//! `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`. Lane assignment depends
//! only on the element index — never on thread count, CPU features, or
//! chunk sizes — so the result is deterministic everywhere, while the
//! eight independent dependency chains let LLVM auto-vectorize what used
//! to be a serial `acc += x` chain.
//!
//! # One implementation, ISA-dispatched
//!
//! The kernels are written once, in [`scalar`]: plain blocked loops over
//! `[f64; LANES]` accumulators that LLVM auto-vectorizes. That module stays
//! public as the baseline-ISA reference the tests compare against.
//!
//! The public functions of this module run the same [`scalar`] bodies
//! through a one-time runtime probe of the instruction set ([`dispatch`]):
//! on x86-64 they execute an `avx512f` or `avx2` `#[target_feature]`
//! instantiation when the CPU has it, else the baseline codegen. Per lane
//! every instantiation performs the same f64 additions and multiplications
//! in the same order, and no fused multiply-add is ever emitted (Rust does
//! not contract `a * b + c`), so all of them are **bit-identical**.
//!
//! Element-wise kernels ([`accumulate`], [`scale`]) are included for
//! completeness of the canonical numeric entry points; their per-element
//! operation order is trivially independent of blocking.

/// Number of independent accumulator lanes in the canonical blocked order.
pub const LANES: usize = 8;

/// Elements per row processed between accumulator spills in the `_x4` group
/// kernels (4 KiB of f64 — a row tile stays L1-resident while the four rows
/// of a group are swept). Tiling only re-orders *scheduling across rows*;
/// each row's lane sequence is untouched, so results stay bit-identical to
/// the single-row kernels.
const TILE: usize = 512;

/// Combines the eight lane accumulators in the canonical fixed tree:
/// `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`.
#[inline]
#[must_use]
pub fn combine(lanes: [f64; LANES]) -> f64 {
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
}

/// Folds a remainder (fewer than [`LANES`] trailing elements) into the lane
/// accumulators: remainder element `j` has global index `≡ j (mod LANES)`,
/// so it belongs to lane `j`.
#[inline]
fn fold_remainder(lanes: &mut [f64; LANES], rem: &[f64]) {
    for (lane, &x) in lanes.iter_mut().zip(rem) {
        *lane += x;
    }
}

/// Scalar blocked implementation (auto-vectorized).
///
/// Every kernel is `#[inline(always)]` so that each `#[target_feature]`
/// trampoline of the dispatch layer re-code-generates the body for its ISA
/// instead of calling the baseline-compiled copy.
pub mod scalar {
    use super::{combine, fold_remainder, LANES, TILE};

    /// Blocked sum of a series in the canonical lane order.
    #[inline(always)]
    #[must_use]
    pub fn sum(xs: &[f64]) -> f64 {
        let mut lanes = [0.0; LANES];
        let mut chunks = xs.chunks_exact(LANES);
        for chunk in chunks.by_ref() {
            for (lane, &x) in lanes.iter_mut().zip(chunk) {
                *lane += x;
            }
        }
        fold_remainder(&mut lanes, chunks.remainder());
        combine(lanes)
    }

    /// Blocked sums of four equal-length series in one tiled sweep.
    ///
    /// Each row's lane sequence is identical to [`sum`] over that row
    /// alone, so the results are bit-identical to four separate calls. The
    /// sweep is tiled ([`TILE`] elements per row between spills): within a
    /// tile a single row runs with register-resident accumulators, and the
    /// four rows of the group share the tile's cache footprint. Rows longer
    /// than the shortest are truncated to its length.
    #[inline(always)]
    #[must_use]
    pub fn sum_x4(ys: [&[f64]; 4]) -> [f64; 4] {
        let n = ys.iter().fold(ys[0].len(), |n, y| n.min(y.len()));
        let mut lanes = [[0.0; LANES]; 4];
        let full = n - n % LANES;
        let mut base = 0;
        while base < full {
            let end = (base + TILE).min(full);
            for (row, y) in lanes.iter_mut().zip(ys) {
                let mut acc = *row;
                for chunk in y[base..end].chunks_exact(LANES) {
                    for j in 0..LANES {
                        acc[j] += chunk[j];
                    }
                }
                *row = acc;
            }
            base = end;
        }
        for (row, y) in lanes.iter_mut().zip(ys) {
            fold_remainder(row, &y[full..n]);
        }
        [
            combine(lanes[0]),
            combine(lanes[1]),
            combine(lanes[2]),
            combine(lanes[3]),
        ]
    }

    /// Blocked dot product `Σ xᵢ·yᵢ` over the common prefix of the two
    /// series, in the canonical lane order.
    #[inline(always)]
    #[must_use]
    pub fn dot(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        let mut lanes = [0.0; LANES];
        let mut xc = xs.chunks_exact(LANES);
        let mut yc = ys.chunks_exact(LANES);
        for (cx, cy) in xc.by_ref().zip(yc.by_ref()) {
            for (lane, (&x, &y)) in lanes.iter_mut().zip(cx.iter().zip(cy)) {
                *lane += x * y;
            }
        }
        for (lane, (&x, &y)) in lanes
            .iter_mut()
            .zip(xc.remainder().iter().zip(yc.remainder()))
        {
            *lane += x * y;
        }
        combine(lanes)
    }

    /// Blocked `Σ (xᵢ − mean)²` in the canonical lane order.
    #[inline(always)]
    #[must_use]
    pub fn centered_sum_sq(xs: &[f64], mean: f64) -> f64 {
        let mut lanes = [0.0; LANES];
        let mut chunks = xs.chunks_exact(LANES);
        for chunk in chunks.by_ref() {
            for (lane, &x) in lanes.iter_mut().zip(chunk) {
                let d = x - mean;
                *lane += d * d;
            }
        }
        for (lane, &x) in lanes.iter_mut().zip(chunks.remainder()) {
            let d = x - mean;
            *lane += d * d;
        }
        combine(lanes)
    }

    /// Fused blocked `(Σ cxᵢ·(yᵢ − my), Σ (yᵢ − my)²)` over the common
    /// prefix — the Pearson numerator and DUT-side denominator in one
    /// sweep, each in the canonical lane order.
    #[inline(always)]
    #[must_use]
    pub fn sxy_syy(centered: &[f64], y: &[f64], my: f64) -> (f64, f64) {
        let n = centered.len().min(y.len());
        let (centered, y) = (&centered[..n], &y[..n]);
        let mut sxy = [0.0; LANES];
        let mut syy = [0.0; LANES];
        let mut cc = centered.chunks_exact(LANES);
        let mut yc = y.chunks_exact(LANES);
        for (cx, cy) in cc.by_ref().zip(yc.by_ref()) {
            for (j, (&x, &b)) in cx.iter().zip(cy).enumerate() {
                let dy = b - my;
                sxy[j] += x * dy;
                syy[j] += dy * dy;
            }
        }
        for (j, (&x, &b)) in cc.remainder().iter().zip(yc.remainder()).enumerate() {
            let dy = b - my;
            sxy[j] += x * dy;
            syy[j] += dy * dy;
        }
        (combine(sxy), combine(syy))
    }

    /// Four [`sxy_syy`] reductions in one tiled sweep: the centered
    /// reference tile is loaded once and reused against four DUT rows while
    /// it is cache-hot.
    ///
    /// Each row's per-lane operation sequence is identical to a standalone
    /// [`sxy_syy`] call, so every `(sxy, syy)` pair is bit-identical to the
    /// single-row kernel — the tiling only changes scheduling across rows,
    /// never the per-row accumulation order. Within a tile a row's sixteen
    /// accumulators live in registers; they spill to the `sxy`/`syy` arrays
    /// only at tile boundaries. Rows longer than the reference are
    /// truncated to its length.
    #[inline(always)]
    #[must_use]
    pub fn sxy_syy_x4(centered: &[f64], ys: [&[f64]; 4], mys: [f64; 4]) -> [(f64, f64); 4] {
        let n = ys.iter().fold(centered.len(), |n, y| n.min(y.len()));
        let centered = &centered[..n];
        let mut sxy = [[0.0; LANES]; 4];
        let mut syy = [[0.0; LANES]; 4];
        let full = n - n % LANES;
        let mut base = 0;
        while base < full {
            let end = (base + TILE).min(full);
            for r in 0..4 {
                let my = mys[r];
                let mut lx = sxy[r];
                let mut ly = syy[r];
                let ctile = centered[base..end].chunks_exact(LANES);
                let ytile = ys[r][base..end].chunks_exact(LANES);
                for (cx, cy) in ctile.zip(ytile) {
                    for j in 0..LANES {
                        let dy = cy[j] - my;
                        lx[j] += cx[j] * dy;
                        ly[j] += dy * dy;
                    }
                }
                sxy[r] = lx;
                syy[r] = ly;
            }
            base = end;
        }
        let cx = &centered[full..n];
        for r in 0..4 {
            let cy = &ys[r][full..n];
            for j in 0..cx.len() {
                let dy = cy[j] - mys[r];
                sxy[r][j] += cx[j] * dy;
                syy[r][j] += dy * dy;
            }
        }
        [
            (combine(sxy[0]), combine(syy[0])),
            (combine(sxy[1]), combine(syy[1])),
            (combine(sxy[2]), combine(syy[2])),
            (combine(sxy[3]), combine(syy[3])),
        ]
    }

    /// Element-wise accumulate `accᵢ += xsᵢ` over the common prefix — the
    /// k-average gather step.
    #[inline(always)]
    pub fn accumulate(acc: &mut [f64], xs: &[f64]) {
        for (a, &x) in acc.iter_mut().zip(xs) {
            *a += x;
        }
    }

    /// Element-wise scale `accᵢ *= factor` — the k-average divide step.
    #[inline(always)]
    pub fn scale(acc: &mut [f64], factor: f64) {
        for a in acc {
            *a *= factor;
        }
    }

    /// Fused scale-and-sum: `accᵢ *= factor` while the scaled values are
    /// summed in the canonical lane order — one sweep where the staged
    /// path ([`scale`] then [`sum`]) takes two. Per element the multiply
    /// is the staged multiply and the sum reads the same updated value in
    /// the same lane, so the result is bit-identical to the staged calls.
    #[inline(always)]
    #[must_use]
    pub fn scale_sum(acc: &mut [f64], factor: f64) -> f64 {
        let mut lanes = [0.0; LANES];
        let mut chunks = acc.chunks_exact_mut(LANES);
        for chunk in chunks.by_ref() {
            for (lane, a) in lanes.iter_mut().zip(chunk.iter_mut()) {
                let v = *a * factor;
                *a = v;
                *lane += v;
            }
        }
        for (lane, a) in lanes.iter_mut().zip(chunks.into_remainder()) {
            let v = *a * factor;
            *a = v;
            *lane += v;
        }
        combine(lanes)
    }

    /// Fused k-average finalize: `accᵢ = (accᵢ + xsᵢ)·factor` over the
    /// common prefix (any excess of `acc` is scaled without an addend,
    /// exactly as the staged path leaves it), returning the blocked sum of
    /// the updated `acc` in the canonical lane order — one sweep where the
    /// staged path ([`accumulate`], [`scale`], then [`sum`]) takes three.
    /// Per element `(a + x)·factor` is the staged add-then-multiply and
    /// the sum reads the same updated values in the same lane order, so
    /// the fusion is bit-identical to the staged calls.
    #[inline(always)]
    #[must_use]
    pub fn accumulate_scale_sum(acc: &mut [f64], xs: &[f64], factor: f64) -> f64 {
        let n = acc.len().min(xs.len());
        let full = n - n % LANES;
        let mut lanes = [0.0; LANES];
        {
            let mut ac = acc[..full].chunks_exact_mut(LANES);
            let mut xc = xs[..full].chunks_exact(LANES);
            for (ca, cx) in ac.by_ref().zip(xc.by_ref()) {
                for (j, (a, &x)) in ca.iter_mut().zip(cx).enumerate() {
                    let v = (*a + x) * factor;
                    *a = v;
                    lanes[j] += v;
                }
            }
        }
        // Tail: the paired remainder (global index `full + j`, lane
        // `j % LANES` because `full` is a multiple of LANES) plus any
        // excess of `acc` past `xs`, which is scaled and summed only.
        for (j, a) in acc[full..].iter_mut().enumerate() {
            let v = if full + j < n {
                (*a + xs[full + j]) * factor
            } else {
                *a * factor
            };
            *a = v;
            lanes[j % LANES] += v;
        }
        combine(lanes)
    }

    /// Blocked Pearson numerator `Σ cxᵢ·(yᵢ − my)` alone — the
    /// multi-reference remainder kernel. Per lane it performs exactly the
    /// `sxy` half of [`sxy_syy`] (same `dy`, same multiply, same order),
    /// so the value is bit-identical to `sxy_syy(..).0`.
    #[inline(always)]
    #[must_use]
    pub fn sxy(centered: &[f64], y: &[f64], my: f64) -> f64 {
        let n = centered.len().min(y.len());
        let (centered, y) = (&centered[..n], &y[..n]);
        let mut lanes = [0.0; LANES];
        let mut cc = centered.chunks_exact(LANES);
        let mut yc = y.chunks_exact(LANES);
        for (cx, cy) in cc.by_ref().zip(yc.by_ref()) {
            for (j, (&x, &b)) in cx.iter().zip(cy).enumerate() {
                let dy = b - my;
                lanes[j] += x * dy;
            }
        }
        for (j, (&x, &b)) in cc.remainder().iter().zip(yc.remainder()).enumerate() {
            let dy = b - my;
            lanes[j] += x * dy;
        }
        combine(lanes)
    }

    /// Four Pearson numerators of one DUT row against four centered
    /// references in a single tiled sweep — the multi-reference screening
    /// group kernel (the transpose of [`sxy_syy_x4`]: one `y` stream, four
    /// reference streams). The DUT tile stays cache-hot across the four
    /// references, and the reference-independent `Σ (yᵢ − my)²` term is
    /// left to one [`centered_sum_sq`] call per row instead of being
    /// recomputed per reference.
    ///
    /// Each reference's per-lane operation sequence is identical to a
    /// standalone [`sxy`] call, so every numerator is bit-identical to the
    /// single-reference kernel. References longer than the row are
    /// truncated to the common length.
    #[inline(always)]
    #[must_use]
    pub fn sxy_refs_x4(centereds: [&[f64]; 4], y: &[f64], my: f64) -> [f64; 4] {
        let n = centereds.iter().fold(y.len(), |n, c| n.min(c.len()));
        let y = &y[..n];
        let mut sxy = [[0.0; LANES]; 4];
        let full = n - n % LANES;
        let mut base = 0;
        while base < full {
            let end = (base + TILE).min(full);
            for (row, c) in sxy.iter_mut().zip(centereds) {
                let mut lx = *row;
                let ctile = c[base..end].chunks_exact(LANES);
                let ytile = y[base..end].chunks_exact(LANES);
                for (cx, cy) in ctile.zip(ytile) {
                    for j in 0..LANES {
                        let dy = cy[j] - my;
                        lx[j] += cx[j] * dy;
                    }
                }
                *row = lx;
            }
            base = end;
        }
        let cy = &y[full..n];
        let mut out = [0.0; 4];
        for ((o, row), c) in out.iter_mut().zip(&mut sxy).zip(centereds) {
            let cx = &c[full..n];
            for j in 0..cx.len() {
                let dy = cy[j] - my;
                row[j] += cx[j] * dy;
            }
            *o = combine(*row);
        }
        out
    }
}

/// One-time runtime selection of the kernel instruction set
/// (DESIGN.md §16).
///
/// The probe runs once per process and picks the strongest vector ISA the
/// CPU confirms: `avx512f` / `avx2` on x86-64, the build target's baseline
/// codegen elsewhere (which includes NEON on aarch64). The ISA only picks
/// which `#[target_feature]` instantiation of the [`scalar`] bodies runs;
/// it never changes a result.
pub mod dispatch {
    use std::sync::OnceLock;

    /// Strongest vector ISA the one-time probe confirmed.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(super) enum Isa {
        /// The build target's baseline codegen (includes NEON on
        /// aarch64).
        Baseline,
        /// AVX2 (256-bit registers), x86-64 only.
        #[cfg(target_arch = "x86_64")]
        V256,
        /// AVX-512F (512-bit registers), x86-64 only.
        #[cfg(target_arch = "x86_64")]
        V512,
    }

    static ISA: OnceLock<Isa> = OnceLock::new();

    #[cfg(target_arch = "x86_64")]
    fn detect() -> Isa {
        if std::arch::is_x86_feature_detected!("avx512f") {
            Isa::V512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            Isa::V256
        } else {
            Isa::Baseline
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn detect() -> Isa {
        Isa::Baseline
    }

    /// The dispatched ISA, probed once on first use and then fixed for the
    /// process lifetime.
    #[must_use]
    pub(super) fn isa() -> Isa {
        *ISA.get_or_init(detect)
    }

    /// Name of the dispatched ISA instantiation, for diagnostics.
    #[must_use]
    pub fn isa_name() -> &'static str {
        match isa() {
            #[cfg(target_arch = "x86_64")]
            Isa::V512 => "avx512f",
            #[cfg(target_arch = "x86_64")]
            Isa::V256 => "avx2",
            Isa::Baseline => {
                if cfg!(target_arch = "aarch64") {
                    "neon"
                } else {
                    "portable"
                }
            }
        }
    }
}

/// The public kernels, each dispatched per the one-time [`dispatch::isa`]
/// probe to one of up to three bit-identical instantiations of its
/// [`scalar`] body: the baseline codegen, or the `avx2` / `avx512f`
/// `#[target_feature]` trampoline on x86-64.
///
/// The trampolines contain no code of their own — each body is literally
/// the [`scalar`] kernel, re-code-generated with wider registers. The
/// arithmetic is unchanged (per-lane f64, canonical order, no FMA: Rust
/// never contracts `a*b + c` into a fused multiply-add, even where the ISA
/// has one, as AVX-512F does), so all instantiations are bit-identical —
/// pinned by the unit test below, which runs every instantiation the host
/// supports, and by the property suite.
///
/// This module is the workspace's second scoped `unsafe` island (after
/// `mmap`): calling a `#[target_feature]` function from a caller without
/// that feature is an unsafe operation. Every such call sits behind the
/// `Isa` arm that the CPUID probe in [`dispatch`] selected, which is
/// exactly the guard the operation requires.
#[allow(unsafe_code)]
mod dispatched {
    use super::dispatch::{self, Isa};
    use super::scalar;

    #[cfg(target_arch = "x86_64")]
    macro_rules! isa_module {
        ($name:ident, $feat:literal) => {
            mod $name {
                use super::scalar;

                #[target_feature(enable = $feat)]
                pub fn sum(xs: &[f64]) -> f64 {
                    scalar::sum(xs)
                }

                #[target_feature(enable = $feat)]
                pub fn sum_x4(ys: [&[f64]; 4]) -> [f64; 4] {
                    scalar::sum_x4(ys)
                }

                #[target_feature(enable = $feat)]
                pub fn dot(xs: &[f64], ys: &[f64]) -> f64 {
                    scalar::dot(xs, ys)
                }

                #[target_feature(enable = $feat)]
                pub fn centered_sum_sq(xs: &[f64], mean: f64) -> f64 {
                    scalar::centered_sum_sq(xs, mean)
                }

                #[target_feature(enable = $feat)]
                pub fn sxy_syy(centered: &[f64], y: &[f64], my: f64) -> (f64, f64) {
                    scalar::sxy_syy(centered, y, my)
                }

                #[target_feature(enable = $feat)]
                pub fn sxy_syy_x4(
                    centered: &[f64],
                    ys: [&[f64]; 4],
                    mys: [f64; 4],
                ) -> [(f64, f64); 4] {
                    scalar::sxy_syy_x4(centered, ys, mys)
                }

                #[target_feature(enable = $feat)]
                pub fn accumulate(acc: &mut [f64], xs: &[f64]) {
                    scalar::accumulate(acc, xs);
                }

                #[target_feature(enable = $feat)]
                pub fn scale(acc: &mut [f64], factor: f64) {
                    scalar::scale(acc, factor);
                }

                #[target_feature(enable = $feat)]
                pub fn scale_sum(acc: &mut [f64], factor: f64) -> f64 {
                    scalar::scale_sum(acc, factor)
                }

                #[target_feature(enable = $feat)]
                pub fn accumulate_scale_sum(acc: &mut [f64], xs: &[f64], factor: f64) -> f64 {
                    scalar::accumulate_scale_sum(acc, xs, factor)
                }

                #[target_feature(enable = $feat)]
                pub fn sxy(centered: &[f64], y: &[f64], my: f64) -> f64 {
                    scalar::sxy(centered, y, my)
                }

                #[target_feature(enable = $feat)]
                pub fn sxy_refs_x4(centereds: [&[f64]; 4], y: &[f64], my: f64) -> [f64; 4] {
                    scalar::sxy_refs_x4(centereds, y, my)
                }
            }
        };
    }

    #[cfg(target_arch = "x86_64")]
    isa_module!(v256, "avx2");
    #[cfg(target_arch = "x86_64")]
    isa_module!(v512, "avx512f");

    /// Runs kernel `$f` in the instantiation the probe selected.
    /// SAFETY (for the `unsafe` arms): `Isa::V256`/`Isa::V512` are
    /// constructed only by the CPUID probe in [`dispatch`], which is the
    /// exact precondition of the `#[target_feature]` call.
    macro_rules! isa_dispatch {
        ($f:ident ( $($a:expr),* )) => {{
            match dispatch::isa() {
                Isa::Baseline => scalar::$f($($a),*),
                #[cfg(target_arch = "x86_64")]
                Isa::V256 => unsafe { v256::$f($($a),*) },
                #[cfg(target_arch = "x86_64")]
                Isa::V512 => unsafe { v512::$f($($a),*) },
            }
        }};
    }

    /// Blocked sum of a series in the canonical lane order.
    #[must_use]
    pub fn sum(xs: &[f64]) -> f64 {
        isa_dispatch!(sum(xs))
    }

    /// Blocked sums of four equal-length series in one sweep; each result
    /// is bit-identical to [`sum`] over that row alone.
    #[must_use]
    pub fn sum_x4(ys: [&[f64]; 4]) -> [f64; 4] {
        isa_dispatch!(sum_x4(ys))
    }

    /// Blocked dot product over the common prefix of the two series.
    #[must_use]
    pub fn dot(xs: &[f64], ys: &[f64]) -> f64 {
        isa_dispatch!(dot(xs, ys))
    }

    /// Blocked `Σ (xᵢ − mean)²` in the canonical lane order.
    #[must_use]
    pub fn centered_sum_sq(xs: &[f64], mean: f64) -> f64 {
        isa_dispatch!(centered_sum_sq(xs, mean))
    }

    /// Fused blocked Pearson `(sxy, syy)` pair against a pre-centered
    /// reference.
    #[must_use]
    pub fn sxy_syy(centered: &[f64], y: &[f64], my: f64) -> (f64, f64) {
        isa_dispatch!(sxy_syy(centered, y, my))
    }

    /// Four fused `(sxy, syy)` reductions in one register-blocked sweep;
    /// each pair is bit-identical to [`sxy_syy`] over that row alone.
    #[must_use]
    pub fn sxy_syy_x4(centered: &[f64], ys: [&[f64]; 4], mys: [f64; 4]) -> [(f64, f64); 4] {
        isa_dispatch!(sxy_syy_x4(centered, ys, mys))
    }

    /// Element-wise accumulate `accᵢ += xsᵢ` over the common prefix.
    pub fn accumulate(acc: &mut [f64], xs: &[f64]) {
        isa_dispatch!(accumulate(acc, xs));
    }

    /// Element-wise scale `accᵢ *= factor`.
    pub fn scale(acc: &mut [f64], factor: f64) {
        isa_dispatch!(scale(acc, factor));
    }

    /// Fused scale-and-sum: `accᵢ *= factor` while summing the scaled
    /// values in the canonical lane order. Bit-identical to [`scale`]
    /// followed by [`sum`], in one sweep instead of two.
    #[must_use]
    pub fn scale_sum(acc: &mut [f64], factor: f64) -> f64 {
        isa_dispatch!(scale_sum(acc, factor))
    }

    /// Fused k-average finalize: `accᵢ = (accᵢ + xsᵢ)·factor` returning the
    /// blocked sum of the updated buffer. Bit-identical to [`accumulate`],
    /// [`scale`], then [`sum`], in one sweep instead of three.
    #[must_use]
    pub fn accumulate_scale_sum(acc: &mut [f64], xs: &[f64], factor: f64) -> f64 {
        isa_dispatch!(accumulate_scale_sum(acc, xs, factor))
    }

    /// Blocked Pearson numerator `Σ cxᵢ·(yᵢ − my)` alone; bit-identical to
    /// [`sxy_syy`]`.0`.
    #[must_use]
    pub fn sxy(centered: &[f64], y: &[f64], my: f64) -> f64 {
        isa_dispatch!(sxy(centered, y, my))
    }

    /// Four Pearson numerators of one DUT row against four centered
    /// references in one tiled sweep; each is bit-identical to [`sxy`]
    /// against that reference alone.
    #[must_use]
    pub fn sxy_refs_x4(centereds: [&[f64]; 4], y: &[f64], my: f64) -> [f64; 4] {
        isa_dispatch!(sxy_refs_x4(centereds, y, my))
    }

    #[cfg(test)]
    mod tests {
        use super::super::tests::series;
        use super::scalar;

        /// One instantiation of the twelve kernels. The pointers are
        /// `unsafe fn` so the `#[target_feature]` trampolines fit next to
        /// the safe baseline and public fronts.
        #[allow(clippy::type_complexity)]
        struct Kernels {
            sum: unsafe fn(&[f64]) -> f64,
            sum_x4: unsafe fn([&[f64]; 4]) -> [f64; 4],
            dot: unsafe fn(&[f64], &[f64]) -> f64,
            centered_sum_sq: unsafe fn(&[f64], f64) -> f64,
            sxy_syy: unsafe fn(&[f64], &[f64], f64) -> (f64, f64),
            sxy_syy_x4: unsafe fn(&[f64], [&[f64]; 4], [f64; 4]) -> [(f64, f64); 4],
            accumulate: unsafe fn(&mut [f64], &[f64]),
            scale: unsafe fn(&mut [f64], f64),
            scale_sum: unsafe fn(&mut [f64], f64) -> f64,
            accumulate_scale_sum: unsafe fn(&mut [f64], &[f64], f64) -> f64,
            sxy: unsafe fn(&[f64], &[f64], f64) -> f64,
            sxy_refs_x4: unsafe fn([&[f64]; 4], &[f64], f64) -> [f64; 4],
        }

        macro_rules! kernels_of {
            ($($m:ident)::+) => {
                Kernels {
                    sum: $($m)::+::sum,
                    sum_x4: $($m)::+::sum_x4,
                    dot: $($m)::+::dot,
                    centered_sum_sq: $($m)::+::centered_sum_sq,
                    sxy_syy: $($m)::+::sxy_syy,
                    sxy_syy_x4: $($m)::+::sxy_syy_x4,
                    accumulate: $($m)::+::accumulate,
                    scale: $($m)::+::scale,
                    scale_sum: $($m)::+::scale_sum,
                    accumulate_scale_sum: $($m)::+::accumulate_scale_sum,
                    sxy: $($m)::+::sxy,
                    sxy_refs_x4: $($m)::+::sxy_refs_x4,
                }
            };
        }

        fn bits(xs: &[f64]) -> Vec<u64> {
            xs.iter().map(|x| x.to_bits()).collect()
        }

        fn pair_bits(ps: &[(f64, f64)]) -> Vec<(u64, u64)> {
            ps.iter().map(|p| (p.0.to_bits(), p.1.to_bits())).collect()
        }

        /// Pins every kernel of `k` bit for bit to [`scalar`].
        ///
        /// # Safety
        ///
        /// `k` must be safe functions, or trampolines whose target feature
        /// the running CPU has.
        unsafe fn assert_matches_scalar(isa: &str, k: &Kernels) {
            let mys = [0.1, -0.3, 0.0, 0.7];
            for n in [0, 1, 5, 7, 8, 9, 65, 513, 1000, 1025] {
                let xs = series(n, 60);
                let ys = series(n, 61);
                let rows: Vec<Vec<f64>> = (0..4).map(|r| series(n, 62 + r)).collect();
                let rows: [&[f64]; 4] = [&rows[0], &rows[1], &rows[2], &rows[3]];
                let at = format!("{isa} n={n}");
                // SAFETY: the caller guarantees every pointer of `k` may
                // run on this CPU.
                unsafe {
                    assert_eq!(bits(&[(k.sum)(&xs)]), bits(&[scalar::sum(&xs)]), "sum {at}");
                    assert_eq!(
                        bits(&(k.sum_x4)(rows)),
                        bits(&scalar::sum_x4(rows)),
                        "sum_x4 {at}"
                    );
                    assert_eq!(
                        bits(&[(k.dot)(&xs, &ys)]),
                        bits(&[scalar::dot(&xs, &ys)]),
                        "dot {at}"
                    );
                    assert_eq!(
                        bits(&[(k.centered_sum_sq)(&xs, 0.25)]),
                        bits(&[scalar::centered_sum_sq(&xs, 0.25)]),
                        "centered_sum_sq {at}"
                    );
                    assert_eq!(
                        pair_bits(&[(k.sxy_syy)(&xs, &ys, 0.1)]),
                        pair_bits(&[scalar::sxy_syy(&xs, &ys, 0.1)]),
                        "sxy_syy {at}"
                    );
                    assert_eq!(
                        pair_bits(&(k.sxy_syy_x4)(&xs, rows, mys)),
                        pair_bits(&scalar::sxy_syy_x4(&xs, rows, mys)),
                        "sxy_syy_x4 {at}"
                    );
                    assert_eq!(
                        bits(&[(k.sxy)(&xs, &ys, 0.1)]),
                        bits(&[scalar::sxy(&xs, &ys, 0.1)]),
                        "sxy {at}"
                    );
                    assert_eq!(
                        bits(&(k.sxy_refs_x4)(rows, &ys, -0.375)),
                        bits(&scalar::sxy_refs_x4(rows, &ys, -0.375)),
                        "sxy_refs_x4 {at}"
                    );

                    let (mut got, mut want) = (xs.clone(), xs.clone());
                    (k.accumulate)(&mut got, &ys);
                    scalar::accumulate(&mut want, &ys);
                    assert_eq!(bits(&got), bits(&want), "accumulate {at}");
                    (k.scale)(&mut got, 1.0 / 3.0);
                    scalar::scale(&mut want, 1.0 / 3.0);
                    assert_eq!(bits(&got), bits(&want), "scale {at}");
                    assert_eq!(
                        bits(&[(k.scale_sum)(&mut got, 1.0 / 7.0)]),
                        bits(&[scalar::scale_sum(&mut want, 1.0 / 7.0)]),
                        "scale_sum {at}"
                    );
                    assert_eq!(bits(&got), bits(&want), "scale_sum buffer {at}");
                    assert_eq!(
                        bits(&[(k.accumulate_scale_sum)(&mut got, &ys, 0.5)]),
                        bits(&[scalar::accumulate_scale_sum(&mut want, &ys, 0.5)]),
                        "accumulate_scale_sum {at}"
                    );
                    assert_eq!(bits(&got), bits(&want), "accumulate_scale_sum buffer {at}");
                }
            }
        }

        #[test]
        fn dispatched_public_kernels_match_the_scalar_reference() {
            // SAFETY: the public fronts are safe functions.
            unsafe { assert_matches_scalar("public", &kernels_of!(super)) };
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: the CPU has avx2, the trampolines' feature.
                    unsafe { assert_matches_scalar("avx2", &kernels_of!(super::v256)) };
                }
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: the CPU has avx512f, the trampolines' feature.
                    unsafe { assert_matches_scalar("avx512f", &kernels_of!(super::v512)) };
                }
            }
            let label = super::super::dispatch_label();
            assert_eq!(label, format!("scalar/{}", super::dispatch::isa_name()));
        }
    }
}

pub use dispatched::{
    accumulate, accumulate_scale_sum, centered_sum_sq, dot, scale, scale_sum, sum, sum_x4, sxy,
    sxy_refs_x4, sxy_syy, sxy_syy_x4,
};

/// The kernel implementation's name, for diagnostics such as
/// `ipmark plan --explain` and bench reports: always `"scalar"`, the one
/// implementation every ISA instantiation runs (DESIGN.md §11).
#[must_use]
pub fn backend_name() -> &'static str {
    "scalar"
}

/// One-line description of the dispatched kernels, for
/// `ipmark plan --explain` and bench reports: the implementation and the
/// ISA instantiation the probe selected, e.g. `"scalar/avx512f"`. Purely
/// diagnostic — every instantiation is bit-identical (DESIGN.md §16).
#[must_use]
pub fn dispatch_label() -> String {
    format!("{}/{}", backend_name(), dispatch::isa_name())
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn series(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                (((i as u64)
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(salt)
                    >> 33) as f64
                    / 2.0_f64.powi(30))
                .sin()
            })
            .collect()
    }

    #[test]
    fn sum_matches_naive_within_tolerance() {
        let xs = series(1000, 2);
        let naive: f64 = xs.iter().sum();
        let blocked = sum(&xs);
        assert!((naive - blocked).abs() <= 1e-12 * naive.abs().max(1.0));
    }

    #[test]
    fn sum_x4_rows_match_single_row_sum() {
        for n in [0, 5, 8, 64, 257] {
            let rows: Vec<Vec<f64>> = (0..4).map(|r| series(n, 10 + r)).collect();
            let batched = sum_x4([&rows[0], &rows[1], &rows[2], &rows[3]]);
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(batched[r].to_bits(), sum(row).to_bits(), "n={n} r={r}");
            }
        }
    }

    #[test]
    fn sxy_syy_x4_rows_match_single_row_kernel() {
        for n in [2, 8, 31, 200] {
            let centered = series(n, 5);
            let rows: Vec<Vec<f64>> = (0..4).map(|r| series(n, 20 + r)).collect();
            let mys = [0.1, -0.3, 0.0, 0.7];
            let batched = sxy_syy_x4(&centered, [&rows[0], &rows[1], &rows[2], &rows[3]], mys);
            for (r, row) in rows.iter().enumerate() {
                let single = sxy_syy(&centered, row, mys[r]);
                assert_eq!(
                    batched[r].0.to_bits(),
                    single.0.to_bits(),
                    "sxy n={n} r={r}"
                );
                assert_eq!(
                    batched[r].1.to_bits(),
                    single.1.to_bits(),
                    "syy n={n} r={r}"
                );
            }
        }
    }

    #[test]
    fn fused_scale_sum_matches_staged_scale_then_sum() {
        for n in [0, 1, 7, 8, 9, 100, 1025] {
            let base = series(n, 8);
            let factor = 1.0 / 7.0;
            for front in ["scalar", "dispatched"] {
                let mut staged = base.clone();
                scalar::scale(&mut staged, factor);
                let want = scalar::sum(&staged);
                let mut fused = base.clone();
                let got = match front {
                    "scalar" => scalar::scale_sum(&mut fused, factor),
                    _ => scale_sum(&mut fused, factor),
                };
                assert_eq!(got.to_bits(), want.to_bits(), "{front} n={n}");
                assert_eq!(fused, staged, "{front} buffer n={n}");
            }
        }
    }

    #[test]
    fn fused_accumulate_scale_sum_matches_staged_path() {
        // Equal lengths (the workspace case) plus a longer-acc tail, which
        // the staged path scales and sums without an addend.
        for (na, nx) in [(0, 0), (8, 8), (77, 77), (513, 513), (20, 13), (13, 20)] {
            let xs = series(nx, 9);
            let base = series(na, 10);
            let factor = 0.25;
            let mut staged = base.clone();
            scalar::accumulate(&mut staged, &xs);
            scalar::scale(&mut staged, factor);
            let want = scalar::sum(&staged);
            for front in ["scalar", "dispatched"] {
                let mut fused = base.clone();
                let got = match front {
                    "scalar" => scalar::accumulate_scale_sum(&mut fused, &xs, factor),
                    _ => accumulate_scale_sum(&mut fused, &xs, factor),
                };
                assert_eq!(got.to_bits(), want.to_bits(), "{front} na={na} nx={nx}");
                assert_eq!(fused, staged, "{front} buffer na={na} nx={nx}");
            }
        }
    }

    #[test]
    fn sxy_alone_matches_the_sxy_half_of_sxy_syy() {
        for n in [0, 2, 8, 31, 513] {
            let centered = series(n, 11);
            let y = series(n, 12);
            let my = 0.125;
            let want = scalar::sxy_syy(&centered, &y, my).0;
            assert_eq!(scalar::sxy(&centered, &y, my).to_bits(), want.to_bits());
            assert_eq!(sxy(&centered, &y, my).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn sxy_refs_x4_matches_single_reference_sxy() {
        for n in [0, 2, 8, 31, 200, 1200] {
            let refs: Vec<Vec<f64>> = (0..4).map(|r| series(n, 30 + r)).collect();
            let y = series(n, 40);
            let my = -0.375;
            for (front, batched) in [
                (
                    "scalar",
                    scalar::sxy_refs_x4([&refs[0], &refs[1], &refs[2], &refs[3]], &y, my),
                ),
                (
                    "dispatched",
                    sxy_refs_x4([&refs[0], &refs[1], &refs[2], &refs[3]], &y, my),
                ),
            ] {
                for (r, c) in refs.iter().enumerate() {
                    assert_eq!(
                        batched[r].to_bits(),
                        scalar::sxy(c, &y, my).to_bits(),
                        "{front} n={n} r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn accumulate_and_scale_match_plain_elementwise() {
        for n in [0, 1, 8, 77] {
            let xs = series(n, 6);
            let mut blocked = series(n, 7);
            let mut plain = blocked.clone();
            accumulate(&mut blocked, &xs);
            for (a, &x) in plain.iter_mut().zip(&xs) {
                *a += x;
            }
            assert_eq!(blocked, plain, "accumulate n={n}");
            let mut plain2 = blocked.clone();
            scale(&mut blocked, 1.0 / 3.0);
            for a in &mut plain2 {
                *a *= 1.0 / 3.0;
            }
            assert_eq!(blocked, plain2, "scale n={n}");
        }
    }
}
